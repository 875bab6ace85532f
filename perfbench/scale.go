package main

import (
	"context"
	"fmt"
	"time"

	"repro/internal/search"
	"repro/internal/whatif"
)

// scale-50k: lp Search on 50k-candidate synthetic spaces costed through
// the real what-if engine. Building a space is an untimed step of each
// op (it is a fresh engine and a fresh benefit matrix every time); the
// op is the Search call. Every op has a space of its own (see repeats).
const (
	scaleCandidates = 50000
	scaleStrategy   = "lp"
)

type scale50k struct {
	seeds []uint64
	strat search.Strategy
}

func (s *scale50k) setup(cfg config) error {
	strat, err := search.Lookup(scaleStrategy)
	if err != nil {
		return err
	}
	s.strat = strat
	s.seeds = make([]uint64, inputs(cfg.opCount(workloads["scale-50k"].opsPerSecond)))
	for i := range s.seeds {
		s.seeds[i] = uint64(cfg.seed)*1000 + uint64(i)
	}
	// Warm-up: one op on a space outside the run's inputs, the same for every
	// seed so that set-up does the same work.
	var p pass
	warm := warmSeed
	s.op(&p, -1, uint64(warm), nil)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %v", p.problems)
	}
	return nil
}

func (s *scale50k) close() {}

func (s *scale50k) run(cfg config, traced bool) (*pass, error) {
	n := cfg.opCount(workloads["scale-50k"].opsPerSecond)
	p := &pass{}
	var rec *syncRecorder
	if traced {
		rec = &syncRecorder{}
	}
	rc := repeatCheck{}
	for i := 0; i < n; i++ {
		j := i % len(s.seeds)
		if calls, net, ok := s.op(p, i, s.seeds[j], rec); ok {
			rc.check(p, i, j, calls, net)
		}
	}
	if traced {
		p.layer("search.eval_ms", ms(rec.total("search.eval")))
		p.layer("lp.benefits_ms", ms(rec.total("lp.benefits")))
		p.layer("search.self_ms", ms(rec.selfTotal("search")))
	}
	return p, nil
}

// op builds one space (untimed; its build time is the op's "open") and
// times one Search on it.
func (s *scale50k) op(p *pass, i int, seed uint64, rec *syncRecorder) (calls int64, net float64, ok bool) {
	p.attempted++
	ctx := context.Background()
	tb := time.Now()
	sp, eng := search.NewSyntheticWhatIfSpace(scaleCandidates, seed, whatif.Options{})
	open := time.Since(tb)
	var meter *evalMeter
	var root int
	if rec != nil {
		// The Search span's index is reserved now so evaluations can
		// name it as their parent; its times are filled in below.
		root = rec.add("search", i, -1, time.Time{}, time.Time{})
		sp.Eval, meter = newEvalMeter(sp.Eval, rec, i, root)
		sp.Benefits = meterBenefits(sp.Benefits, rec, i, root)
	}
	before := eng.Stats()
	pr := startProbe()
	t0 := time.Now()
	res, err := s.strat.Search(ctx, sp)
	t1 := time.Now()
	rt := pr.finish()
	if err != nil {
		p.fail("op %d: search: %v", i, err)
		return 0, 0, false
	}
	st := eng.Stats().Sub(before)
	if msg := checkResult(sp, res); msg != "" {
		p.fail("op %d: %s", i, msg)
		return 0, 0, false
	}
	if i < 0 {
		return st.Evaluations, res.Eval.Net, true
	}
	p.lat = append(p.lat, ms(t1.Sub(t0)))
	p.open = append(p.open, ms(open))
	p.nets = append(p.nets, res.Eval.Net)
	p.whatifCalls += st.Evaluations
	p.rt.add(rt)
	if rec != nil {
		rec.mu.Lock()
		rec.spans[root].Start, rec.spans[root].End = t0, t1
		rec.mu.Unlock()
		p.meterCalls += st.Evaluations
		p.layer("optimizer.calls", float64(st.Evaluations))
		p.layer("whatif.hits", float64(st.Hits))
		p.layer("whatif.misses", float64(st.Misses))
		p.layer("whatif.projected_hits", float64(st.ProjectedHits))
		p.gauge("whatif.resident_atoms", float64(eng.Len())) // the latest op's engine
		p.layer("candidate.count", float64(len(sp.Candidates)))
		p.layer("search.ms", ms(t1.Sub(t0)))
		p.layer("search.evals", float64(res.Stats.Evals))
		p.layer("search.rounds", float64(res.Stats.Rounds))
		if res.Stats.LP != nil {
			p.layer("lp.passes", float64(res.Stats.LP.Passes))
		}
		if got := meter.calls.Load(); got != res.Stats.Evals {
			p.fail("op %d: Space.Eval wrapper counted %d evaluations, search %d", i, got, res.Stats.Evals)
		}
	}
	return st.Evaluations, res.Eval.Net, true
}

// checkResult is checkResponse for a bare search result: the
// configuration fits the budget and adds up, the net benefit is not
// negative, and there is one distinct DDL statement per index.
func checkResult(sp *search.Space, res *search.Result) string {
	if res.Degraded || res.Aborted {
		return "degraded or aborted search"
	}
	if !sp.Fits(res.Pages) {
		return fmt.Sprintf("configuration of %d pages exceeds the %d-page budget", res.Pages, sp.BudgetPages)
	}
	if got := search.PagesOf(res.Config); got != res.Pages {
		return fmt.Sprintf("index pages add up to %d, result says %d", got, res.Pages)
	}
	if res.Eval == nil || res.Eval.Net < 0 {
		return "missing or negative net benefit"
	}
	ddl := map[string]bool{}
	for _, c := range res.Config {
		d := c.Def.DDL()
		if ddl[d] {
			return "duplicate DDL " + d
		}
		ddl[d] = true
	}
	if len(ddl) != len(res.Config) {
		return fmt.Sprintf("%d DDL statements for %d indexes", len(ddl), len(res.Config))
	}
	return ""
}
