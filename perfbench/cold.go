package main

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/store"
)

// advise-cold: the xia one-shot path. Each op parses an XMark workload
// text, builds a fresh catalog (so RUNSTATS runs) and advisor over the
// shared store, and calls Advisor.Recommend with the default strategy
// at a fixed budget. Every op has a workload of its own (see repeats).
// The pattern-kernel caches are reset before every op, as a fresh xia
// process would find them, so nothing is reused across ops.
const (
	coldDocs     = 250
	coldQueries  = 40
	coldBudgetKB = 256
)

type adviseCold struct {
	st   *store.Store
	pool []string
}

func (a *adviseCold) setup(cfg config) error {
	a.st = store.New()
	if _, err := datagen.GenerateXMark(a.st, datagen.XMarkConfig{Docs: coldDocs, Seed: 1}); err != nil {
		return err
	}
	a.pool = make([]string, inputs(cfg.opCount(workloads["advise-cold"].opsPerSecond)))
	for i := range a.pool {
		s := cfg.seed*1000 + int64(i)
		w := datagen.XMarkWorkload(coldQueries, s)
		datagen.XMarkUpdates(w, 4, s)
		a.pool[i] = w.Format()
	}
	// Warm-up: one op on a workload outside the run's inputs, the same for
	// every seed so that set-up does the same work.
	w := datagen.XMarkWorkload(coldQueries, warmSeed)
	datagen.XMarkUpdates(w, 4, warmSeed)
	var p pass
	a.op(&p, -1, w.Format(), nil)
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %v", p.problems)
	}
	return nil
}

func (a *adviseCold) close() { a.st = nil }

func (a *adviseCold) run(cfg config, traced bool) (*pass, error) {
	n := cfg.opCount(workloads["advise-cold"].opsPerSecond)
	p := &pass{}
	var rec *recorder
	if traced {
		rec = &recorder{}
	}
	rc := repeatCheck{}
	pr := startProbe()
	for i := 0; i < n; i++ {
		j := i % len(a.pool)
		if calls, net, ok := a.op(p, i, a.pool[j], rec); ok {
			rc.check(p, i, j, calls, net)
		}
	}
	p.rt = pr.finish()
	if traced {
		p.layer("stats.collect_ms", ms(rec.total("stats.collect")))
		p.layer("querylang.parse_ms", ms(rec.total("querylang.parse")))
		p.layer("core.self_ms", ms(rec.selfTotal("core.recommend")))
	}
	return p, nil
}

// op runs one cold advice: parse, RUNSTATS on a fresh catalog, one-shot
// Recommend. It records spans into rec when tracing, and returns the
// op's CostService calls and net benefit.
func (a *adviseCold) op(p *pass, i int, text string, rec *recorder) (calls int64, net float64, ok bool) {
	pattern.ResetCaches()
	p.attempted++
	ctx := context.Background()
	var meter *costMeter
	opts := []advisor.Option{advisor.WithBudgetKB(coldBudgetKB)}
	if rec != nil {
		meter = &costMeter{}
		meter.timed.Store(true)
		opts = append(opts, meter.wrapper())
	}

	t0 := time.Now()
	w, err := advisor.ParseWorkload(fmt.Sprintf("cold-%d", i), text)
	t1 := time.Now()
	if err != nil {
		p.fail("op %d: parse: %v", i, err)
		return 0, 0, false
	}
	cat := catalog.New(a.st)
	for _, coll := range w.Collections() {
		if _, err := cat.Stats(coll); err != nil {
			p.fail("op %d: stats: %v", i, err)
			return 0, 0, false
		}
	}
	t2 := time.Now()
	adv, err := advisor.New(cat, opts...)
	if err != nil {
		p.fail("op %d: %v", i, err)
		return 0, 0, false
	}
	resp, err := adv.Recommend(ctx, w, advisor.RecommendRequest{})
	t3 := time.Now()
	if err != nil {
		p.fail("op %d: recommend: %v", i, err)
		return 0, 0, false
	}
	if msg := checkResponse(resp); msg != "" {
		p.fail("op %d: %s", i, msg)
		return 0, 0, false
	}
	if i < 0 {
		return resp.Cache.Evaluations, resp.NetBenefit, true
	}
	p.lat = append(p.lat, ms(t3.Sub(t0)))
	p.open = append(p.open, ms(t2.Sub(t0)))
	p.nets = append(p.nets, resp.NetBenefit)
	p.whatifCalls += resp.Cache.Evaluations
	if rec != nil {
		p.meterCalls += meter.calls.Load()
		if meter.calls.Load() != resp.Cache.Evaluations {
			p.fail("op %d: wrapper counted %d CostService calls, engine %d", i, meter.calls.Load(), resp.Cache.Evaluations)
		}
		root := rec.add("advise", i, -1, t0, t3)
		rec.add("querylang.parse", i, root, t0, t1)
		rec.add("stats.collect", i, root, t1, t2)
		r := rec.add("core.recommend", i, root, t2, t3)
		// The pipeline runs first inside Recommend and the search last;
		// their durations come from the response's stats blocks.
		rec.add("candidate.pipeline", i, r, t2, t2.Add(resp.Pipeline.Wall))
		rec.add("search", i, r, t3.Add(-resp.Search.Elapsed), t3)
		addPipelineLayers(p, resp.Pipeline)
		addSearchLayers(p, resp)
		p.layer("candidate.count", float64(resp.Candidates.Total))
		p.layer("pattern.kernel_hits", float64(resp.Kernel.Contains.Hits+resp.Kernel.Overlaps.Hits))
		p.layer("pattern.kernel_misses", float64(resp.Kernel.Contains.Misses+resp.Kernel.Overlaps.Misses))
		p.layer("optimizer.calls", float64(meter.calls.Load()))
		p.layer("optimizer.busy_ms", ms(time.Duration(meter.busy.Load())))
	}
	return resp.Cache.Evaluations, resp.NetBenefit, true
}

// addPipelineLayers adds the candidate pipeline's counters and timings.
func addPipelineLayers(p *pass, st advisor.PipelineStats) {
	p.layer("candidate.pipeline_ms", ms(st.Wall))
	p.layer("candidate.matrix_ms", ms(st.Matrix.BuildWall+st.Matrix.ReduceWall))
	p.layer("candidate.matrix_pairs", float64(st.Matrix.Pairs))
}

// addSearchLayers adds the what-if and search counters of one
// recommendation.
func addSearchLayers(p *pass, resp *advisor.RecommendResponse) {
	p.layer("whatif.hits", float64(resp.Cache.Hits))
	p.layer("whatif.misses", float64(resp.Cache.Misses))
	p.layer("whatif.projected_hits", float64(resp.Cache.ProjectedHits))
	p.layer("search.ms", ms(resp.Search.Elapsed))
	p.layer("search.evals", float64(resp.Search.Evals))
	p.layer("search.rounds", float64(resp.Search.Rounds))
	if lp := resp.Search.LP; lp != nil {
		p.layer("lp.passes", float64(lp.Passes))
	}
	for _, m := range resp.Search.Members {
		if m.LP != nil {
			p.layer("lp.passes", float64(m.LP.Passes))
		}
	}
}

// checkResponse is the output check every recommendation passes: the
// configuration fits its budget and adds up, the net benefit is not
// negative, the answer is not degraded, and there is one DDL statement
// per index, naming it.
func checkResponse(resp *advisor.RecommendResponse) string {
	if resp.Degraded {
		return "degraded: " + resp.DegradedReason
	}
	if resp.BudgetPages > 0 && resp.TotalPages > resp.BudgetPages {
		return fmt.Sprintf("configuration of %d pages exceeds the %d-page budget", resp.TotalPages, resp.BudgetPages)
	}
	var pages int64
	for _, idx := range resp.Indexes {
		pages += idx.Pages
	}
	if pages != resp.TotalPages {
		return fmt.Sprintf("index pages add up to %d, response says %d", pages, resp.TotalPages)
	}
	if resp.NetBenefit < 0 {
		return fmt.Sprintf("negative net benefit %v", resp.NetBenefit)
	}
	ddl := resp.DDL()
	if len(ddl) != len(resp.Indexes) {
		return fmt.Sprintf("%d DDL statements for %d indexes", len(ddl), len(resp.Indexes))
	}
	names := map[string]bool{}
	for i, idx := range resp.Indexes {
		if names[idx.Name] {
			return "duplicate index name " + idx.Name
		}
		names[idx.Name] = true
		if !strings.HasPrefix(ddl[i], "CREATE INDEX "+idx.Name+" ") {
			return fmt.Sprintf("DDL %q does not create %s", ddl[i], idx.Name)
		}
	}
	return ""
}
