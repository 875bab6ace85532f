package search

import (
	"context"

	"repro/internal/candidate"
)

// EagerGreedyOracle is greedy-heuristic with the original eager
// marginal scan in place of the lazy heap. Both modes must choose the
// same configurations with the same evaluations and trace; the
// lazy==eager suites and BenchmarkSearchScale compare against it. It is
// not registered, so it never runs as a race member.
var EagerGreedyOracle Strategy = eagerGreedy{}

type eagerGreedy struct{}

func (eagerGreedy) Name() string { return greedyHeuristic{}.Name() }

// Search is greedyHeuristic.Search with the eager loop.
func (g eagerGreedy) Search(ctx context.Context, sp *Space) (*Result, error) {
	tr := newTracer(g.Name(), sp)
	alone, err := standalone(ctx, tr.ev, sp.Candidates)
	if err != nil {
		if sp.degradable(err) {
			return degrade(sp, tr, nil, nil, err), nil
		}
		return nil, err
	}
	var positive []*Candidate
	for _, c := range sp.Candidates {
		if alone[c.ID].Net > 0 {
			positive = append(positive, c)
		}
	}
	return g.eager(ctx, sp, tr, alone, rankByDensity(positive, alone))
}

// eager is the original marginal-evaluation loop: every round scans the
// density-ordered eligible prefix, re-evaluating config+{c} for each
// candidate until the standalone-density upper bound says no later
// candidate can beat the best found.
func (g eagerGreedy) eager(ctx context.Context, sp *Space, tr *tracer,
	alone map[int]*Eval, remaining []*Candidate) (*Result, error) {
	width := bitsetWidth(sp.Candidates)
	var config []*Candidate
	covered := candidate.NewBitset(width)

	curEval, err := tr.ev.Evaluate(ctx, nil)
	if err != nil {
		if sp.degradable(err) {
			return degrade(sp, tr, nil, nil, err), nil
		}
		return nil, err
	}
	for {
		pages := PagesOf(config)
		// Eligible candidates, in standalone-density order (inherited
		// from the sort above): budget and redundancy filters first.
		var elig []*Candidate
		for _, c := range remaining {
			if !sp.Fits(pages + c.Pages()) {
				continue
			}
			// Redundancy heuristic: covered patterns must grow.
			if c.Covers().SubsetOf(covered) {
				continue
			}
			elig = append(elig, c)
		}
		var best *Candidate
		var bestEval *Eval
		bestRatio := 0.0
		if sp.InteractionAware {
			// Marginal re-evaluation, parallelized in worker-sized
			// chunks down the density-ordered prefix. Upper-bound
			// pruning applies exactly as in the sequential algorithm —
			// the marginal benefit of c cannot meaningfully exceed its
			// standalone benefit, so the scan stops at the first
			// candidate whose standalone density is at or below the
			// best found ratio. Chunk members past the cutoff were
			// evaluated speculatively; their results are discarded, so
			// the recommendation is independent of the worker count.
			chunk := tr.ev.Workers() // always >= 1
			stopped := false
			for start := 0; start < len(elig) && !stopped; start += chunk {
				// Free prune at the batch boundary: if the cutoff
				// already holds for the batch's densest candidate, no
				// member can win — skip the speculative evaluations.
				if best != nil && ratio(alone[elig[start].ID].Net, elig[start].Pages()) <= bestRatio {
					break
				}
				end := start + chunk
				if end > len(elig) {
					end = len(elig)
				}
				batch := elig[start:end]
				evals, err := evalEach(ctx, tr.ev, config, batch)
				if err != nil {
					if sp.degradable(err) {
						return degrade(sp, tr, config, curEval, err), nil
					}
					return nil, err
				}
				for i, c := range batch {
					if best != nil && ratio(alone[c.ID].Net, c.Pages()) <= bestRatio {
						stopped = true
						break
					}
					marg := evals[i].Net - curEval.Net
					if r := ratio(marg, c.Pages()); marg > 0 && (best == nil || r > bestRatio) {
						best, bestEval, bestRatio = c, evals[i], r
					}
				}
			}
		} else {
			for _, c := range elig {
				if r := ratio(alone[c.ID].Net, c.Pages()); alone[c.ID].Net > 0 && (best == nil || r > bestRatio) {
					best, bestRatio = c, r
				}
			}
		}
		if best == nil {
			break
		}
		config = append(config, best)
		best.Covers().OrInto(covered)
		if bestEval == nil {
			bestEval, err = tr.ev.Evaluate(ctx, config)
			if err != nil {
				if sp.degradable(err) {
					// The newest member was never evaluated; degrade to
					// the configuration the last evaluation priced.
					return degrade(sp, tr, config[:len(config)-1], curEval, err), nil
				}
				return nil, err
			}
		}
		curEval = bestEval
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: best.Key(), Benefit: curEval.Net,
			Pages: PagesOf(config), Covered: covered.Count(), Of: width})

		// Reclaim space held by members no plan uses anymore.
		pruned := config[:0:0]
		for _, c := range config {
			if curEval.Used[c.ID] {
				pruned = append(pruned, c)
			} else {
				tr.emit(TraceEvent{Action: ActionReclaim, Candidate: c.Key(), Note: "unused under current config"})
			}
		}
		if len(pruned) != len(config) {
			config = pruned
			curEval, err = tr.ev.Evaluate(ctx, config)
			if err != nil {
				if sp.degradable(err) {
					// Reclaimed members were unused, so the pre-prune
					// evaluation still prices this configuration.
					return degrade(sp, tr, config, bestEval, err), nil
				}
				return nil, err
			}
			covered = candidate.NewBitset(width)
			for _, c := range config {
				c.Covers().OrInto(covered)
			}
		}
		// Remove the chosen candidate from further consideration.
		rest := remaining[:0:0]
		for _, c := range remaining {
			if c != best {
				rest = append(rest, c)
			}
		}
		remaining = rest
	}
	return finish(ctx, sp, tr, config, curEval)
}
