package search

import "context"

func init() {
	Register(greedyBasic{})
	Register(greedyHeuristic{})
}

// greedyBasic is the plain greedy 0/1-knapsack approximation of the
// relational DB2 advisor [8], kept as the baseline the paper compares
// its strategies against: rank candidates once by standalone net
// benefit per page and add while the budget holds. No redundancy
// detection, no re-evaluation — exactly the weaknesses the paper's
// heuristics address.
type greedyBasic struct{}

func (greedyBasic) Name() string { return "greedy-basic" }

func (g greedyBasic) Search(ctx context.Context, sp *Space) (*Result, error) {
	tr := newTracer(g.Name(), sp)
	alone, err := standalone(ctx, tr.ev, sp.Candidates)
	if err != nil {
		if sp.degradable(err) {
			return degrade(sp, tr, nil, nil, err), nil
		}
		return nil, err
	}
	order := rankByDensity(sp.Candidates, alone)
	var config []*Candidate
	var pages int64
	for _, c := range order {
		if alone[c.ID].Net <= 0 {
			break
		}
		if !sp.Fits(pages + c.Pages()) {
			tr.emit(TraceEvent{Action: ActionSkip, Candidate: c.Key(), Benefit: alone[c.ID].Net, Note: "over budget"})
			continue
		}
		config = append(config, c)
		pages += c.Pages()
		tr.round++
		tr.emit(TraceEvent{Action: ActionAdd, Candidate: c.Key(), Benefit: alone[c.ID].Net, Pages: pages})
	}
	return finish(ctx, sp, tr, config, nil)
}

// greedyHeuristic is the paper's greedy search with heuristics:
//
//   - redundancy bitmap: a candidate whose covered workload patterns add
//     nothing to the patterns already covered is skipped outright;
//   - interaction-aware marginal benefit: each round re-evaluates the
//     configuration with the candidate included (Evaluate Indexes), so
//     overlapping benefits are not double-counted;
//   - reclamation: after each addition, configuration members that the
//     optimizer no longer uses for any workload query are dropped and
//     their space reclaimed.
//
// The marginal evaluation is the lazy-greedy heap (lazy.go), which
// re-evaluates only candidates whose last-known marginal still competes
// for the top. It chooses exactly what the original eager prefix scan
// chooses; that scan survives as the test oracle in eager_test.go.
type greedyHeuristic struct{}

func (greedyHeuristic) Name() string { return "greedy-heuristic" }

func (g greedyHeuristic) Search(ctx context.Context, sp *Space) (*Result, error) {
	tr := newTracer(g.Name(), sp)

	// Candidates with no standalone benefit are dropped up front. A
	// candidate useless alone can in principle gain value inside an
	// index-ANDed plan, but its standalone benefit is a tight upper
	// bound in practice and evaluating every (config, candidate) pair
	// without it would be quadratic in optimizer calls.
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
	// The density ranking is the lazy heap's initial order and its
	// tie-break.
	return g.lazy(ctx, sp, tr, alone, rankByDensity(positive, alone))
}
