package search_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/search"
)

// lazyEagerPair runs greedy-heuristic (the lazy heap) and the eager
// oracle over the space and returns (lazy, eager).
func lazyEagerPair(t *testing.T, sp *search.Space) (*search.Result, *search.Result) {
	t.Helper()
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	lazy, err := strat.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := search.EagerGreedyOracle.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	return lazy, eager
}

// requireSameChoice asserts the two results picked the identical
// configuration with identical evaluations.
func requireSameChoice(t *testing.T, label string, lazy, eager *search.Result) {
	t.Helper()
	if configKey(lazy) != configKey(eager) {
		t.Errorf("%s: lazy and eager chose different configurations:\n%s\nvs\n%s",
			label, configKey(lazy), configKey(eager))
	}
	if lazy.Eval.Net != eager.Eval.Net {
		t.Errorf("%s: lazy net %.6f != eager net %.6f", label, lazy.Eval.Net, eager.Eval.Net)
	}
	if lazy.Pages != eager.Pages {
		t.Errorf("%s: lazy pages %d != eager pages %d", label, lazy.Pages, eager.Pages)
	}
}

// TestLazyMatchesEagerOnWorkloads pins the tentpole property on the
// three real workloads: the lazy-greedy heap and the original eager
// prefix scan choose byte-identical configurations, and lazy never
// spends more what-if calls than eager.
func TestLazyMatchesEagerOnWorkloads(t *testing.T) {
	ctx := context.Background()
	for name, w := range propertyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			a := testAdvisor(t)
			prep, err := a.Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			full, err := prep.RecommendWith(ctx, "greedy-heuristic", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []int64{1, 2, 4} {
				budget := full.TotalPages / frac
				if budget < 1 {
					budget = 1
				}
				lazy, eager := lazyEagerPair(t, prep.Space().WithBudget(budget))
				requireSameChoice(t, name, lazy, eager)
				if lazy.Stats.Evals > eager.Stats.Evals {
					t.Errorf("%s budget %d: lazy spent %d evals, eager only %d",
						name, budget, lazy.Stats.Evals, eager.Stats.Evals)
				}
			}
		})
	}
}

// TestLazyMatchesEagerStandalone covers the mode without interaction
// awareness, where the heap keys stay at standalone densities: on the
// real workloads and one synthetic space the lazy heap and the eager
// oracle must agree on the configuration, the net, the what-if calls
// and every trace step. Cache counters are left out of the trace
// comparison because the paired runs share one engine.
func TestLazyMatchesEagerStandalone(t *testing.T) {
	ctx := context.Background()
	check := func(t *testing.T, label string, sp *search.Space) {
		t.Helper()
		sp = sp.WithBudget(sp.BudgetPages)
		sp.InteractionAware = false
		lazy, eager := lazyEagerPair(t, sp)
		requireSameChoice(t, label, lazy, eager)
		if lazy.Stats.Evals != eager.Stats.Evals {
			t.Errorf("%s: lazy spent %d evals, eager %d", label, lazy.Stats.Evals, eager.Stats.Evals)
		}
		if len(lazy.Trace) != len(eager.Trace) {
			t.Fatalf("%s: lazy trace has %d steps, eager %d", label, len(lazy.Trace), len(eager.Trace))
		}
		for i := range lazy.Trace {
			l, e := lazy.Trace[i], eager.Trace[i]
			l.Cache, e.Cache = search.Counters{}, search.Counters{}
			if l != e {
				t.Errorf("%s: trace step %d differs:\n%+v\nvs\n%+v", label, i, l, e)
			}
		}
	}
	for name, w := range propertyWorkloads(t) {
		t.Run(name, func(t *testing.T) {
			prep, err := testAdvisor(t).Prepare(ctx, w)
			if err != nil {
				t.Fatal(err)
			}
			full, err := prep.RecommendWith(ctx, "greedy-heuristic", 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, frac := range []int64{1, 2, 4} {
				check(t, fmt.Sprintf("%s 1/%d", name, frac), prep.Space().WithBudget(max(full.TotalPages/frac, 1)))
			}
		})
	}
	t.Run("synthetic", func(t *testing.T) {
		check(t, "synthetic", search.NewSyntheticSpace(2000, 7))
	})
}

// TestLazyMatchesEagerOnSyntheticPermuted runs both modes over the
// synthetic space — where interaction is heavy enough that the lazy
// heap actually skips most re-evaluations — and under candidate-order
// permutations: the ranking is content-based, so input order must not
// change the recommendation.
func TestLazyMatchesEagerOnSyntheticPermuted(t *testing.T) {
	sp := search.NewSyntheticSpace(2000, 7)
	lazy, eager := lazyEagerPair(t, sp)
	requireSameChoice(t, "synthetic", lazy, eager)
	if len(lazy.Config) == 0 {
		t.Fatal("synthetic search chose nothing")
	}
	if lazy.Stats.Evals*2 > eager.Stats.Evals {
		t.Errorf("lazy spent %d evals vs eager %d: expected at least a 2x reduction on the synthetic space",
			lazy.Stats.Evals, eager.Stats.Evals)
	}
	want := configKey(lazy)
	for _, seed := range []int64{1, 2, 3} {
		perm := sp.WithBudget(sp.BudgetPages)
		cands := append([]*search.Candidate(nil), sp.Candidates...)
		rand.New(rand.NewSource(seed)).Shuffle(len(cands), func(i, j int) {
			cands[i], cands[j] = cands[j], cands[i]
		})
		perm.Candidates = cands
		pl, pe := lazyEagerPair(t, perm)
		requireSameChoice(t, "permuted", pl, pe)
		if configKey(pl) != want {
			t.Errorf("seed %d: permuting the candidate order changed the recommendation", seed)
		}
	}
}

// TestSyntheticSpaceDeterministic pins the generator: same (n, seed)
// means identical candidates and identical search outcomes, both across
// builds and across repeated searches of one space.
func TestSyntheticSpaceDeterministic(t *testing.T) {
	a := search.NewSyntheticSpace(500, 11)
	b := search.NewSyntheticSpace(500, 11)
	if len(a.Candidates) != len(b.Candidates) {
		t.Fatalf("candidate counts differ: %d vs %d", len(a.Candidates), len(b.Candidates))
	}
	for i := range a.Candidates {
		ca, cb := a.Candidates[i], b.Candidates[i]
		if ca.Key() != cb.Key() || ca.Pages() != cb.Pages() || ca.Basic != cb.Basic {
			t.Fatalf("candidate %d differs: %v vs %v", i, ca, cb)
		}
	}
	if len(a.DAG.Roots) == 0 || len(a.DAG.Roots) != len(b.DAG.Roots) {
		t.Fatalf("root counts differ: %d vs %d", len(a.DAG.Roots), len(b.DAG.Roots))
	}
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	ra, err := strat.Search(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := strat.Search(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	ra2, err := strat.Search(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*search.Result{rb, ra2} {
		if configKey(r) != configKey(ra) || r.Eval.Net != ra.Eval.Net || r.Stats.Evals != ra.Stats.Evals {
			t.Fatalf("synthetic searches diverged: %q/%.3f/%d vs %q/%.3f/%d",
				configKey(r), r.Eval.Net, r.Stats.Evals, configKey(ra), ra.Eval.Net, ra.Stats.Evals)
		}
	}
}

// TestCostBoundedRace checks the opt-in racing mode on the synthetic
// space: the winner is never an aborted member, the result matches the
// best surviving member, and the chosen configuration is the same one
// the plain (abort-free) race picks — aborting losers must not change
// what wins.
func TestCostBoundedRace(t *testing.T) {
	sp := search.NewSyntheticSpace(5000, 3)
	strat, err := search.Lookup("race")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	plain, err := strat.Search(ctx, sp)
	if err != nil {
		t.Fatal(err)
	}
	bounded := sp.WithBudget(sp.BudgetPages)
	bounded.RaceCostBound = true
	res, err := strat.Search(ctx, bounded)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Winner == "" {
		t.Fatal("cost-bounded race recorded no winner")
	}
	bestSurviving := 0.0
	haveSurvivor := false
	for _, m := range res.Members {
		if m.Aborted != m.Stats.Aborted {
			t.Errorf("%s: result Aborted=%v but stats Aborted=%v", m.Strategy, m.Aborted, m.Stats.Aborted)
		}
		if m.Aborted {
			if m.Strategy == res.Stats.Winner {
				t.Errorf("aborted member %q won the race", m.Strategy)
			}
			continue
		}
		haveSurvivor = true
		if m.Eval.Net > bestSurviving {
			bestSurviving = m.Eval.Net
		}
	}
	if !haveSurvivor {
		t.Fatal("cost-bounded race has no surviving member")
	}
	if res.Eval.Net+1e-9 < bestSurviving {
		t.Errorf("cost-bounded race net %.3f < best surviving member %.3f", res.Eval.Net, bestSurviving)
	}
	if configKey(res) != configKey(plain) {
		t.Errorf("cost-bounded race chose a different configuration than the plain race:\n%s\nvs\n%s",
			configKey(res), configKey(plain))
	}
	if res.Eval.Net != plain.Eval.Net {
		t.Errorf("cost-bounded race net %.6f != plain race net %.6f", res.Eval.Net, plain.Eval.Net)
	}
}

// TestTraceCapTruncates checks the per-strategy trace buffer cap: the
// buffer ends with the truncation marker, Stats.Truncated counts the
// dropped events, and a streaming observer still receives the full
// stream.
func TestTraceCapTruncates(t *testing.T) {
	sp := search.NewSyntheticSpace(10000, 5)
	strat, err := search.Lookup("greedy-basic")
	if err != nil {
		t.Fatal(err)
	}
	capped := sp.WithBudget(sp.BudgetPages)
	var observed int
	capped.Observer = func(search.TraceEvent) { observed++ }
	res, err := strat.Search(context.Background(), capped)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Truncated == 0 {
		t.Fatalf("greedy-basic over 10000 candidates emitted only %d events; expected the %d-event cap to truncate",
			len(res.Trace), search.DefaultTraceCap)
	}
	if len(res.Trace) != search.DefaultTraceCap+1 {
		t.Fatalf("capped trace holds %d events, want %d (cap) + 1 marker", len(res.Trace), search.DefaultTraceCap)
	}
	last := res.Trace[len(res.Trace)-1]
	if last.Action != search.ActionTruncated {
		t.Errorf("capped trace ends with %q, want %q", last.Action, search.ActionTruncated)
	}
	if observed != search.DefaultTraceCap+res.Stats.Truncated {
		t.Errorf("observer saw %d events, want the full stream of %d", observed, search.DefaultTraceCap+res.Stats.Truncated)
	}
}
