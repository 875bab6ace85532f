package search

import (
	"context"
	"testing"
)

// TestMembersAbortAgainstUnbeatableLeader pins the cost-bound abort
// path deterministically: with a leader already published far above any
// achievable net, every bounded strategy must abort instead of paying
// for a search it cannot win — and the aborted result must be marked so
// the race never picks it.
func TestMembersAbortAgainstUnbeatableLeader(t *testing.T) {
	ctx := context.Background()
	for _, strat := range []Strategy{greedyHeuristic{}, topDown{}} {
		sp := NewSyntheticSpace(400, 9).WithBudget(synBudgetPages)
		sp.leader = newLeaderBoard()
		sp.leader.publish(1e18)
		res, err := strat.Search(ctx, sp)
		if err != nil {
			t.Fatalf("%s: %v", strat.Name(), err)
		}
		if !res.Aborted || !res.Stats.Aborted {
			t.Errorf("%s: did not abort against an unbeatable leader", strat.Name())
			continue
		}
		var found bool
		for _, e := range res.Trace {
			if e.Action == ActionAbort {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: aborted result has no %q trace event", strat.Name(), ActionAbort)
		}
	}
}

// TestGreedyBasicNeverAborts guards the race's survivor guarantee: the
// baseline member has no abort hook, so at least one member always
// finishes even when the leader is unbeatable.
func TestGreedyBasicNeverAborts(t *testing.T) {
	sp := NewSyntheticSpace(400, 9).WithBudget(synBudgetPages)
	sp.leader = newLeaderBoard()
	sp.leader.publish(1e18)
	res, err := greedyBasic{}.Search(context.Background(), sp)
	if err != nil {
		t.Fatal(err)
	}
	if res.Aborted {
		t.Error("greedy-basic aborted; the race would have no guaranteed survivor")
	}
	if len(res.Config) == 0 {
		t.Error("greedy-basic chose nothing on the synthetic space")
	}
}
