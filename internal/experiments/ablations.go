package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/advisor"
	"repro/internal/datagen"
)

// E9CouplingAblation compares the paper's optimizer-coupled candidate
// enumeration with a loosely coupled syntactic baseline that scrapes
// paths from the query text: the baseline cannot infer SQL types or
// exclude non-matchable patterns, so its recommendations are larger and
// weaker — the paper's motivation for tight coupling (§2).
func E9CouplingAblation(env *Env) (string, error) {
	ctx := context.Background()
	t := newTable("E9: optimizer-coupled vs syntactic candidate enumeration",
		"enumeration", "#basic", "#idx", "pages", "net benefit", "#unused")
	for _, syntactic := range []bool{false, true} {
		name := "optimizer"
		if syntactic {
			name = "syntactic"
		}
		a := env.advisor(advisor.WithSyntacticEnumeration(syntactic))
		rec, err := a.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
		if err != nil {
			return "", err
		}
		used := map[string]bool{}
		for _, qa := range rec.PerQuery {
			for _, n := range qa.IndexesUsed {
				used[n] = true
			}
		}
		t.add(name, rec.Candidates.Basics, len(rec.Indexes), rec.TotalPages, rec.NetBenefit,
			len(rec.Indexes)-len(used))
	}
	return t.String(), nil
}

// E10InteractionAblation measures interaction-aware benefit estimation
// (paper §2.3: "the benefit of an index can change depending on which
// other indexes are available"): greedy search with marginal
// re-evaluation vs standalone benefits.
func E10InteractionAblation(env *Env) (string, error) {
	ctx := context.Background()
	over, err := overtrainedPages(env, env.XMarkWorkload)
	if err != nil {
		return "", err
	}
	t := newTable("E10: index-interaction-aware greedy vs standalone-benefit greedy",
		"interaction", "budget", "#idx", "pages", "net benefit", "evaluations", "cache hit%")
	for _, frac := range []float64{0.25, 0.5} {
		budget := int64(float64(over) * frac)
		for _, aware := range []bool{false, true} {
			a := env.advisor(advisor.WithInteractionAware(aware), advisor.WithBudgetPages(budget))
			rec, err := a.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
			if err != nil {
				return "", err
			}
			t.add(boolName(aware), budget, len(rec.Indexes), rec.TotalPages, rec.NetBenefit,
				rec.Evaluations, 100*rec.Cache.HitRate())
		}
	}
	return t.String(), nil
}

func boolName(b bool) string {
	if b {
		return "on"
	}
	return "off"
}

// E11AdvisorScalability measures advisor runtime, optimizer-evaluation
// count, and candidate-set growth as the workload grows — the advisor's
// own cost, which a DBA-facing tool must keep manageable.
func E11AdvisorScalability(env *Env) (string, error) {
	ctx := context.Background()
	t := newTable("E11: advisor runtime vs workload size",
		"#queries", "#basic", "#cands", "#idx", "evaluations", "cache hit%", "kernel hit%", "runtime")
	for _, n := range []int{5, 10, 20, 40, 80} {
		w := datagen.XMarkWorkload(n, 1)
		rec, err := env.advisor().Recommend(ctx, w, advisor.RecommendRequest{})
		if err != nil {
			return "", err
		}
		t.add(n, rec.Candidates.Basics, rec.Candidates.DAGNodes, len(rec.Indexes),
			rec.Evaluations, 100*rec.Cache.HitRate(), 100*rec.Kernel.HitRate(),
			rec.Elapsed().Round(time.Millisecond).String())
	}
	return t.String(), nil
}

// E12ParallelWhatIf measures how the advisor scales with the what-if
// engine's worker count: identical recommendations, falling wall-clock.
// This is the payoff of decoupling search from the optimizer behind the
// concurrent whatif.CostService.
func E12ParallelWhatIf(env *Env) (string, error) {
	ctx := context.Background()
	t := newTable("E12: what-if evaluation parallelism (XMark workload, greedy-heuristic search)",
		"workers", "#idx", "net benefit", "evaluations", "cache hits", "hit%", "proj hits", "rel med/p95", "runtime")
	for _, wk := range WorkerSweep() {
		a := env.advisor(advisor.WithParallelism(wk))
		rec, err := a.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
		if err != nil {
			return "", err
		}
		t.add(wk, len(rec.Indexes), rec.NetBenefit, rec.Evaluations,
			int(rec.Cache.Hits), 100*rec.Cache.HitRate(), rec.Cache.ProjectedHits,
			fmt.Sprintf("%d/%d", rec.Relevance.Median, rec.Relevance.P95),
			rec.Elapsed().Round(time.Millisecond).String())
	}
	return t.String(), nil
}

// WorkerSweep is the worker-count series E12 and BenchmarkAdvisorParallel
// share: 1, 2, 4, plus the host's CPU count when larger.
func WorkerSweep() []int {
	set := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > 4 {
		set = append(set, n)
	}
	return set
}

// E13RuleAblation measures the contribution of each generalization rule
// (§2.2) to the candidate space and the recommendation: the default rule
// set, each rule alone, the full set, and none, with the pipeline's
// per-rule applied/pruned counters.
func E13RuleAblation(env *Env) (string, error) {
	ctx := context.Background()
	t := newTable("E13: generalization rule ablation (XMark workload, unlimited budget)",
		"rules", "#basic", "#cands", "#idx", "pages", "net benefit", "rule applied/pruned")
	for _, spec := range []string{"none", "lub", "wildcard", "leaf", "axis", "universal", "lub,leaf", "all"} {
		a := env.advisor(advisor.WithRules(spec))
		rec, err := a.Recommend(ctx, env.XMarkWorkload, advisor.RecommendRequest{})
		if err != nil {
			return "", err
		}
		var counters []string
		for _, r := range rec.Pipeline.Rules {
			counters = append(counters, fmt.Sprintf("%s:%d/%d", r.Name, r.Applied, r.Pruned))
		}
		t.add(spec, rec.Pipeline.Basic, rec.Candidates.DAGNodes, len(rec.Indexes), rec.TotalPages,
			rec.NetBenefit, strings.Join(counters, " "))
	}
	return t.String(), nil
}

// Experiment is one reproduced table or figure, by its E-number.
type Experiment struct {
	Name string
	Run  func(*Env) (string, error)
}

// Experiments lists every experiment in order E1..E14.
var Experiments = []Experiment{
	{"E1", E1EnumerateIndexes},
	{"E2", E2EvaluateIndexes},
	{"E3", E3GeneralizationDAG},
	{"E4", E4RecommendationAnalysis},
	{"E5", E5UnseenWorkload},
	{"E6", E6SearchStrategies},
	{"E7", E7UpdateCost},
	{"E8", E8ActualExecution},
	{"E9", E9CouplingAblation},
	{"E10", E10InteractionAblation},
	{"E11", E11AdvisorScalability},
	{"E12", E12ParallelWhatIf},
	{"E13", E13RuleAblation},
	{"E14", E14StrategyPortfolio},
}
