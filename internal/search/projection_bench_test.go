package search_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/search"
	"repro/internal/whatif"
)

// BenchmarkWhatifProjection is the scale trajectory behind
// BENCH_whatif.json: greedy-heuristic search over the whatif-backed
// synthetic space at 1k/10k candidates, with relevance projection
// (the default) against the whole-configuration atom keying
// (unprojected baseline). evals/op is the engine's exact CostService
// call count (whatif.Stats.Evaluations), the quantity projection
// exists to shrink; projhits/op counts cache hits that only exist
// because projection dropped irrelevant definitions from the atom key.
// Both variants choose byte-identical configurations
// (TestProjectionDifferentialSynthetic pins that). The in-repo bench
// stops at 10k to keep the CI -benchtime=1x smoke seconds-scale;
// BENCH_whatif.json records a one-off 50k measurement.
func BenchmarkWhatifProjection(b *testing.B) {
	strat, err := search.Lookup("greedy-heuristic")
	if err != nil {
		b.Fatal(err)
	}
	for _, sz := range []struct {
		name string
		n    int
	}{
		{"n-1k", 1_000},
		{"n-10k", 10_000},
	} {
		b.Run(sz.name, func(b *testing.B) {
			for _, v := range []struct {
				name   string
				noProj bool
			}{
				{"projected", false},
				{"unprojected", true},
			} {
				b.Run(v.name, func(b *testing.B) {
					ctx := context.Background()
					var evals, projHits, hits int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						// A fresh space per iteration: a warm cache would
						// turn every evaluation into a hit and measure
						// nothing.
						b.StopTimer()
						sp, eng := search.NewSyntheticWhatIfSpace(sz.n, 42, whatif.Options{NoProjection: v.noProj})
						b.StartTimer()
						if _, err := strat.Search(ctx, sp); err != nil {
							b.Fatal(err)
						}
						st := eng.Stats()
						evals += st.Evaluations
						projHits += st.ProjectedHits
						hits += st.Hits
					}
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
					b.ReportMetric(float64(hits)/float64(b.N), "hits/op")
					b.ReportMetric(float64(projHits)/float64(b.N), "projhits/op")
				})
			}
		})
	}
	// Real workloads through the whole advisor stack: candidate
	// pipeline + optimizer-backed what-if engine, projection on vs off.
	env, err := experiments.BuildEnv(experiments.Small)
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []string{"xmark", "tpox"} {
		w := env.XMarkWorkload
		if wl == "tpox" {
			w = env.TPoXWorkload
		}
		b.Run(wl, func(b *testing.B) {
			for _, v := range []struct {
				name string
				on   bool
			}{
				{"projected", true},
				{"unprojected", false},
			} {
				b.Run(v.name, func(b *testing.B) {
					ctx := context.Background()
					var evals, projHits int64
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						b.StopTimer()
						opts := core.DefaultOptions()
						opts.NoProjection = !v.on
						a := core.New(env.Cat, opts)
						b.StartTimer()
						rec, _, err := a.RecommendFull(ctx, w, opts.Strategy, opts.DiskBudgetPages, nil)
						if err != nil {
							b.Fatal(err)
						}
						evals += rec.Cache.Evaluations
						projHits += rec.Cache.ProjectedHits
					}
					b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
					b.ReportMetric(float64(projHits)/float64(b.N), "projhits/op")
				})
			}
		})
	}
}
