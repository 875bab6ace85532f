package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{7, 7, 1, 7}, 7},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median(nil) is not NaN")
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 {
		t.Error("median reordered its input")
	}
}

func TestTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	v, pct, beyond, err := tail(xs)
	if err != nil {
		t.Fatal(err)
	}
	// 100 samples: the 90th smallest (90) has exactly 10 beyond it.
	if v != 90 || pct != 90 || beyond != 10 {
		t.Errorf("tail = (%v, p%v, %d beyond), want (90, p90, 10)", v, pct, beyond)
	}

	v, pct, beyond, err = tail([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	if err != nil || v != 1 || beyond != 10 || math.Abs(pct-100.0/11) > 1e-9 {
		t.Errorf("tail of 11 = (%v, p%v, %d, %v), want (1, p9.09, 10, nil)", v, pct, beyond, err)
	}

	// Ties at the cut move the tail down to the next smaller value, so
	// that at least 10 samples still lie strictly beyond it.
	ties := []float64{1, 2, 3, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}
	if v, pct, beyond, _ := tail(ties); v != 3 || beyond != 11 || math.Abs(pct-300.0/14) > 1e-9 {
		t.Errorf("tail with ties = (%v, p%v, %d beyond), want (3, p21.4, 11)", v, pct, beyond)
	}
	if _, _, _, err := tail([]float64{5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}); err == nil {
		t.Error("tail of all-equal samples did not fail")
	}

	if _, _, _, err := tail(make([]float64, 10)); err == nil {
		t.Error("tail of 10 samples did not fail")
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	var r recorder
	root := r.add("core.recommend", 0, -1, at(0), at(100))
	r.add("candidate.pipeline", 0, root, at(0), at(20))
	// Two overlapping parallel children cover [30, 60) once.
	r.add("search", 0, root, at(30), at(50))
	r.add("search", 0, root, at(40), at(60))
	// A child running past its parent is clipped to it.
	r.add("search", 0, root, at(90), at(120))
	// A grandchild is not a direct child: it does not count twice.
	kid := r.add("other", 0, root, at(70), at(80))
	r.add("deep", 0, kid, at(70), at(75))
	// Another op's span never counts.
	r.add("search", 1, -1, at(0), at(100))

	// 100 - (20 + 30 + 10 + 10) = 30
	if got := r.selfTime(root); got != 30*time.Millisecond {
		t.Errorf("selfTime(root) = %v, want 30ms", got)
	}
	if got := r.selfTime(kid); got != 5*time.Millisecond {
		t.Errorf("selfTime(kid) = %v, want 5ms", got)
	}
	if got := r.total("search"); got != (20+20+30+100)*time.Millisecond {
		t.Errorf("total(search) = %v, want 170ms", got)
	}
	if got := r.selfTotal("core.recommend"); got != 30*time.Millisecond {
		t.Errorf("selfTotal(core.recommend) = %v, want 30ms", got)
	}
}

// TestSmoke runs every workload, untraced and traced, at a tiny op
// count with all output checks on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for name, ops := range smokeOps {
		for _, traced := range []bool{false, true} {
			res, err := run(name, config{seed: 1, seconds: 1, ops: ops}, traced)
			if err != nil {
				t.Errorf("%s traced=%v: %v", name, traced, err)
			} else if !res.Correct || res.Failed > 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed", name, traced, res.Failed, res.Attempted)
			}
		}
	}
}
