package main

import (
	"errors"
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// median is the middle sample (mean of the two middle ones for an even
// count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail is the highest percentile with at least tailBeyond samples
// beyond it: the largest sample that tailBeyond samples strictly exceed.
// Without ties that is the (n-tailBeyond)-th smallest sample, whose
// percentile rank is 100*(n-tailBeyond)/n; ties at the cut move it down
// to the next smaller value. beyond is the number of samples strictly
// greater than the returned value.
func tail(xs []float64) (value, pct float64, beyond int, err error) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, 0, errors.New("tail: need more than 10 samples")
	}
	s := sorted(xs)
	cut := s[n-tailBeyond] // the tailBeyond-th largest sample
	j := sort.SearchFloat64s(s, cut) - 1
	if j < 0 {
		return 0, 0, 0, errors.New("tail: no sample has 10 larger ones")
	}
	return s[j], 100 * float64(j+1) / float64(n), n - (j + 1), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// span is one timed call into a layer. Parent is the index of the span
// that caused it in the recorder (-1 for a root); spans of one op share
// Op.
type span struct {
	Name       string
	Op         int
	Parent     int
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory for the length of a traced run. It is
// not safe for concurrent use; concurrent clients each own one.
type recorder struct {
	spans []span
}

// add records a finished span and returns its index, the handle
// children pass as their parent.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.spans = append(r.spans, span{Name: name, Op: op, Parent: parent, Start: start, End: end})
	return len(r.spans) - 1
}

// selfTime is span i's duration minus the part of its interval that
// its direct children cover. Overlapping children (parallel calls) are
// counted once, and children reaching outside the parent are clipped.
func (r *recorder) selfTime(i int) time.Duration {
	p := r.spans[i]
	type iv struct{ a, b time.Time }
	var kids []iv
	for _, c := range r.spans {
		if c.Parent != i {
			continue
		}
		a, b := c.Start, c.End
		if a.Before(p.Start) {
			a = p.Start
		}
		if b.After(p.End) {
			b = p.End
		}
		if b.After(a) {
			kids = append(kids, iv{a, b})
		}
	}
	sort.Slice(kids, func(x, y int) bool { return kids[x].a.Before(kids[y].a) })
	var covered time.Duration
	var curA, curB time.Time
	for j, k := range kids {
		switch {
		case j == 0:
			curA, curB = k.a, k.b
		case k.a.After(curB):
			covered += curB.Sub(curA)
			curA, curB = k.a, k.b
		case k.b.After(curB):
			curB = k.b
		}
	}
	if len(kids) > 0 {
		covered += curB.Sub(curA)
	}
	return p.dur() - covered
}

// total sums the durations of every span with the given name.
func (r *recorder) total(name string) time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			t += s.dur()
		}
	}
	return t
}

// selfTotal sums the self times of every span with the given name.
func (r *recorder) selfTotal(name string) time.Duration {
	var t time.Duration
	for i, s := range r.spans {
		if s.Name == name {
			t += r.selfTime(i)
		}
	}
	return t
}
