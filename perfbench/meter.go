package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/advisor"
	"repro/internal/catalog"
	"repro/internal/querylang"
	"repro/internal/search"
	"repro/internal/whatif"
)

// costMeter wraps the what-if CostService (advisor.WithCostWrapper):
// it counts calls and, when timed, sums the time spent in them. It must
// not change what the engine does, so the service its wrapper option
// hands the engine also implements whatif.RelevanceService whenever the
// wrapped service does — without it the engine falls back to
// collection-only projection and issues an order of magnitude more
// calls.
type costMeter struct {
	inner whatif.CostService
	timed atomic.Bool
	calls atomic.Int64
	busy  atomic.Int64 // nanoseconds
}

func (m *costMeter) EvaluateQuery(ctx context.Context, q *querylang.Query, cfg []*catalog.IndexDef) (whatif.QueryEval, error) {
	m.calls.Add(1)
	if !m.timed.Load() {
		return m.inner.EvaluateQuery(ctx, q, cfg)
	}
	t := time.Now()
	ev, err := m.inner.EvaluateQuery(ctx, q, cfg)
	m.busy.Add(int64(time.Since(t)))
	return ev, err
}

// relevantCostMeter is a costMeter over a RelevanceService.
type relevantCostMeter struct {
	*costMeter
	rel whatif.RelevanceService
}

func (m relevantCostMeter) RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	return m.rel.RelevantFilter(q)
}

// wrapper returns the advisor option that routes the advisor's cost
// service through m.
func (m *costMeter) wrapper() advisor.Option {
	return advisor.WithCostWrapper(func(svc advisor.CostService) advisor.CostService {
		m.inner = svc
		if rel, ok := svc.(whatif.RelevanceService); ok {
			return relevantCostMeter{costMeter: m, rel: rel}
		}
		return m
	})
}

// evalMeter wraps search.Space.Eval and records every evaluation as a
// child span of the running Search span. Like costMeter, it keeps the
// batch fast path: newEvalMeter returns a search.BatchEvaluator
// whenever the wrapped evaluator is one.
type evalMeter struct {
	inner  search.Evaluator
	rec    *syncRecorder
	parent int
	op     int
	calls  atomic.Int64
}

func (m *evalMeter) Evaluate(ctx context.Context, cfg []*search.Candidate) (*search.Eval, error) {
	m.calls.Add(1)
	t := time.Now()
	ev, err := m.inner.Evaluate(ctx, cfg)
	m.rec.add("search.eval", m.op, m.parent, t, time.Now())
	return ev, err
}

func (m *evalMeter) Workers() int { return m.inner.Workers() }

type batchEvalMeter struct {
	*evalMeter
	batch search.BatchEvaluator
}

func (m batchEvalMeter) EvaluateBatch(ctx context.Context, base, cands []*search.Candidate) ([]*search.Eval, error) {
	m.calls.Add(int64(len(cands)))
	t := time.Now()
	evs, err := m.batch.EvaluateBatch(ctx, base, cands)
	m.rec.add("search.eval", m.op, m.parent, t, time.Now())
	return evs, err
}

func newEvalMeter(inner search.Evaluator, rec *syncRecorder, op, parent int) (search.Evaluator, *evalMeter) {
	m := &evalMeter{inner: inner, rec: rec, op: op, parent: parent}
	if b, ok := inner.(search.BatchEvaluator); ok {
		return batchEvalMeter{evalMeter: m, batch: b}, m
	}
	return m, m
}

// meterBenefits wraps search.Space.Benefits, recording each call as a
// child span of the Search span.
func meterBenefits(inner func(context.Context) (*whatif.BenefitMatrix, error), rec *syncRecorder, op, parent int) func(context.Context) (*whatif.BenefitMatrix, error) {
	if inner == nil {
		return nil
	}
	return func(ctx context.Context) (*whatif.BenefitMatrix, error) {
		t := time.Now()
		bm, err := inner(ctx)
		rec.add("lp.benefits", op, parent, t, time.Now())
		return bm, err
	}
}

// syncRecorder is a recorder shared by goroutines (a strategy may call
// its evaluator from several at once).
type syncRecorder struct {
	mu sync.Mutex
	recorder
}

func (r *syncRecorder) add(name string, op, parent int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorder.add(name, op, parent, start, end)
}

// probe measures the process over a timed phase: CPU from getrusage,
// allocation and GC CPU from runtime/metrics, and the live heap the last
// GC marked, sampled every millisecond.
type probe struct {
	cpu0    time.Duration
	rt0     []metrics.Sample
	stop    chan struct{}
	done    chan struct{}
	heap    []uint64
	started time.Time
}

type probeResult struct {
	wall, cpu     time.Duration
	allocs, bytes uint64
	// gcCPU and totalCPU are the runtime's CPU-seconds estimates.
	gcCPU, totalCPU float64
	// heap holds the live-heap samples.
	heap []uint64
}

// add accumulates another phase into r.
func (r *probeResult) add(o probeResult) {
	r.wall += o.wall
	r.cpu += o.cpu
	r.allocs += o.allocs
	r.bytes += o.bytes
	r.gcCPU += o.gcCPU
	r.totalCPU += o.totalCPU
	r.heap = append(r.heap, o.heap...)
}

func (r probeResult) gcFrac() float64 {
	if r.totalCPU > 0 {
		return r.gcCPU / r.totalCPU
	}
	return 0
}

// peakHeap is the 99th percentile of the live-heap samples: the peak
// the phase held for at least 1% of its time. The single highest sample
// depends on which in-flight requests one collection happened to catch,
// and moves from run to run far more than the heap the phase needs.
func (r probeResult) peakHeap() uint64 {
	if len(r.heap) == 0 {
		return 0
	}
	s := append([]uint64(nil), r.heap...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[(len(s)-1)*99/100]
}

var rtNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapBytes(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func startProbe() *probe {
	p := &probe{stop: make(chan struct{}), done: make(chan struct{})}
	heap := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	p.heap = append(p.heap, heapBytes(heap))
	go func() {
		defer close(p.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.heap = append(p.heap, heapBytes(heap))
			}
		}
	}()
	p.rt0 = readRuntime()
	p.cpu0 = cpuTime()
	p.started = time.Now()
	return p
}

func (p *probe) finish() probeResult {
	wall := time.Since(p.started)
	cpu := cpuTime() - p.cpu0
	rt1 := readRuntime()
	close(p.stop)
	<-p.done
	return probeResult{
		wall:     wall,
		cpu:      cpu,
		allocs:   rt1[0].Value.Uint64() - p.rt0[0].Value.Uint64(),
		bytes:    rt1[1].Value.Uint64() - p.rt0[1].Value.Uint64(),
		gcCPU:    rt1[2].Value.Float64() - p.rt0[2].Value.Float64(),
		totalCPU: rt1[3].Value.Float64() - p.rt0[3].Value.Float64(),
		heap:     p.heap,
	}
}
