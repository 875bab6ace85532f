// Command perfbench is the advisor's benchmark: it runs one named
// workload against the public entry points, checks every output, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer
// metrics of a traced run) as the last line of standard output:
//
//	bash perfbench/run.sh -workload advise-cold -seed 1 -seconds 30 -trace 0
//
// run.sh builds this package (its own module, over the repository by a
// replace directive) into .bench_build/ and runs it from the repository
// root.
//
// Workloads (see workloads in this file and ledger.json for why each
// was chosen):
//
//	advise-cold    the xia one-shot path: parse, RUNSTATS, Advisor.Recommend
//	xiad-sessions  an in-process xiad under two keep-alive HTTP clients
//	scale-50k      lp Search over fresh 50k-candidate what-if spaces
//
// Each workload runs a fixed op sequence derived from -seed; -seconds
// sets its length through the workload's nominal op rate, never through
// the clock. -smoke runs every workload, each in its own process, at a
// tiny op count and fails unless all checks pass.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one run's parameters.
type config struct {
	seed    int64
	seconds int
	// ops overrides the op count derived from seconds (smoke runs).
	ops int
	// dir is the run's private scratch directory (snapshot files).
	dir string
}

// opCount is the fixed number of timed ops for a run: seconds at the
// workload's nominal rate, or the explicit override, and never too few
// for a tail percentile.
func (c config) opCount(perSecond float64) int {
	n := c.ops
	if n <= 0 {
		n = int(math.Ceil(float64(c.seconds) * perSecond))
	}
	return max(n, tailBeyond+1)
}

// repeats is how many ops at the end of a one-caller run rerun the
// run's first inputs: every other op gets an input of its own, so a run
// samples as many inputs as it can, and the repeats check that an input
// reproduces its CostService calls and net benefit exactly.
const repeats = 2

// inputs is the number of distinct inputs a run of n ops needs.
func inputs(n int) int { return n - repeats }

// repeatCheck remembers each input's first result and fails an op that
// reruns the input with a different one.
type repeatCheck map[int]struct {
	calls int64
	net   float64
}

func (rc repeatCheck) check(p *pass, i, input int, calls int64, net float64) {
	f, seen := rc[input]
	if !seen {
		rc[input] = struct {
			calls int64
			net   float64
		}{calls, net}
		return
	}
	if f.calls != calls || f.net != net {
		p.fail("op %d reruns input %d but made %d calls for net %v (first run: %d calls, net %v)",
			i, input, calls, net, f.calls, f.net)
	}
}

// pass is what one timed phase of a workload produced.
type pass struct {
	// lat and open are client-observed latencies in ms, one per
	// recommendation and per session open.
	lat, open []float64
	// attempted and failed count ops; problems describes each failure.
	attempted, failed int
	problems          []string
	// whatifCalls is the CostService call count of the timed phase,
	// from the program's own counters where they are exact.
	whatifCalls int64
	// meterCalls is the CostService wrapper's count (traced passes, and
	// every xiad-sessions pass).
	meterCalls int64
	// nets holds each recommendation's net benefit, in op order.
	nets []float64
	rt   probeResult
	// layers are per-layer sums over the pass, reported per
	// recommendation; gauges are per-layer values reported as they are
	// (traced passes only).
	layers, gauges map[string]float64
}

func (p *pass) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

func (p *pass) layer(name string, v float64) {
	if p.layers == nil {
		p.layers = map[string]float64{}
	}
	p.layers[name] += v
}

func (p *pass) gauge(name string, v float64) {
	if p.gauges == nil {
		p.gauges = map[string]float64{}
	}
	p.gauges[name] = v
}

// perEvent sets gauge name to the layer sum over the count of its
// events, another layer sum (0 when there were none).
func (p *pass) perEvent(name, events string) {
	if n := p.layers[events]; n > 0 {
		p.gauge(name, p.layers[name]/n)
	} else {
		p.gauge(name, 0)
	}
}

// workload runs set-ups and timed passes of one benchmark workload.
type workload interface {
	// setup builds everything the timed phase needs; the benchmark
	// calls it several times and keeps the last.
	setup(cfg config) error
	// run executes the fixed op sequence once, traced or not.
	run(cfg config, traced bool) (*pass, error)
	// close releases what setup built.
	close()
}

// workloads maps each workload name to its constructor and nominal op
// rate on the reference machine; the rate only turns -seconds into a
// fixed op count.
var workloads = map[string]struct {
	make         func() workload
	opsPerSecond float64
}{
	"advise-cold":   {func() workload { return &adviseCold{} }, 7},
	"xiad-sessions": {func() workload { return &xiadSessions{} }, 150},
	"scale-50k":     {func() workload { return &scale50k{} }, 2.5},
}

// setupRepeats is how many times set-up runs; setup_s is the median.
const setupRepeats = 7

// warmSeed generates the warm-up inputs. Op inputs derive from
// seed*1000+i, which never reaches it for any practical -seed.
const warmSeed int64 = -1 << 62

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: advise-cold, xiad-sessions, scale-50k")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "run length, through the workload's nominal op rate")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	ops := flag.Int("ops", 0, "override the op count (0 = from -seconds)")
	smoke := flag.Bool("smoke", false, "run every workload at a tiny op count, each in its own process")
	flag.Parse()
	if *smoke {
		os.Exit(runSmoke())
	}
	if _, err := run(*name, config{seed: *seed, seconds: *seconds, ops: *ops}, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// run runs one workload, prints its report and result line, and
// returns the result.
func run(name string, cfg config, traced bool) (*result, error) {
	spec, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	if cfg.seconds < 1 {
		return nil, fmt.Errorf("-seconds must be >= 1")
	}
	dir, err := os.MkdirTemp(".", ".perfbench-run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cfg.dir, err = filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	w := spec.make()
	defer w.close()
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		t := time.Now()
		if err := w.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	setupS := median(setups)
	fmt.Printf("set-up runs (s): %.3f\n", setups)

	base, err := w.run(cfg, false)
	if err != nil {
		return nil, err
	}
	res := result{Attempted: base.attempted, Failed: base.failed}
	var problems []string
	problems = append(problems, base.problems...)
	if !traced {
		res.Metrics, err = endToEnd(base, setupS)
		if err != nil {
			return nil, err
		}
	} else {
		// The traced pass runs on a fresh set-up so it starts from the
		// same state as the untraced one.
		w.close()
		if err := w.setup(cfg); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tr, err := w.run(cfg, true)
		if err != nil {
			return nil, err
		}
		res.Attempted += tr.attempted
		res.Failed += tr.failed
		problems = append(problems, tr.problems...)
		if msg := compareTraced(base, tr); msg != "" {
			res.Failed++
			problems = append(problems, msg)
		}
		res.Metrics = perLayer(base, tr)
	}
	res.Correct = res.Failed == 0
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "check failed:", p)
	}
	report(name, cfg, base, res)
	out, err := json.Marshal(res)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(out))
	return &res, nil
}

// compareTraced checks that tracing changed nothing the program
// decides: the wrapper saw exactly the untraced CostService call count,
// and every recommendation's net benefit repeats exactly.
func compareTraced(base, tr *pass) string {
	if tr.meterCalls != base.whatifCalls {
		return fmt.Sprintf("traced CostService wrapper counted %d calls, untraced run made %d"+
			" (see known_issues in perfbench/ledger.json)", tr.meterCalls, base.whatifCalls)
	}
	if tr.whatifCalls != base.whatifCalls {
		return fmt.Sprintf("whatif_calls differ between runs: %d untraced, %d traced", base.whatifCalls, tr.whatifCalls)
	}
	if len(tr.nets) != len(base.nets) {
		return fmt.Sprintf("recommendation counts differ between runs: %d vs %d", len(base.nets), len(tr.nets))
	}
	for i := range base.nets {
		if base.nets[i] != tr.nets[i] {
			return fmt.Sprintf("net benefit of recommendation %d differs between runs: %v vs %v", i, base.nets[i], tr.nets[i])
		}
	}
	return ""
}

func endToEnd(p *pass, setupS float64) (map[string]metric, error) {
	recs := float64(len(p.lat))
	if recs == 0 || len(p.open) == 0 {
		return nil, fmt.Errorf("no recommendations measured")
	}
	tailV, _, _, err := tail(p.lat)
	if err != nil {
		return nil, fmt.Errorf("recommend_tail_ms: %w (raise -seconds or -ops)", err)
	}
	var net float64
	for _, n := range p.nets {
		net += n
	}
	return map[string]metric{
		"recommend_p50_ms":  {median(p.lat), "ms"},
		"recommend_tail_ms": {tailV, "ms"},
		"open_p50_ms":       {median(p.open), "ms"},
		"throughput_rps":    {recs / p.rt.wall.Seconds(), "1/s"},
		"cpu_ms_per_op":     {ms(p.rt.cpu) / recs, "ms"},
		"whatif_calls":      {float64(p.whatifCalls) / recs, "count"},
		"net_benefit":       {net / float64(len(p.nets)), "cost"},
		"success_pct":       {100 * float64(p.attempted-p.failed) / float64(p.attempted), "%"},
		"peak_heap_mb":      {float64(p.rt.peakHeap()) / (1 << 20), "MB"},
		"setup_s":           {setupS, "s"},
	}, nil
}

// layerNames lists every per-layer metric with its unit. Each is per
// recommendation unless its workload reports it as a gauge (rates,
// per-event means, resident sizes). A layer a workload does not
// exercise reports 0.
var layerNames = []struct{ name, unit string }{
	{"stats.collect_ms", "ms"},
	{"querylang.parse_ms", "ms"},
	{"candidate.pipeline_ms", "ms"},
	{"candidate.matrix_ms", "ms"},
	{"candidate.count", "count"},
	{"candidate.matrix_pairs", "count"},
	{"pattern.kernel_hits", "count"},
	{"pattern.kernel_misses", "count"},
	{"optimizer.calls", "count"},
	{"optimizer.busy_ms", "ms"},
	{"whatif.hits", "count"},
	{"whatif.misses", "count"},
	{"whatif.projected_hits", "count"},
	{"whatif.hit_rate", "ratio"},
	{"whatif.resident_atoms", "count"},
	{"core.self_ms", "ms"},
	{"search.ms", "ms"},
	{"search.evals", "count"},
	{"search.rounds", "count"},
	{"search.eval_ms", "ms"},
	{"search.self_ms", "ms"},
	{"lp.benefits_ms", "ms"},
	{"lp.passes", "count"},
	{"snapshot.persist_ms", "ms"},
	{"snapshot.bytes", "bytes"},
	{"snapshot.resume_request_ms", "ms"},
	{"server.overhead_ms", "ms"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_mb_per_op", "MB"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"trace.overhead_pct", "%"},
}

func perLayer(base, tr *pass) map[string]metric {
	recs := float64(len(tr.lat))
	tr.layer("runtime.allocs_per_op", float64(tr.rt.allocs))
	tr.layer("runtime.alloc_mb_per_op", float64(tr.rt.bytes)/(1<<20))
	if h, m := tr.layers["whatif.hits"], tr.layers["whatif.misses"]; h+m > 0 {
		tr.gauge("whatif.hit_rate", h/(h+m))
	}
	tr.gauge("runtime.gc_cpu_frac", tr.rt.gcFrac())
	tr.gauge("trace.overhead_pct", 100*(tr.rt.wall.Seconds()/base.rt.wall.Seconds()-1))
	out := map[string]metric{}
	for _, l := range layerNames {
		v, ok := tr.gauges[l.name]
		if !ok {
			v = tr.layers[l.name] / recs
		}
		out[l.name] = metric{v, l.unit}
	}
	return out
}

// environment describes where a run was measured: CPU model, CPU and
// scheduler counts, Go version, and the commit the binary was built
// from (known when it was built inside a git checkout).
func environment() string {
	cpu := "unknown CPU"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fmt.Sprintf("%s, nproc %d, GOMAXPROCS %d, %s %s/%s, commit %s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
}

// report prints a human-readable summary (standard output, before the
// result line): the tail percentile and sample counts live here.
func report(name string, cfg config, p *pass, res result) {
	fmt.Println("env:", environment())
	fmt.Printf("workload %s seed %d: %d recommendations, %d opens, %d attempted, %d failed, timed phase %.2fs\n",
		name, cfg.seed, len(p.lat), len(p.open), res.Attempted, res.Failed, p.rt.wall.Seconds())
	if v, pct, beyond, err := tail(p.lat); err == nil {
		fmt.Printf("recommend_tail_ms = p%.1f = %.3f ms (%d samples beyond, %d samples)\n", pct, v, beyond, len(p.lat))
	}
	keys := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-28s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
}

// smokeOps is each workload's op count in a smoke run: the smallest
// that still yields a tail percentile (more than tailBeyond samples).
var smokeOps = map[string]int{"advise-cold": 12, "xiad-sessions": 3, "scale-50k": 11}

// runSmoke runs every workload, traced and untraced, each in its own
// process (the pattern-kernel caches are process-global), and reports
// whether every run exited cleanly with correct output.
func runSmoke() int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	code := 0
	for _, n := range names {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(self, "-workload", n, "-seed", "1", "-trace", traced,
				"-ops", strconv.Itoa(smokeOps[n]))
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			ok := err == nil && smokeCorrect(out)
			fmt.Printf("smoke %-14s trace=%s ok=%v\n", n, traced, ok)
			if !ok {
				code = 1
			}
		}
	}
	return code
}

func smokeCorrect(out []byte) bool {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return false
	}
	return res.Correct && res.Failed == 0 && res.Attempted > 0
}
