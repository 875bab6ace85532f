package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/advisor"
	"repro/advisor/server"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/store"
)

// xiad-sessions: an in-process xiad over loopback HTTP, driven by a
// closed loop of xiadClients clients, each on one keep-alive
// connection. Statistics are collected once, in set-up, over one shared
// catalog. Every round, each client opens a session on a workload from
// a seeded pool of 32 (16 made the median open and recommend move with
// the pool's mix of cheap and expensive workloads), sends four
// recommends that sweep the strategies across budgets, waits at a
// barrier where the benchmark evicts every idle session to the snapshot
// directory, sends four more (the first repeats the last request before
// eviction and resumes the session from disk), and deletes the session.
// Both clients run the same interleaved XMark/TPoX mix, so neither
// holds all the expensive sessions.
const (
	xiadClients      = 2
	xiadPool         = 32
	xiadXMarkQueries = 20
	xiadTPoXQueries  = 18
	xiadDocs         = 250
	xiadSecurities   = 50
	// xiadRecsPerRound is each client's recommends per round.
	xiadRecsPerRound = 8
	// whatifCacheCap is the advisor's default what-if atom cap.
	whatifCacheCap = 1 << 16
)

// xiadRoundKinds interleaves XMark and TPoX rounds. The mix is uneven
// on purpose: restored TPoX sessions open about twice as fast as XMark
// ones, and an even split would put the median open between the two
// clusters, where it jumps from run to run.
const xiadRoundKinds = "XTXXTXTX"

// xiadBudgetsKB are the budgets the recommends sweep.
var xiadBudgetsKB = []int64{64, 128, 256, 512}

// xiadPlan is one client's round: the strategies before and after the
// eviction barrier. The first request after the barrier repeats the
// last one before it.
var xiadPlan = struct{ pre, post []string }{
	pre:  []string{"greedy-heuristic", "lp", "topdown", "race"},
	post: []string{"race", "greedy-heuristic", "lp", "topdown"},
}

type xiadSessions struct {
	meter   *costMeter
	srv     *server.Server
	hs      *http.Server
	served  chan struct{}
	base    string
	clock   fakeClock
	clients []*http.Client
	pool    []xiadWorkload
	snapDir string
	setups  int
}

type xiadWorkload struct{ name, text string }

// fakeClock is the server's clock: real time plus an offset the run
// advances to make every session idle at the eviction barrier.
type fakeClock struct{ off atomic.Int64 }

func (c *fakeClock) now() time.Time { return time.Now().Add(time.Duration(c.off.Load())) }

func (x *xiadSessions) setup(cfg config) error {
	x.setups++
	x.snapDir = filepath.Join(cfg.dir, fmt.Sprintf("snap-%d", x.setups))
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: xiadDocs, Seed: 1}); err != nil {
		return err
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: xiadSecurities, Seed: 1}); err != nil {
		return err
	}
	cat := catalog.New(st)
	for _, coll := range append([]string{"auction"}, datagen.TPoXCollections...) {
		if _, err := cat.Stats(coll); err != nil {
			return err
		}
	}
	x.meter = &costMeter{}
	adv, err := advisor.New(cat, advisor.WithSnapshotDir(x.snapDir), x.meter.wrapper())
	if err != nil {
		return err
	}
	x.clock = fakeClock{}
	x.srv = server.New(adv, server.Options{IdleTTL: time.Hour, Now: x.clock.now})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	x.base = "http://" + ln.Addr().String()
	x.hs = &http.Server{Handler: x.srv}
	x.served = make(chan struct{})
	go func() {
		defer close(x.served)
		_ = x.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	x.clients = make([]*http.Client, xiadClients)
	for i := range x.clients {
		x.clients[i] = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	}
	x.pool = make([]xiadWorkload, xiadPool)
	for i := range x.pool {
		s := cfg.seed*1000 + int64(i)
		// In every round both clients open the same kind of workload,
		// XMark in five rounds of eight and TPoX in the other three.
		if xiadRoundKinds[(i/xiadClients)%len(xiadRoundKinds)] == 'X' {
			x.pool[i] = xiadWorkload{fmt.Sprintf("xmark-%d", i), datagen.XMarkWorkload(xiadXMarkQueries, s).Format()}
		} else {
			x.pool[i] = xiadWorkload{fmt.Sprintf("tpox-%d", i), datagen.TPoXWorkload(xiadTPoXQueries, s, xiadSecurities).Format()}
		}
	}
	// Warm-up: each client opens, recommends on and deletes one
	// workload outside the pool, the same for every seed.
	var wg sync.WaitGroup
	errs := make([]error, xiadClients)
	for c := range x.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := xiadWorkload{"warm", datagen.XMarkWorkload(xiadXMarkQueries, warmSeed-int64(c)).Format()}
			errs[c] = x.warm(x.clients[c], w)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

func (x *xiadSessions) warm(c *http.Client, w xiadWorkload) error {
	var info server.SessionInfo
	if _, _, err := x.call(c, "POST", "/v1/sessions", server.CreateSessionRequest{Name: w.name, Workload: w.text}, &info); err != nil {
		return err
	}
	var resp advisor.RecommendResponse
	if _, _, err := x.call(c, "POST", "/v1/sessions/"+info.ID+"/recommend", advisor.RecommendRequest{}, &resp); err != nil {
		return err
	}
	_, _, err := x.call(c, "DELETE", "/v1/sessions/"+info.ID, nil, nil)
	return err
}

func (x *xiadSessions) close() {
	if x.hs == nil {
		return
	}
	for _, c := range x.clients {
		c.CloseIdleConnections()
	}
	_ = x.hs.Close() // the listener and connections go with it
	<-x.served
	x.hs = nil
	os.RemoveAll(x.snapDir)
}

// call sends one JSON request and decodes a 2xx answer into out. It
// returns the status and the round trip (request written to body read).
func (x *xiadSessions) call(c *http.Client, method, path string, body, out any) (int, time.Duration, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, 0, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, x.base+path, rd)
	if err != nil {
		return 0, 0, err
	}
	t := time.Now()
	resp, err := c.Do(req)
	if err != nil {
		return 0, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := time.Since(t)
	if err != nil {
		return resp.StatusCode, rt, err
	}
	if resp.StatusCode/100 != 2 {
		return resp.StatusCode, rt, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return resp.StatusCode, rt, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return resp.StatusCode, rt, nil
}

// xiadClientState is one client's view of the timed phase; the run
// merges them after the clients finish.
type xiadClientState struct {
	pass
	// nets[r*xiadRecsPerRound+k] is the net benefit of the client's k-th
	// recommend in round r, so the merged order never depends on timing.
	nets []float64
}

func (x *xiadSessions) run(cfg config, traced bool) (*pass, error) {
	recs := cfg.opCount(workloads["xiad-sessions"].opsPerSecond)
	perRound := xiadClients * xiadRecsPerRound
	rounds := (recs + perRound - 1) / perRound
	x.meter.timed.Store(traced)

	states := make([]*xiadClientState, xiadClients)
	ready := make(chan string, xiadClients) // one session ID per client per round
	resume := make([]chan struct{}, xiadClients)
	for c := range states {
		states[c] = &xiadClientState{nets: make([]float64, rounds*xiadRecsPerRound)}
		resume[c] = make(chan struct{})
	}
	drv := &pass{}
	calls0, busy0 := x.meter.calls.Load(), x.meter.busy.Load()
	kernel0 := pattern.Stats()
	pr := startProbe()
	var wg sync.WaitGroup
	for c := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x.client(c, rounds, states[c], ready, resume[c], traced)
		}()
	}
	// The coordinator: at each round's barrier no request is in flight; make
	// every session idle and evict, which persists each to disk.
	for r := 0; r < rounds; r++ {
		ids := make([]string, 0, xiadClients)
		for range states {
			if id := <-ready; id != "" {
				ids = append(ids, id)
			}
		}
		x.clock.off.Add(int64(2 * time.Hour))
		persisted := x.srv.EvictedPersisted()
		t := time.Now()
		n := x.srv.EvictIdle()
		el := time.Since(t)
		if got := x.srv.EvictedPersisted() - persisted; n != len(ids) || got != int64(n) {
			drv.fail("round %d: evicted %d and persisted %d sessions, want %d", r, n, got, len(ids))
		}
		if traced {
			drv.layer("snapshot.persist_ms", ms(el))
			drv.layer("snapshot.persisted", float64(n))
			for _, id := range ids {
				if fi, err := os.Stat(filepath.Join(x.snapDir, "session-"+id+advisor.SnapshotExt)); err == nil {
					drv.layer("snapshot.bytes", float64(fi.Size()))
				}
			}
		}
		for _, ch := range resume {
			ch <- struct{}{}
		}
	}
	wg.Wait()
	p := drv
	p.rt = pr.finish()
	p.whatifCalls = x.meter.calls.Load() - calls0
	for _, s := range states {
		p.attempted += s.attempted
		p.failed += s.failed
		p.problems = append(p.problems, s.problems...)
		p.lat = append(p.lat, s.lat...)
		p.open = append(p.open, s.open...)
		for k, v := range s.layers {
			p.layer(k, v)
		}
	}
	for r := 0; r < rounds; r++ {
		for _, s := range states {
			p.nets = append(p.nets, s.nets[r*xiadRecsPerRound:(r+1)*xiadRecsPerRound]...)
		}
	}
	// Every count above is exact only while no atom was evicted.
	if n := x.meter.calls.Load(); n >= whatifCacheCap {
		p.fail("%d CostService calls reached the %d-atom what-if cache cap", n, whatifCacheCap)
	}
	if traced {
		p.meterCalls = p.whatifCalls
		k := pattern.Stats().Sub(kernel0)
		p.layer("pattern.kernel_hits", float64(k.Contains.Hits+k.Overlaps.Hits))
		p.layer("pattern.kernel_misses", float64(k.Contains.Misses+k.Overlaps.Misses))
		p.layer("optimizer.calls", float64(p.whatifCalls))
		p.layer("optimizer.busy_ms", ms(time.Duration(x.meter.busy.Load()-busy0)))
		// Atoms are inserted once per CostService call and evicted only
		// at the cap, so below it the lifetime call count is the
		// resident atom count.
		p.gauge("whatif.resident_atoms", float64(x.meter.calls.Load()))
		p.perEvent("snapshot.persist_ms", "snapshot.persisted")
		p.perEvent("snapshot.bytes", "snapshot.persisted")
		p.perEvent("snapshot.resume_request_ms", "snapshot.resumes")
	}
	return p, nil
}

// client runs one client's rounds.
func (x *xiadSessions) client(c, rounds int, s *xiadClientState, ready chan<- string, resume <-chan struct{}, traced bool) {
	hc := x.clients[c]
	for r := 0; r < rounds; r++ {
		w := x.pool[(r*xiadClients+c)%len(x.pool)]
		s.attempted++
		var info server.SessionInfo
		_, rt, err := x.call(hc, "POST", "/v1/sessions", server.CreateSessionRequest{Name: w.name, Workload: w.text}, &info)
		if err != nil {
			s.fail("client %d round %d: open: %v", c, r, err)
			// Keep the barrier protocol: report no session this round.
			ready <- ""
			<-resume
			continue
		}
		s.open = append(s.open, ms(rt))
		var last *advisor.RecommendResponse
		for k, strat := range xiadPlan.pre {
			req := advisor.RecommendRequest{Strategy: strat, BudgetKB: xiadBudgetsKB[(r+k)%len(xiadBudgetsKB)]}
			last = x.recommend(hc, c, r, k, info, req, s, traced)
		}
		ready <- info.ID
		<-resume
		for j, strat := range xiadPlan.post {
			k := len(xiadPlan.pre) + j
			req := advisor.RecommendRequest{Strategy: strat, BudgetKB: xiadBudgetsKB[(r+k+1)%len(xiadBudgetsKB)]}
			if j == 0 {
				req.BudgetKB = xiadBudgetsKB[(r+len(xiadPlan.pre)-1)%len(xiadBudgetsKB)]
			}
			t := time.Now()
			resp := x.recommend(hc, c, r, k, info, req, s, traced)
			if j == 0 {
				if traced {
					s.layer("snapshot.resume_request_ms", ms(time.Since(t)))
					s.layer("snapshot.resumes", 1)
				}
				if resp != nil && last != nil && normalized(resp) != normalized(last) {
					s.fail("client %d round %d: resumed session answered %s differently than before eviction", c, r, strat)
				}
			}
		}
		s.attempted++
		if _, _, err := x.call(hc, "DELETE", "/v1/sessions/"+info.ID, nil, nil); err != nil {
			s.fail("client %d round %d: delete: %v", c, r, err)
		}
	}
}

// recommend sends the k-th recommend of a round and checks the answer.
func (x *xiadSessions) recommend(hc *http.Client, c, r, k int, info server.SessionInfo, req advisor.RecommendRequest,
	s *xiadClientState, traced bool) *advisor.RecommendResponse {
	s.attempted++
	var resp advisor.RecommendResponse
	_, rt, err := x.call(hc, "POST", "/v1/sessions/"+info.ID+"/recommend", req, &resp)
	if err != nil {
		s.fail("client %d round %d: recommend %d: %v", c, r, k, err)
		return nil
	}
	if msg := checkResponse(&resp); msg != "" {
		s.fail("client %d round %d: recommend %d: %s", c, r, k, msg)
		return nil
	}
	s.lat = append(s.lat, ms(rt))
	s.nets[r*xiadRecsPerRound+k] = resp.NetBenefit
	if traced {
		s.layer("server.overhead_ms", ms(rt-resp.Search.Elapsed))
		s.layer("candidate.count", float64(resp.Candidates.Total))
		addSearchLayers(&s.pass, &resp)
		if k == 0 && info.RestoredFrom == "" {
			// A cold open ran the candidate pipeline; its stats ride on
			// every response of the session.
			addPipelineLayers(&s.pass, resp.Pipeline)
		}
	}
	return &resp
}

// normalized is a response's deterministic content: everything except
// wall clock and the run-local counters (cache, kernel, search
// accounting, evaluations), which differ between a cold and a resumed
// run of the same request.
func normalized(resp *advisor.RecommendResponse) string {
	c := *resp
	c.ElapsedMS = 0
	c.Cache = advisor.CacheStats{}
	c.Kernel = advisor.KernelStats{}
	c.Search = advisor.SearchStats{}
	c.Evaluations = 0
	c.Trace = nil
	b, err := json.Marshal(&c)
	if err != nil {
		return "unmarshalable: " + err.Error()
	}
	return string(b)
}
