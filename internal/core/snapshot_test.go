package core

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/optimizer"
	"repro/internal/querylang"
	"repro/internal/snapshot"
	"repro/internal/store"
	"repro/internal/whatif"
)

// xmarkStoreFixture is xmarkFixture keeping the store, so tests can
// mutate collections to invalidate statistics versions.
func xmarkStoreFixture(t testing.TB, docs int) (*store.Store, *catalog.Catalog) {
	t.Helper()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: docs, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	return st, catalog.New(st)
}

// renderRec projects a Recommendation onto everything a restored
// session must reproduce byte-for-byte: configuration, DDL, exact
// costs, per-query analysis, the candidate space, and the original
// pipeline stats. Volatile run-local fields (timings, cache counter
// windows, traces) are deliberately absent.
func renderRec(t *testing.T, rec *Recommendation) string {
	t.Helper()
	var sb strings.Builder
	fmt.Fprintf(&sb, "names=%v\npages=%d\n", rec.Names, rec.TotalPages)
	for _, ddl := range rec.DDL {
		fmt.Fprintln(&sb, ddl)
	}
	fmt.Fprintf(&sb, "qb=%v uc=%v net=%v\n", rec.QueryBenefit, rec.UpdateCost, rec.NetBenefit)
	for _, qa := range rec.PerQuery {
		fmt.Fprintf(&sb, "q %s w=%v c0=%v cr=%v co=%v used=%v\n",
			qa.ID, qa.Weight, qa.CostNoIndexes, qa.CostRecommended, qa.CostOvertrained, qa.IndexesUsed)
	}
	for _, c := range rec.Config {
		fmt.Fprintf(&sb, "cfg %d %s\n", c.ID, c.Key())
	}
	for _, b := range rec.Basics {
		fmt.Fprintf(&sb, "basic %d %s\n", b.ID, b.Key())
	}
	sb.WriteString(rec.DAG.Render())
	gen, err := json.Marshal(rec.Gen)
	if err != nil {
		t.Fatal(err)
	}
	sb.Write(gen)
	fmt.Fprintf(&sb, "\nrelevance=%+v\n", rec.Relevance)
	return sb.String()
}

func TestPreparedSaveLoadParity(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 300)
	ctx := context.Background()
	w := datagen.XMarkPaperWorkload()
	strategies := []string{"greedy-heuristic", "topdown", "greedy-basic"}

	a := New(cat, DefaultOptions())
	p1, err := a.Prepare(ctx, w)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, k := range strategies {
		rec, err := p1.RecommendWith(ctx, k, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		want[k] = renderRec(t, rec)
	}
	m1, err := p1.BenefitMatrix(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := p1.Save(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh advisor (cold engine, same catalog and options) restores
	// and must recommend byte-identically with zero CostService calls.
	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	evalsAfterLoad := b.CostEngine().Stats().Evaluations
	if evalsAfterLoad != 0 {
		t.Errorf("restore issued %d CostService calls, want 0 (base costs must come from imported atoms)", evalsAfterLoad)
	}
	for _, k := range strategies {
		rec, err := p2.RecommendWith(ctx, k, 0, nil)
		if err != nil {
			t.Fatalf("restored %s: %v", k, err)
		}
		if got := renderRec(t, rec); got != want[k] {
			t.Errorf("%s: restored recommendation differs from original:\n--- original ---\n%s\n--- restored ---\n%s", k, want[k], got)
		}
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restored recommends issued %d CostService calls, want 0 (warm cache)", evals)
	}
	m2, err := p2.BenefitMatrix(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("restored benefit matrix differs from original")
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restored benefit matrix issued %d CostService calls, want 0 (seeded from snapshot)", evals)
	}
}

// planRecorder is the advisor-mode optimizer service that also keeps,
// per atom key, the plan rendering that snapshot atoms carried before
// the what-if path stopped rendering plans.
type planRecorder struct {
	*whatif.OptimizerService
	mu    sync.Mutex
	plans map[string]string
}

func (r *planRecorder) EvaluateQuery(ctx context.Context, q *querylang.Query, config []*catalog.IndexDef) (whatif.QueryEval, error) {
	res, err := r.Opt.EvaluateIndexes(q, config, r.VirtualOnly)
	if err != nil {
		return whatif.QueryEval{}, err
	}
	prefix := whatif.NewEngine(r.OptimizerService, whatif.Options{NoProjection: true}).
		Bind([]*querylang.Query{q}).KeyPrefixes()[0]
	r.mu.Lock()
	r.plans[prefix+whatif.ConfigKey(config)] = res.Plan.Describe()
	r.mu.Unlock()
	return r.OptimizerService.EvaluateQuery(ctx, q, config)
}

// TestRestoreIgnoresV1PlanText checks that a fresh Save writes empty
// plan text and that a snapshot whose atoms carry plan text, as older
// builds wrote it, still restores to a byte-identical recommendation
// with zero CostService calls.
func TestRestoreIgnoresV1PlanText(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	opt := optimizer.New(cat)
	rec := &planRecorder{OptimizerService: whatif.NewOptimizerService(opt), plans: map[string]string{}}
	a := NewWithService(cat, DefaultOptions(), rec, opt)
	p1, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	r1, err := p1.RecommendWith(ctx, "greedy-heuristic", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := renderRec(t, r1)

	var fresh bytes.Buffer
	if err := p1.Save(&fresh); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.Decode(bytes.NewReader(fresh.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Atoms) == 0 {
		t.Fatal("snapshot carries no atoms")
	}
	for i := range snap.Atoms {
		at := &snap.Atoms[i]
		if at.PlanDesc != "" {
			t.Fatalf("fresh Save wrote plan text %q for atom %q", at.PlanDesc, at.Key)
		}
		plan, ok := rec.plans[at.Key]
		if !ok {
			t.Fatalf("no recorded plan for atom %q", at.Key)
		}
		at.PlanDesc = plan
	}
	var old bytes.Buffer
	if err := snapshot.Encode(&old, snap); err != nil {
		t.Fatal(err)
	}
	t.Logf("snapshot: %d bytes fresh, %d bytes with plan text", fresh.Len(), old.Len())

	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(old.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := p2.RecommendWith(ctx, "greedy-heuristic", 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := renderRec(t, r2); got != want {
		t.Errorf("recommendation restored from plan-text snapshot differs:\n--- original ---\n%s\n--- restored ---\n%s", want, got)
	}
	if evals := b.CostEngine().Stats().Evaluations; evals != 0 {
		t.Errorf("restore and recommend issued %d CostService calls, want 0", evals)
	}
}

func TestSaveWithoutBenefitMatrixOmitsSection(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := snapshot.Inspect(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.BenefitRows != 0 {
		t.Error("benefit section present though the matrix was never built")
	}
	if info.Atoms == 0 || info.Candidates == 0 {
		t.Errorf("unexpectedly empty snapshot: %+v", info)
	}
	// Restore still works and can build the matrix on demand.
	b := New(cat, DefaultOptions())
	p2, err := b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.BenefitMatrix(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestLoadPreparedOptionsMismatch(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Generalize = false
	b := New(cat, opts)
	_, err = b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("LoadPrepared = %v, want ErrSnapshotMismatch", err)
	}
	var me *SnapshotMismatchError
	if !errors.As(err, &me) || me.Field != "options" {
		t.Fatalf("LoadPrepared = %v, want options SnapshotMismatchError", err)
	}
}

// TestOptionsFingerprintPinned pins the snapshot options fingerprint
// format. Snapshot files store it, and a changed rendering for the same
// options would make every persisted session fall back to a cold
// prepare.
func TestOptionsFingerprintPinned(t *testing.T) {
	cat := catalog.New(store.New())
	rules := DefaultOptions()
	rules.Rules = "lub,leaf,axis"
	off := DefaultOptions()
	off.Generalize = false
	for _, tc := range []struct {
		opts Options
		want string
	}{
		{DefaultOptions(), "v1|src=optimizer|rules=default|minshared=1|maxcand=400|noproj=false"},
		{rules, "v1|src=optimizer|rules=lub,leaf,axis|minshared=1|maxcand=400|noproj=false"},
		{off, "v1|src=optimizer|rules=none|minshared=1|maxcand=400|noproj=false"},
	} {
		if got := New(cat, tc.opts).optionsFingerprint(); got != tc.want {
			t.Errorf("fingerprint = %q, want %q", got, tc.want)
		}
	}
}

func TestLoadPreparedStaleCatalog(t *testing.T) {
	st, cat := xmarkStoreFixture(t, 120)
	ctx := context.Background()
	a := New(cat, DefaultOptions())
	p, err := a.Prepare(ctx, datagen.XMarkPaperWorkload())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The collection changes after the save: cached costs are stale.
	if _, err := st.Get("auction").InsertXML("<site><regions/></site>"); err != nil {
		t.Fatal(err)
	}
	b := New(cat, DefaultOptions())
	_, err = b.LoadPrepared(ctx, bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrSnapshotMismatch) {
		t.Fatalf("LoadPrepared = %v, want ErrSnapshotMismatch", err)
	}
}

func TestLoadPreparedRejectsGarbage(t *testing.T) {
	_, cat := xmarkStoreFixture(t, 120)
	a := New(cat, DefaultOptions())
	_, err := a.LoadPrepared(context.Background(), strings.NewReader("not a snapshot at all"))
	if !errors.Is(err, snapshot.ErrNotSnapshot) {
		t.Fatalf("LoadPrepared = %v, want snapshot.ErrNotSnapshot", err)
	}
}
