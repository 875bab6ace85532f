package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// walkDocEntries counts the index entries document d contributes to
// candidate c the way the evaluator once did for every candidate: walk
// the document, render and match each node's rooted path, and cast
// each node's value. It is the oracle for docEntriesFor, which matches
// words parsed once per document and reads values only on a match.
func walkDocEntries(d *xmldoc.Document, c *candidate.Candidate) int {
	m := pattern.Compile(c.Pattern)
	n := 0
	d.Walk(func(nd *xmldoc.Node) bool {
		var raw string
		switch nd.Kind {
		case xmldoc.KindElement:
			raw = nd.Text()
		default:
			raw = nd.Value
		}
		if m.MatchPath(nd.RootPath()) {
			if _, ok := sqltype.Cast(c.Type, raw); ok {
				n++
			}
		}
		return true
	})
	return n
}

// TestDocEntriesMatchWalk checks docEntriesFor against walkDocEntries
// for every insert document and every candidate of the xmark, tpox and
// paper workloads, with each candidate tried under all three SQL types.
func TestDocEntriesMatchWalk(t *testing.T) {
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 120, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: 30, Seed: 11}); err != nil {
		t.Fatal(err)
	}
	xmark := datagen.XMarkWorkload(20, 5)
	datagen.XMarkUpdates(xmark, 50, 5)
	tpox := datagen.TPoXWorkload(20, 5, 30)
	datagen.TPoXUpdates(tpox, 50, 5, 30)
	paper := datagen.XMarkPaperWorkload()
	datagen.XMarkUpdates(paper, 50, 7)
	for name, w := range map[string]*workload.Workload{"xmark": xmark, "tpox": tpox, "paper": paper} {
		p, err := New(catalog.New(st), DefaultOptions()).Prepare(context.Background(), w)
		if err != nil {
			t.Fatal(err)
		}
		inserts, entries := 0, 0
		for ui, u := range w.Updates {
			if u.Kind != workload.UpdateInsert {
				continue
			}
			inserts++
			d, err := xmldoc.ParseString(u.DocXML)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range p.set.All {
				for _, ty := range sqltype.Types {
					typed := *c
					typed.Type = ty
					got, want := docEntriesFor(p.ev.insertDocs[ui], &typed), walkDocEntries(d, &typed)
					if got != want {
						t.Fatalf("%s: insert %d, %s AS %v: %d entries, walk gives %d", name, ui, c.Pattern, ty, got, want)
					}
					entries += got
				}
			}
		}
		if inserts == 0 || entries == 0 {
			t.Fatalf("%s: %d inserts with %d entries in all; the test checks nothing", name, inserts, entries)
		}
	}
}

// referenceUpdateCost recomputes a configuration's maintenance cost from
// first principles — uncached pattern.Overlaps, per-call Compile — as
// the oracle for the kernel-backed updateCost path (OverlapsCached,
// interned matchers, memoized entry counts).
func referenceUpdateCost(t *testing.T, a *Advisor, w *workload.Workload, cfg []*candidate.Candidate) float64 {
	t.Helper()
	var total float64
	for _, u := range w.Updates {
		for _, c := range cfg {
			if c.Collection != u.Collection {
				continue
			}
			switch u.Kind {
			case workload.UpdateInsert:
				d, err := xmldoc.ParseString(u.DocXML)
				if err != nil {
					t.Fatal(err)
				}
				total += u.Weight * float64(walkDocEntries(d, c)) * a.maintPerEntry
			case workload.UpdateDelete:
				st, err := a.cat.Stats(u.Collection)
				if err != nil || st.Docs == 0 {
					continue
				}
				perDoc := float64(c.Def.EstEntries) / float64(st.Docs)
				if u.Path != nil && !pattern.Overlaps(docScope(u.Path.LinearPattern()), docScope(c.Pattern)) {
					continue
				}
				total += u.Weight * perDoc * a.maintPerEntry
			}
		}
	}
	return total
}

// TestUpdateBenefitUnchangedByKernelCache checks the kernel-cached
// update-cost path (OverlapsCached through the containment kernel)
// produces exactly the same maintenance charges as the uncached
// reference, on a workload with both inserts and path-scoped deletes.
func TestUpdateBenefitUnchangedByKernelCache(t *testing.T) {
	cat := xmarkFixture(t, 200)
	w := datagen.XMarkWorkload(8, 3)
	datagen.XMarkUpdates(w, 300, 3)
	// A delete whose path shares no document root with any candidate
	// exercises the non-overlapping branch too.
	if err := w.AddDelete(50, "auction", "/other_root/thing"); err != nil {
		t.Fatal(err)
	}

	a := New(cat, DefaultOptions())
	rec, err := recommend(a, w)
	if err != nil {
		t.Fatal(err)
	}
	if rec.UpdateCost <= 0 {
		t.Fatal("workload with updates charged no maintenance cost")
	}
	want := referenceUpdateCost(t, a, w, rec.Config)
	if math.Abs(rec.UpdateCost-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("update cost through kernel cache = %v, reference = %v", rec.UpdateCost, want)
	}

	// A second advisor over the now-warm process-wide kernel must charge
	// identical costs (cached Overlaps results replay correctly).
	rec2, err := recommend(New(cat, DefaultOptions()), w)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.UpdateCost != rec.UpdateCost {
		t.Fatalf("update cost changed on warm kernel: %v vs %v", rec2.UpdateCost, rec.UpdateCost)
	}
}
