package querylang_test

import (
	"testing"

	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/workload"
)

// TestLegPatternStringsPrecomputed checks that every leg pattern of the
// xmark, tpox and paper workloads carries its canonical string: String
// allocates nothing and equals a fresh rendering of the steps. Legs are
// the right-hand side of every relevance and index-matching probe, so a
// leg that re-renders on each call pays for it in the costing hot path.
func TestLegPatternStringsPrecomputed(t *testing.T) {
	for name, w := range map[string]*workload.Workload{
		"xmark": datagen.XMarkWorkload(40, 3),
		"tpox":  datagen.TPoXWorkload(30, 3, 40),
		"paper": datagen.XMarkPaperWorkload(),
	} {
		legs := 0
		for _, q := range w.QueryList() {
			for _, leg := range q.Legs() {
				p := leg.Pattern
				if fresh := (pattern.Pattern{Steps: p.Steps}).String(); p.String() != fresh {
					t.Errorf("%s: leg %s has canonical string %q", name, fresh, p.String())
				}
				if n := testing.AllocsPerRun(10, func() { _ = p.String() }); n != 0 {
					t.Errorf("%s: String on leg %s allocates %v times", name, p, n)
				}
				legs++
			}
		}
		if legs == 0 {
			t.Errorf("%s: no legs", name)
		}
	}
}

// TestTrimmedLegCapsSteps checks that the text() trim in Legs caps the
// trimmed steps, so appending to a trimmed leg pattern copies instead of
// writing into the backing array of the untrimmed pattern.
func TestTrimmedLegCapsSteps(t *testing.T) {
	q, err := querylang.ParseXQuery(`for $i in collection("auction")/site/regions/namerica/item where $i/name/text() = "x" return $i`)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, leg := range q.Legs() {
		p := leg.Pattern
		if p.String() != "/site/regions/namerica/item/name" {
			continue
		}
		found = true
		if cap(p.Steps) != len(p.Steps) {
			t.Errorf("trimmed leg %s has %d steps but capacity %d", p, len(p.Steps), cap(p.Steps))
		}
	}
	if !found {
		t.Fatalf("no trimmed name leg among %v", q.Legs())
	}
}
