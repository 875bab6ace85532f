package optimizer

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
	"repro/internal/store"
)

// relevanceFixture returns an XMark workload's queries and a candidate
// space over them: every enumerated leg index plus its //leaf and
// single-wildcard generalizations, under the leg's SQL type.
func relevanceFixture(tb testing.TB) ([]*querylang.Query, []*catalog.IndexDef) {
	tb.Helper()
	st := store.New()
	if _, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: 60, Seed: 1}); err != nil {
		tb.Fatal(err)
	}
	cat := catalog.New(st)
	o := New(cat)
	stats, err := cat.Stats("auction")
	if err != nil {
		tb.Fatal(err)
	}
	queries := datagen.XMarkWorkload(40, 3).QueryList()
	var defs []*catalog.IndexDef
	seen := map[string]bool{}
	add := func(p pattern.Pattern, typ sqltype.Type) {
		key := p.String() + "|" + typ.Short()
		if seen[key] {
			return
		}
		seen[key] = true
		defs = append(defs, catalog.VirtualDef(fmt.Sprintf("C%d", len(defs)), "auction", p, typ, stats))
	}
	for _, q := range queries {
		cands, err := o.EnumerateIndexes(q)
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range cands {
			add(c.Pattern, c.Type)
			if leaf, ok := pattern.DescendantLeaf(c.Pattern); ok {
				add(leaf, c.Type)
			}
			for i := range c.Pattern.Steps {
				if w, ok := pattern.WildcardAt(c.Pattern, i); ok {
					add(w, c.Type)
				}
			}
		}
	}
	return queries, defs
}

// TestRelevantFilterMatchesApplicability checks the memoized predicate
// against the bestAccess applicability rule probed directly, over an
// XMark candidate space. Several goroutines ask about every definition
// at once, twice, so both the filling and the reading of the memo race.
func TestRelevantFilterMatchesApplicability(t *testing.T) {
	queries, defs := relevanceFixture(t)
	relevant := 0
	for _, q := range queries {
		want := make([]bool, len(defs))
		for i, def := range defs {
			for _, leg := range q.Legs() {
				if typ, _ := typeForLeg(leg); !leg.Output && def.Type == typ && pattern.Contains(def.Pattern, leg.Pattern) {
					want[i] = true
				}
			}
			if want[i] {
				relevant++
			}
		}
		f := RelevantFilter(q)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 2; round++ {
					for i, def := range defs {
						if got := f(def); got != want[i] {
							t.Errorf("round %d: RelevantFilter(%s)(%s AS %v) = %v, want %v", round, q.Text, def.Pattern, def.Type, got, want[i])
							return
						}
					}
				}
			}()
		}
		wg.Wait()
	}
	if relevant == 0 {
		t.Fatal("no relevant definitions; the test checks nothing")
	}
}

// BenchmarkRelevantFilter binds the relevance predicate of every query
// of a 40-query XMark workload and asks it about every candidate
// definition ten times, as a search projecting ten configurations over
// the whole candidate space would.
func BenchmarkRelevantFilter(b *testing.B) {
	queries, defs := relevanceFixture(b)
	b.ReportAllocs()
	for b.Loop() {
		for _, q := range queries {
			f := RelevantFilter(q)
			for round := 0; round < 10; round++ {
				for _, def := range defs {
					f(def)
				}
			}
		}
	}
}
