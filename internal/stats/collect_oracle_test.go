package stats

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/pattern"
	"repro/internal/sqltype"
	"repro/internal/store"
)

// referenceCast is sqltype.Cast without its shape checks: every typed
// cast goes straight to strconv.ParseFloat or time.Parse. It repeats the
// reference cast of the sqltype tests, which another package's tests
// cannot import.
func referenceCast(t sqltype.Type, raw string) (sqltype.Value, bool) {
	switch t {
	case sqltype.Varchar:
		return sqltype.Value{Type: sqltype.Varchar, S: raw}, true
	case sqltype.Double:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return sqltype.Value{}, false
		}
		return sqltype.Value{Type: sqltype.Double, F: f}, true
	case sqltype.Date:
		s := strings.TrimSpace(raw)
		for _, layout := range []string{"2006-01-02", "2006-01-02T15:04:05", "2006/01/02"} {
			if tm, err := time.Parse(layout, s); err == nil {
				return sqltype.Value{Type: sqltype.Date, F: float64(tm.Unix()) / 86400.0}, true
			}
		}
		return sqltype.Value{}, false
	}
	return sqltype.Value{}, false
}

// generatedCollections returns the XMark collection and the three TPoX
// collections of the datagen generators.
func generatedCollections(t testing.TB, xmarkDocs int) []*store.Collection {
	t.Helper()
	st := store.New()
	xm, err := datagen.GenerateXMark(st, datagen.XMarkConfig{Docs: xmarkDocs, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := datagen.GenerateTPoX(st, datagen.TPoXConfig{Securities: 40, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	out := []*store.Collection{xm}
	for _, name := range datagen.TPoXCollections {
		out = append(out, st.Get(name))
	}
	return out
}

// TestCollectMatchesReferenceCast checks that RUNSTATS over the
// generated XMark and TPoX stores builds exactly the path statistics the
// reference cast gives: counts, bounds and samples alike.
func TestCollectMatchesReferenceCast(t *testing.T) {
	for _, c := range generatedCollections(t, 250) {
		got := Collect(c)
		cast = referenceCast
		want := Collect(c)
		cast = sqltype.Cast
		if len(got.Paths) != len(want.Paths) {
			t.Fatalf("%s: %d paths, reference %d", c.Name(), len(got.Paths), len(want.Paths))
		}
		var numeric, dates int64
		for path, ps := range want.Paths {
			if !reflect.DeepEqual(got.Paths[path], ps) {
				t.Errorf("%s %s: PathStat %+v, reference %+v", c.Name(), path, got.Paths[path], ps)
			}
			numeric += ps.NumericCount
			dates += ps.DateCount
		}
		t.Logf("%s: %d paths, %d numeric and %d date values", c.Name(), len(want.Paths), numeric, dates)
	}
}

// TestMatchingMatchesPathScan checks Matching over the snapshot's
// presorted, preparsed path list against a scan that sorts and parses
// every path again, for every path's own pattern and its wildcard and
// descendant generalizations.
func TestMatchingMatchesPathScan(t *testing.T) {
	for _, c := range generatedCollections(t, 60) {
		s := Collect(c)
		for _, path := range s.PathList() {
			p, err := pattern.Parse(path)
			if err != nil {
				t.Fatal(err)
			}
			pats := []pattern.Pattern{p}
			if leaf, ok := pattern.DescendantLeaf(p); ok {
				pats = append(pats, leaf)
			}
			for i := range p.Steps {
				if w, ok := pattern.WildcardAt(p, i); ok {
					pats = append(pats, w)
				}
			}
			for _, q := range pats {
				var want []*PathStat
				for _, cand := range s.PathList() {
					if pattern.MatchesPath(q, cand) {
						want = append(want, s.Paths[cand])
					}
				}
				if got := s.Matching(q); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s: Matching(%s) gives %d paths, scan %d", c.Name(), q, len(got), len(want))
				}
			}
		}
	}
}

// BenchmarkStatsCollect measures RUNSTATS over a 250-document XMark
// collection, the statistics an advise-cold recommendation collects.
func BenchmarkStatsCollect(b *testing.B) {
	c := generatedCollections(b, 250)[0]
	b.ReportAllocs()
	for b.Loop() {
		Collect(c)
	}
}
