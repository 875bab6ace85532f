package main

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/search"
)

// runShell runs one shell command and returns what it printed.
func runShell(t *testing.T, line string) (string, error) {
	t.Helper()
	var buf strings.Builder
	sh := newShell(1)
	sh.out = bufio.NewWriter(&buf)
	err := sh.run(line)
	if ferr := sh.out.Flush(); ferr != nil {
		t.Fatal(ferr)
	}
	return buf.String(), err
}

// TestSearchSyntheticRows checks the synthetic strategy table: one row
// per registered strategy plus race-bounded, and nothing else.
func TestSearchSyntheticRows(t *testing.T) {
	out, err := runShell(t, "search -synthetic n=1000")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]int{}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "synthetic space:") || !strings.HasPrefix(lines[1], "strategy") {
		t.Fatalf("missing space line or table header:\n%s", out)
	}
	for _, ln := range lines[2:] {
		rows[strings.Fields(ln)[0]]++
	}
	want := append(search.Names(), "race-bounded")
	for _, name := range want {
		if rows[name] != 1 {
			t.Errorf("%d rows for %q, want 1:\n%s", rows[name], name, out)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("got rows %v, want exactly %v:\n%s", rows, want, out)
	}
	if strings.Contains(out, "greedy-eager") {
		t.Errorf("table still has a greedy-eager row:\n%s", out)
	}
}

// TestSearchRejectsNegativeBudget guards against a negative budget
// being treated as unlimited.
func TestSearchRejectsNegativeBudget(t *testing.T) {
	out, err := runShell(t, "search -synthetic n=1000 -5")
	if err == nil || !strings.Contains(err.Error(), "bad budget") {
		t.Fatalf("got error %v, want a bad budget error; output:\n%s", err, out)
	}
	if out != "" {
		t.Errorf("printed a table for a negative budget:\n%s", out)
	}
}

// TestEvaluateScreen pins the full EVALUATE INDEXES screen, plan line
// included, for one and for two virtual indexes over a small fixed
// XMark collection.
func TestEvaluateScreen(t *testing.T) {
	var buf strings.Builder
	sh := newShell(1)
	sh.out = bufio.NewWriter(&buf)
	run := func(line string) string {
		t.Helper()
		buf.Reset()
		if err := sh.run(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		if err := sh.out.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	run("gen xmark 30 7")

	const q1 = `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 return $i/name`
	want1 := `EXPLAIN MODE: EVALUATE INDEXES
query: ` + q1 + `
configuration (1 indexes):
  V1 [/site/regions/*/item/quantity on auction AS dbl, virtual, ~80 entries, ~1 pages]
cost without indexes:      65.76
cost with config:          33.07
benefit:                   32.69
plan: IXAND(1) cost=33.07 fetch=8.6 docscan=65.76
  IXSCAN V1 on /site/regions/namerica/item/quantity > 5 [sel=0.3226 entries=30 docsel=0.2875 cost=4.38 residual=true]
`
	if got := run("evaluate /site/regions/*/item/quantity:double :: " + q1); got != want1 {
		t.Errorf("one-index screen:\n%s\nwant:\n%s", got, want1)
	}

	const q2 = `for $i in collection("auction")/site/regions/namerica/item where $i/quantity > 5 and $i/name = "x" return $i/name`
	want2 := `EXPLAIN MODE: EVALUATE INDEXES
query: ` + q2 + `
configuration (2 indexes):
  V1 [/site/regions/*/item/quantity on auction AS dbl, virtual, ~80 entries, ~1 pages]
  V2 [/site/regions/namerica/item/name on auction AS str, virtual, ~31 entries, ~1 pages]
cost without indexes:      65.76
cost with config:           7.69
benefit:                   58.07
plan: IXAND(1) cost=7.69 fetch=1.1 docscan=65.76
  IXSCAN V2 on /site/regions/namerica/item/name = "x" [sel=0.0357 entries=1 docsel=0.0368 cost=4.01 residual=false]
`
	if got := run("evaluate /site/regions/*/item/quantity:double, /site/regions/namerica/item/name:varchar :: " + q2); got != want2 {
		t.Errorf("two-index screen:\n%s\nwant:\n%s", got, want2)
	}
}
