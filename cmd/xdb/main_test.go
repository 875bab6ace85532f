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
