package sqltype

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// castOracle is Cast as it was before the shape checks: every typed
// cast goes straight to strconv.ParseFloat or time.Parse. It is the
// reference the fast-rejecting Cast must agree with on every input.
func castOracle(t Type, raw string) (Value, bool) {
	switch t {
	case Varchar:
		return Value{Type: Varchar, S: raw}, true
	case Double:
		f, err := strconv.ParseFloat(strings.TrimSpace(raw), 64)
		if err != nil {
			return Value{}, false
		}
		return Value{Type: Double, F: f}, true
	case Date:
		s := strings.TrimSpace(raw)
		for _, layout := range dateLayouts {
			if tm, err := time.Parse(layout, s); err == nil {
				return Value{Type: Date, F: float64(tm.Unix()) / 86400.0}, true
			}
		}
		return Value{}, false
	}
	return Value{}, false
}

// checkCastAgrees fails unless Cast and castOracle give the same result
// for raw under every type (floats compared bit for bit, so NaN and
// signed zeros count).
func checkCastAgrees(t *testing.T, raw string) {
	t.Helper()
	for _, ty := range Types {
		got, gotOK := Cast(ty, raw)
		want, wantOK := castOracle(ty, raw)
		if gotOK != wantOK || got.Type != want.Type || got.S != want.S ||
			math.Float64bits(got.F) != math.Float64bits(want.F) {
			t.Fatalf("Cast(%v, %q) = %+v, %v; oracle %+v, %v", ty, raw, got, gotOK, want, wantOK)
		}
	}
}

// castSeeds are inputs on both sides of the shape checks: spellings
// ParseFloat accepts despite an unusual first byte, hex and underscore
// forms, every date layout, and near misses on length and separator.
var castSeeds = []string{
	"", " ", "abc", "12abc", "1.5", " 42 ", "-3e2", " 1e3", "+.5", ".5", "-.5e-3",
	"inf", "+Inf", "-infinity", "Infinity", "NaN", "nan", "infx", "nope",
	"0x1p-2", "0X1P+2", "0x_1p0", "1_0", "_1", "0b101", "1e400", "4.9e-324",
	"2024-01-02", "2024/01/02", "2024-01-02T10:00:00", "2024-01-0", "-2024-01-02",
	" 2024-01-02 ", "2024-1-02", "2024-13-01", "2024-02-30", "20240102xx",
	"2024.01.02", "+202-01-02", "-202-01-02", "2024-01-02T10:00", "\t2008-06-09\n",
	" 12", "１２", "Mon Jan 2", "2024-01-02Z",
}

// FuzzCast checks the fast-rejecting Cast against castOracle; go test
// runs the seed corpus as a plain test.
func FuzzCast(f *testing.F) {
	for _, s := range castSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		checkCastAgrees(t, raw)
	})
}

// TestCastRejectAllocates pins the reason for the shape checks: text
// that cannot be a number or a date is rejected without allocating.
func TestCastRejectAllocates(t *testing.T) {
	for _, tc := range []struct {
		ty  Type
		raw string
	}{
		{Double, "Cairo"}, {Double, " $42 "}, {Double, "abc/def/ghi"},
		{Date, "Cairo"}, {Date, "2024-01-0"}, {Date, "20240102xx"}, {Date, "item number 42"},
	} {
		if n := testing.AllocsPerRun(100, func() { Cast(tc.ty, tc.raw) }); n != 0 {
			t.Errorf("Cast(%v, %q) allocates %v times", tc.ty, tc.raw, n)
		}
	}
}
