package optimizer

import (
	"sync"

	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/querylang"
	"repro/internal/sqltype"
)

// legSig is one deduplicated (pattern, index type) access signature of a
// query: the only two properties of a leg that bestAccess consults when
// deciding whether an index definition applies to it.
type legSig struct {
	pat pattern.Pattern
	typ sqltype.Type
}

// RelevantFilter returns a predicate reporting whether an index
// definition can influence the plan Optimize chooses for q. It mirrors
// the bestAccess applicability rule exactly — an index serves a leg iff
// its SQL type matches the leg's and its pattern contains the leg
// pattern (the PR 3 containment kernel) — over every non-output leg of
// the query. Lone disjuncts, which Optimize itself skips, are kept as a
// safe over-approximation, so dropping definitions the predicate
// rejects from a configuration is provably cost-preserving: the plan,
// its cost, and its index set are identical with or without them.
//
// The predicate is safe for concurrent use. The leg signatures are
// computed once up front, and the answer is memoized per definition: a
// search asks about the same candidates for every configuration it
// evaluates, so the containment kernel is probed once per definition.
// The memo lives as long as the predicate (the what-if scope that bound
// it) and assumes a definition's pattern and type do not change.
func RelevantFilter(q *querylang.Query) func(*catalog.IndexDef) bool {
	var sigs []legSig
	seen := map[string]bool{}
	for _, leg := range q.Legs() {
		if leg.Output {
			continue
		}
		typ, ok := typeForLeg(leg)
		if !ok {
			continue
		}
		key := leg.Pattern.String() + "\x00" + typ.Short()
		if seen[key] {
			continue
		}
		seen[key] = true
		sigs = append(sigs, legSig{pat: leg.Pattern, typ: typ})
	}
	var memo sync.Map // *catalog.IndexDef -> bool
	return func(def *catalog.IndexDef) bool {
		if v, ok := memo.Load(def); ok {
			return v.(bool)
		}
		rel := false
		for _, s := range sigs {
			if def.Type == s.typ && pattern.ContainsCached(def.Pattern, s.pat) {
				rel = true
				break
			}
		}
		memo.Store(def, rel)
		return rel
	}
}
