package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/candidate"
	"repro/internal/catalog"
	"repro/internal/pattern"
	"repro/internal/search"
	"repro/internal/sqltype"
	"repro/internal/whatif"
	"repro/internal/workload"
	"repro/internal/xmldoc"
)

// evaluator computes workload benefits of candidate configurations. All
// what-if costing goes through the advisor's whatif engine, which fans
// per-query evaluations across a worker pool and memoizes configuration
// results; the evaluator only derives workload-level aggregates (weighted
// benefit, update cost, candidate usage) from the engine's per-query
// costs. It is safe for concurrent use, so searches can evaluate many
// configurations at once.
type evaluator struct {
	a *Advisor
	w *workload.Workload

	// bound scopes the engine to the workload's query list, with the
	// workload fingerprint precomputed.
	bound *whatif.Bound
	// baseCost[qi] is the document-scan cost of query qi.
	baseCost []float64
	// insertDocs caches, per update index, the nodes of the update's
	// sample document (nil for non-insert updates).
	insertDocs [][]docNode

	// entryMu guards the memoized per-(update, candidate) state behind
	// updateCost, shared across concurrent evals: entryCount holds
	// index-entry counts (the one expensive non-optimizer computation),
	// delOverlap holds delete-scope overlap decisions.
	entryMu    sync.Mutex
	entryCount map[[2]int]int
	delOverlap map[[2]int]bool
}

// configEval is the derived evaluation of one configuration.
type configEval struct {
	// queryCost[qi] is the estimated cost of query qi under the config.
	queryCost []float64
	// usedBy[qi] lists config candidate IDs used by query qi's plan.
	usedBy [][]int
	// QueryBenefit is the weighted query benefit (no update cost).
	QueryBenefit float64
	// UpdateCost is the weighted maintenance cost of the config.
	UpdateCost float64
	// Net is QueryBenefit - UpdateCost.
	Net float64
	// UsedSet is the set of candidate IDs used by at least one query.
	UsedSet map[int]bool
}

func (a *Advisor) newEvaluator(ctx context.Context, w *workload.Workload) (*evaluator, error) {
	ev := &evaluator{a: a, w: w, bound: a.cost.Bind(w.QueryList()),
		entryCount: map[[2]int]int{}, delOverlap: map[[2]int]bool{}}
	// The empty configuration gives every query's document-scan cost.
	base, err := ev.bound.EvaluateConfig(ctx, nil)
	if err != nil {
		return nil, err
	}
	for _, qe := range base.Queries {
		ev.baseCost = append(ev.baseCost, qe.CostNoIndexes)
	}
	for _, u := range w.Updates {
		var nodes []docNode
		if u.Kind == workload.UpdateInsert {
			d, err := xmldoc.ParseString(u.DocXML)
			if err != nil {
				return nil, fmt.Errorf("core: update document: %w", err)
			}
			nodes = docNodes(d)
		}
		ev.insertDocs = append(ev.insertDocs, nodes)
	}
	return ev, nil
}

// eval returns the evaluation of a configuration. The underlying
// per-query costs are memoized by the whatif engine; the derivation here
// is cheap (no optimizer calls).
func (ev *evaluator) eval(ctx context.Context, cfg []*candidate.Candidate) (*configEval, error) {
	defs := make([]*catalog.IndexDef, len(cfg))
	for i, c := range cfg {
		defs[i] = c.Def
	}
	res, err := ev.bound.EvaluateConfig(ctx, defs)
	if err != nil {
		return nil, err
	}
	return ev.derive(res, cfg), nil
}

// evalBatch evaluates base+{c} for a burst of candidates as one unit:
// the whole burst goes to the whatif engine's batch entry point in one
// dispatch, then each result gets the same cheap derivation as eval.
// Results are in cands order.
func (ev *evaluator) evalBatch(ctx context.Context, base, cands []*candidate.Candidate) ([]*configEval, error) {
	baseDefs := make([]*catalog.IndexDef, len(base))
	for i, c := range base {
		baseDefs[i] = c.Def
	}
	configs := make([][]*catalog.IndexDef, len(cands))
	cfgs := make([][]*candidate.Candidate, len(cands))
	for i, c := range cands {
		defs := make([]*catalog.IndexDef, 0, len(base)+1)
		defs = append(append(defs, baseDefs...), c.Def)
		configs[i] = defs
		cfg := make([]*candidate.Candidate, 0, len(base)+1)
		cfgs[i] = append(append(cfg, base...), c)
	}
	results, err := ev.bound.EvaluateConfigBatch(ctx, configs)
	if err != nil {
		return nil, err
	}
	out := make([]*configEval, len(cands))
	for i, res := range results {
		out[i] = ev.derive(res, cfgs[i])
	}
	return out, nil
}

// degradedEval is the conservative fallback evaluation for assembling a
// degraded recommendation when the what-if backend is unavailable
// (circuit breaker open) and a configuration's atoms are not all
// cached: every query is priced at its document-scan base cost (no
// measured improvement), no index usage is claimed, and only the
// locally computed maintenance cost is charged. For the empty
// configuration this is exact; otherwise it underclaims, never
// overclaims.
func (ev *evaluator) degradedEval(cfg []*candidate.Candidate) *configEval {
	out := &configEval{
		queryCost: append([]float64(nil), ev.baseCost...),
		usedBy:    make([][]int, len(ev.baseCost)),
		UsedSet:   map[int]bool{},
	}
	out.UpdateCost = ev.updateCost(cfg)
	out.Net = -out.UpdateCost
	return out
}

// derive turns the engine's per-query costs into the workload-level
// aggregates (weighted benefit, update cost, candidate usage). No
// optimizer calls.
func (ev *evaluator) derive(res *whatif.ConfigEval, cfg []*candidate.Candidate) *configEval {
	defByName := make(map[string]int, len(cfg))
	for _, c := range cfg {
		defByName[c.Def.Name] = c.ID
	}
	out := &configEval{UsedSet: map[int]bool{}}
	for qi, e := range ev.w.Queries {
		qe := res.Queries[qi]
		out.queryCost = append(out.queryCost, qe.Cost)
		var used []int
		for _, name := range qe.UsedIndexes {
			if id, ok := defByName[name]; ok {
				used = append(used, id)
				out.UsedSet[id] = true
			}
		}
		out.usedBy = append(out.usedBy, used)
		out.QueryBenefit += e.Weight * (ev.baseCost[qi] - qe.Cost)
	}
	out.UpdateCost = ev.updateCost(cfg)
	out.Net = out.QueryBenefit - out.UpdateCost
	return out
}

// searchEvaluator adapts the advisor's evaluator to the search layer's
// Evaluator interface: configuration evaluations become the
// workload-level aggregates strategies rank by. It is safe for
// concurrent use (the evaluator is).
type searchEvaluator struct {
	ev *evaluator
}

// Evaluate prices the configuration for the search layer.
func (s searchEvaluator) Evaluate(ctx context.Context, cfg []*candidate.Candidate) (*search.Eval, error) {
	e, err := s.ev.eval(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return &search.Eval{
		QueryBenefit: e.QueryBenefit,
		UpdateCost:   e.UpdateCost,
		Net:          e.Net,
		Used:         e.UsedSet,
	}, nil
}

// EvaluateBatch prices base+{c} for a whole burst of candidates in one
// whatif-engine dispatch — the search layer's BatchEvaluator fast path.
func (s searchEvaluator) EvaluateBatch(ctx context.Context, base, cands []*search.Candidate) ([]*search.Eval, error) {
	evals, err := s.ev.evalBatch(ctx, base, cands)
	if err != nil {
		return nil, err
	}
	out := make([]*search.Eval, len(evals))
	for i, e := range evals {
		out[i] = &search.Eval{
			QueryBenefit: e.QueryBenefit,
			UpdateCost:   e.UpdateCost,
			Net:          e.Net,
			Used:         e.UsedSet,
		}
	}
	return out, nil
}

// Workers is the what-if engine's evaluation parallelism.
func (s searchEvaluator) Workers() int { return s.ev.a.cost.Workers() }

// updateCost charges each update statement for the index entries it
// would add or remove in every configuration index (paper §1: "taking
// into account the cost of updating the index on data modification").
func (ev *evaluator) updateCost(cfg []*candidate.Candidate) float64 {
	if len(ev.w.Updates) == 0 {
		return 0
	}
	perEntry := ev.a.maintPerEntry
	var total float64
	for ui, u := range ev.w.Updates {
		var deleteScope pattern.Pattern
		if u.Kind == workload.UpdateDelete && u.Path != nil {
			deleteScope = docScope(u.Path.LinearPattern())
		}
		for _, c := range cfg {
			if c.Collection != u.Collection {
				continue
			}
			switch u.Kind {
			case workload.UpdateInsert:
				if ev.insertDocs[ui] == nil {
					continue
				}
				total += u.Weight * float64(ev.docEntries(ui, c)) * perEntry
			case workload.UpdateDelete:
				// Deleting a document removes its entries from every
				// index; estimate with the index's average entries per
				// document, restricted to docs the delete path selects
				// (approximated by full overlap when patterns intersect).
				st, err := ev.a.cat.Stats(u.Collection)
				if err != nil || st.Docs == 0 {
					continue
				}
				perDoc := float64(c.Def.EstEntries) / float64(st.Docs)
				if u.Path != nil && !ev.deleteOverlaps(ui, deleteScope, c) {
					continue
				}
				total += u.Weight * perDoc * perEntry
			}
		}
	}
	return total
}

// deleteOverlaps is the memoized per-(update, candidate) decision of
// whether update ui's delete scope shares a document root with
// candidate c's pattern; updateCost runs once per configuration
// evaluation, so the docScope rendering and kernel lookup are paid at
// most once per pair.
func (ev *evaluator) deleteOverlaps(ui int, scope pattern.Pattern, c *candidate.Candidate) bool {
	key := [2]int{ui, c.ID}
	ev.entryMu.Lock()
	v, ok := ev.delOverlap[key]
	ev.entryMu.Unlock()
	if ok {
		return v
	}
	v = pattern.OverlapsCached(scope, docScope(c.Pattern))
	ev.entryMu.Lock()
	ev.delOverlap[key] = v
	ev.entryMu.Unlock()
	return v
}

// docEntries is the memoized entry count of update ui's sample document
// in candidate c's index.
func (ev *evaluator) docEntries(ui int, c *candidate.Candidate) int {
	key := [2]int{ui, c.ID}
	ev.entryMu.Lock()
	n, ok := ev.entryCount[key]
	ev.entryMu.Unlock()
	if ok {
		return n
	}
	n = docEntriesFor(ev.insertDocs[ui], c)
	ev.entryMu.Lock()
	ev.entryCount[key] = n
	ev.entryMu.Unlock()
	return n
}

// docScope reduces a pattern to its first step: two patterns can share a
// document only if they agree on the document root element.
func docScope(p pattern.Pattern) pattern.Pattern {
	if p.IsZero() {
		return p
	}
	return p.Prefix(1)
}

// docNode is one node of an insert document with the symbol word of
// its rooted path, parsed once per document instead of once per
// candidate.
type docNode struct {
	word []pattern.Sym
	node *xmldoc.Node
}

// docNodes lists every node of d whose rooted path parses, in document
// order, with its word.
func docNodes(d *xmldoc.Document) []docNode {
	nodes := []docNode{}
	d.Walk(func(nd *xmldoc.Node) bool {
		if word, err := pattern.ParseWord(nd.RootPath()); err == nil {
			nodes = append(nodes, docNode{word: word, node: nd})
		}
		return true
	})
	return nodes
}

// docEntriesFor counts the index entries an insert document (its
// docNodes) would contribute to candidate c — exact maintenance work
// for the insert. A node's value is read only when c's pattern matches
// it.
func docEntriesFor(nodes []docNode, c *candidate.Candidate) int {
	m := pattern.InternedMatcher(c.Pattern)
	n := 0
	for _, dn := range nodes {
		if !m.MatchWord(dn.word) {
			continue
		}
		if _, ok := sqltype.Cast(c.Type, dn.node.Text()); ok {
			n++
		}
	}
	return n
}
