// Package core implements the paper's primary contribution: the XML Index
// Advisor. Given a database and a weighted workload of queries and
// updates, it recommends the set of XML value indexes (patterns + SQL
// types) with the greatest estimated benefit that fits a disk budget.
//
// The pipeline follows Figure 1 of the paper, with each stage behind its
// own package boundary; this package is the thin orchestration layer
// that wires them together and derives the recommendation report:
//
//  1. internal/candidate enumerates the basic candidate patterns for
//     every workload query (§2.1, the Enumerate Indexes EXPLAIN mode via
//     candidate.Source), generalizes them with the §2.2 rule engine, and
//     arranges the result in a containment DAG.
//  2. internal/search picks the recommended configuration under the
//     disk budget (§2.3): pluggable registered strategies — plain
//     greedy, greedy with redundancy heuristics, top-down DAG descent,
//     and a concurrent portfolio race — over a Space this package
//     assembles (candidates, DAG, budget, cost evaluator).
//  3. internal/whatif prices every configuration the search considers
//     via the Evaluate Indexes EXPLAIN mode, accounting for index
//     interaction; update (maintenance) cost is charged by this
//     package's evaluator on top of the engine's per-query costs.
package core

import (
	"repro/internal/candidate"
)

// EnumerationMode selects how basic candidates are obtained.
type EnumerationMode uint8

const (
	// EnumOptimizer uses the Enumerate Indexes EXPLAIN mode (the
	// paper's tightly coupled approach).
	EnumOptimizer EnumerationMode = iota
	// EnumSyntactic is the loosely coupled baseline for the coupling
	// ablation: every path in the query text becomes a candidate,
	// including extraction paths the optimizer would never serve with a
	// value index, and with no SQL type inference (everything VARCHAR).
	EnumSyntactic
)

// candidateSource resolves the advisor's candidate source: an explicit
// Options.Source wins, then the Enumeration mode picks the optimizer or
// syntactic enumerator.
func (a *Advisor) candidateSource() candidate.Source {
	if a.opts.Source != nil {
		return a.opts.Source
	}
	if a.opts.Enumeration == EnumSyntactic {
		return candidate.SyntacticSource{}
	}
	return &candidate.OptimizerSource{Opt: a.opt}
}

// candidateRules resolves the generalization rule set: Generalize=false
// disables all rules; an explicit Options.Rules spec is parsed as-is;
// otherwise the paper's default rules apply.
func (a *Advisor) candidateRules() ([]candidate.Rule, error) {
	if !a.opts.Generalize {
		return nil, nil
	}
	if a.opts.Rules != "" {
		return candidate.ParseRules(a.opts.Rules)
	}
	return candidate.DefaultRules(), nil
}

// pipeline assembles the candidate pipeline for one Prepare run.
func (a *Advisor) pipeline() (*candidate.Pipeline, error) {
	rules, err := a.candidateRules()
	if err != nil {
		return nil, err
	}
	return candidate.New(a.cat, a.candidateSource(), candidate.Options{
		Parallelism:    a.opts.GenParallelism,
		Rules:          rules,
		MinSharedSteps: a.opts.MinSharedSteps,
		MaxCandidates:  a.opts.MaxCandidates,
	}), nil
}
