package dualsim

import (
	"context"
	"io"
	"strings"

	"dualsim/internal/core"
	"dualsim/internal/prune"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
)

// Pruning is the result of dual-simulation database pruning for one
// query (the paper's Sect. 5 application): the subset of triples that
// survive the largest dual simulation.
type Pruning struct {
	p   *prune.Pruning
	rel *core.QueryRelation
}

// Store materializes the pruned database. Node ids and dictionaries are
// shared with the original store, so results remain comparable.
func (p *Pruning) Store() *Store { return p.p.Store() }

// Kept returns the number of surviving triples.
func (p *Pruning) Kept() int { return p.p.Kept }

// Total returns the original store size.
func (p *Pruning) Total() int { return p.p.Total }

// Ratio returns the pruned fraction in [0, 1].
func (p *Pruning) Ratio() float64 { return p.p.Ratio() }

// RequiredTriples counts the triples participating in at least one actual
// match of q on st — the ground truth the pruning overapproximates.
func RequiredTriples(st *Store, q *Query, kind EngineKind) (int, error) {
	if err := requireStore(st); err != nil {
		return 0, err
	}
	return prune.RequiredCount(context.Background(), st, q, kind.engine())
}

// ---------------------------------------------------------------------------
// Pattern-graph level API (Sect. 2–3, no SPARQL involved).

// Pattern is a hand-built pattern graph: named variables connected by
// labeled edges, optionally bound to constants.
type Pattern struct {
	p *core.Pattern
}

// NewPattern returns an empty pattern graph.
func NewPattern() *Pattern { return &Pattern{p: core.NewPattern()} }

// Edge adds the pattern edge (from, pred, to); variables are interned by
// name.
func (p *Pattern) Edge(from, pred, to string) *Pattern {
	p.p.Edge(from, pred, to)
	return p
}

// Bind restricts a variable to a constant term.
func (p *Pattern) Bind(name string, t Term) *Pattern {
	p.p.Bind(name, t)
	return p
}

// IsCyclic reports whether the pattern contains an (undirected) cycle.
func (p *Pattern) IsCyclic() bool { return p.p.IsCyclic() }

// PatternRelation is the largest dual simulation of a pattern graph.
type PatternRelation struct {
	rel *core.Relation
	st  *Store
}

// Candidates returns the simulating nodes of a pattern variable in
// deterministic (ascending node id) order, or nil for an unknown
// variable — mirroring VarIndex. Each value is a copy, so a kept Term
// does not hold the store's dictionary in memory.
func (r *PatternRelation) Candidates(varName string) []Term {
	i, ok := r.rel.Pattern.VarIndex(varName)
	if !ok {
		return nil
	}
	chi := r.rel.Chi[i]
	out := make([]Term, 0, chi.Count())
	chi.ForEach(func(n int) bool {
		t := r.st.Term(uint32(n))
		out = append(out, Term{Kind: t.Kind, Value: strings.Clone(t.Value)})
		return true
	})
	return out
}

// Empty reports whether the relation is the empty dual simulation.
func (r *PatternRelation) Empty() bool { return r.rel.IsEmpty() }

// Stats returns solver statistics.
func (r *PatternRelation) Stats() Stats {
	return Stats{
		Rounds:      r.rel.Stats.Rounds,
		Evaluations: r.rel.Stats.Evaluations,
		Updates:     r.rel.Stats.Updates,
	}
}

// ---------------------------------------------------------------------------
// Query analyses re-exported for downstream users.

// QueryVars returns vars(Q), sorted.
func QueryVars(q *Query) []string { return sparql.Vars(q.Expr) }

// MandatoryVars returns mand(Q) (Sect. 4.3).
func MandatoryVars(q *Query) []string {
	m := sparql.Mand(q.Expr)
	out := make([]string, 0, len(m))
	for _, v := range sparql.Vars(q.Expr) {
		if m[v] {
			out = append(out, v)
		}
	}
	return out
}

// IsWellDesigned reports well-designedness (Pérez et al.; Sect. 4.5).
func IsWellDesigned(q *Query) bool { return sparql.IsWellDesigned(q.Expr) }

// ReadTriples parses an N-Triples-style stream without building a store.
func ReadTriples(r io.Reader) ([]Triple, error) { return rdf.ReadAll(r) }
