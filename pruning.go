package dualsim

import (
	"io"

	"dualsim/internal/prune"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Pruning is the result of dual-simulation database pruning for one
// query (the paper's Sect. 5 application): the subset of triples that
// survive the largest dual simulation, held as per-predicate masks over
// the store it was computed on.
type Pruning struct {
	p  *prune.Pruning
	st *Store
}

// WriteNTriples writes the pruned database — the triples the masks keep,
// in the store's predicate-subject-object order — to w as N-Triples,
// without building a store for it.
func (p *Pruning) WriteNTriples(w io.Writer) error {
	wr := rdf.NewWriter(w)
	for pid, pf := range p.p.Filter() {
		if pf == nil {
			continue
		}
		pred := p.st.Pred(storage.PredID(pid))
		subjects, objects := p.st.PSO(storage.PredID(pid))
		pf.Mask.ForEach(func(i int) bool {
			return wr.Write(rdf.Triple{S: p.st.Term(subjects[i]), P: pred, O: p.st.Term(objects[i])}) == nil
		})
	}
	// The writer keeps its first error; Flush returns it.
	return wr.Flush()
}

// Kept returns the number of surviving triples.
func (p *Pruning) Kept() int { return p.p.Kept }

// Total returns the original store size.
func (p *Pruning) Total() int { return p.p.Total }

// Ratio returns the pruned fraction in [0, 1].
func (p *Pruning) Ratio() float64 { return p.p.Ratio() }

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
