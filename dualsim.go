// Package dualsim is a Go implementation of fast dual simulation
// processing for graph database queries, reproducing Mennicke et al.,
// "Fast Dual Simulation Processing of Graph Database Queries" (ICDE
// 2019).
//
// Dual simulation is a relaxation of graph pattern matching: instead of
// the homomorphic matches SPARQL computes, it relates every pattern node
// to the set of database nodes that can mimic all of its incoming and
// outgoing edges. The largest dual simulation is computable in polynomial
// time and contains every homomorphic match, which makes it a sound and
// aggressive pruning filter for query processing.
//
// The package is organized around sessions and prepared queries, in the
// database/sql mould:
//
//   - a graph database: an in-memory dictionary-encoded triple store with
//     per-predicate indexes and adjacency bit-matrices
//     (NewStore/LoadNTriples/FromTriples);
//   - a session: Open(st, ...Option) fixes the solver switches and the
//     pipeline switches (pruning, fingerprint) for a store; sessions are
//     safe for concurrent use;
//   - prepared queries: db.Prepare(src) parses the SPARQL fragment
//     (SELECT * over basic graph patterns with AND (.), OPTIONAL and
//     UNION) and plans it exactly once — pattern extraction, lowering to
//     per-branch systems of inequalities with their ordering keys, and
//     the fingerprint lookup when the session has one;
//   - execution: pq.Stream(ctx) runs the one fixed pipeline — optional
//     fingerprint pre-filter, dual-simulation pruning (the paper's
//     headline application), evaluation by the Volcano executor on the
//     store seen through the solved candidate sets — and returns a row
//     cursor; pq.Exec(ctx) is the same drained into a
//     Result, with per-stage ExecStats. Cancellation and deadlines on
//     ctx interrupt the solver between inequality evaluations and the
//     executor between row batches;
//   - serving: with WithPlanCache(n), db.Query(ctx, text) resolves
//     repeated query text through an LRU plan cache, and
//     db.ExecBatch(ctx, reqs) fans a slice of queries across a worker
//     pool with per-request stats. Execution state (the solver's χ rows,
//     scratch and the parallel-kernel accumulators) is pooled, so the
//     steady-state hot path performs near-zero solver allocation;
//   - updates: the database is live. db.Apply(ctx, Delta{Adds, Dels})
//     publishes a new epoch-numbered snapshot (MVCC-lite: in-flight
//     executions finish on their epoch, plan cache keys carry the epoch,
//     index maintenance is incremental in the touched predicates and a
//     fingerprint's partition is advanced around the touched nodes),
//     db.Snapshot() pins an epoch for repeatable reads, and
//     WithCompactionThreshold/db.Compact consolidate the update overlay
//     into a pristine store;
//   - network serving: internal/server (behind cmd/dualsimd) exposes a
//     session over HTTP/JSON with NDJSON row streaming, admission
//     control and epoch-tagged responses; the client package is the
//     typed Go client;
//   - durability: with WithDataDir the database lives in a data
//     directory — every Apply is recorded in an fsync'd write-ahead log
//     before acknowledgement, Checkpoint (or WithCheckpointEvery) rolls
//     the log into versioned binary snapshots, and OpenDir warm-starts
//     a session from disk at the same epoch without re-ingesting RDF
//     (see internal/persist for the format).
//
// A minimal session:
//
//	st, _ := dualsim.LoadNTriples(file)
//	db, _ := dualsim.Open(st)
//	pq, _ := db.Prepare(`SELECT * WHERE { ?d <directed> ?m . }`)
//	res, stats, _ := pq.Exec(ctx) // prune + evaluate; reusable, concurrent
//	fmt.Println(res.Len(), stats.PrunedRatio())
//
// The pipeline's stages are also callable one at a time on a session
// (db.DualSimulate, db.Prune, db.Evaluate). Pattern-graph level dual
// simulation (NewPattern/db.SimulatePattern), strong simulation and the
// fingerprint index are exposed alongside (see extensions.go).
package dualsim

import (
	"fmt"
	"io"

	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/rdf"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Store is the in-memory graph database (Definition 1): a finite set of
// triples over disjoint object and literal universes, with per-predicate
// indexes and lazily built adjacency bit-matrices.
type Store = storage.Store

// Triple is one RDF triple (s, p, o).
type Triple = rdf.Triple

// Term is an RDF term: an IRI (database object) or a literal.
type Term = rdf.Term

// IRI constructs an object term.
func IRI(v string) Term { return rdf.NewIRI(v) }

// Literal constructs a literal term.
func Literal(v string) Term { return rdf.NewLiteral(v) }

// T constructs an object-valued triple, TL a literal-valued one.
func T(s, p, o string) Triple  { return rdf.T(s, p, o) }
func TL(s, p, l string) Triple { return rdf.TL(s, p, l) }

// NewStore returns an empty store; call Add/AddAll then Build.
func NewStore() *Store { return storage.New() }

// FromTriples builds a store from a triple slice.
func FromTriples(ts []Triple) (*Store, error) { return storage.FromTriples(ts) }

// LoadNTriples reads an N-Triples-style stream into a store.
func LoadNTriples(r io.Reader) (*Store, error) {
	ts, err := rdf.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return storage.FromTriples(ts)
}

// ReadNTriples reads an N-Triples-style stream into a triple slice —
// the raw form Delta and AddAll consume.
func ReadNTriples(r io.Reader) ([]Triple, error) {
	return rdf.ReadAll(r)
}

// DumpNTriples writes the store's triples to w.
func DumpNTriples(w io.Writer, st *Store) error {
	return rdf.WriteAll(w, st.Triples())
}

// Query is a parsed SELECT * query.
type Query = sparql.Query

// ParseQuery parses the SPARQL fragment
// `SELECT * WHERE { … }` with '.'-conjunction, OPTIONAL, UNION, groups,
// variables, IRIs and literals.
func ParseQuery(src string) (*Query, error) { return sparql.Parse(src) }

// MustParseQuery is ParseQuery that panics on error (for fixtures).
func MustParseQuery(src string) *Query { return sparql.MustParse(src) }

// Result is a set of solution mappings.
type Result = engine.Result

// Unbound marks positions outside dom(µ) in result rows.
const Unbound = engine.Unbound

// EngineKind names an evaluator. The session has one executor, Volcano;
// IndexNL is an oracle kept to check it (see WithEngine, RequiredTriples).
type EngineKind int

const (
	// Volcano streams rows through an Open/Next/Close iterator tree over
	// a cost-based plan (join reordering, filter and LIMIT pushdown, hash
	// join or index extend chosen per join). The zero value and the only
	// evaluator that serves.
	Volcano EngineKind = iota
	// IndexNL is the oracle: greedy cost-based join ordering with
	// materializing index nested-loop extension, sharing no join code
	// with the executor.
	IndexNL
)

// engine returns the evaluator behind the kind — the one place the root
// package reaches the oracle.
func (k EngineKind) engine() engine.Engine {
	if k == IndexNL {
		return engine.NewIndexNL()
	}
	return engine.NewVolcano()
}

// String returns the evaluator's report name.
func (k EngineKind) String() string { return k.engine().Name() }

// Strategy selects the bit-matrix multiplication strategy.
type Strategy int

const (
	// AutoStrategy picks row- or column-wise per evaluation by popcount.
	AutoStrategy Strategy = iota
	// RowWiseStrategy always unions matrix rows.
	RowWiseStrategy
	// ColWiseStrategy always probes candidate columns.
	ColWiseStrategy
)

// Stats reports solver effort. JSON tags are part of the serving wire
// format (see ExecStats).
//
//dualsim:wire
type Stats struct {
	// Rounds is the depth of the fixpoint iteration ("iterations" in the
	// paper): the largest number of times any one inequality was
	// evaluated, summed over UNION branches. The solver's worklist has no
	// round barrier; a barrier schedule takes at least this many rounds.
	Rounds int `json:"rounds"`
	// Evaluations counts individual inequality evaluations.
	Evaluations int `json:"evaluations"`
	// Updates counts evaluations that shrank a variable.
	Updates int `json:"updates"`
}

// Relation is the largest dual simulation of a query: per original query
// variable, the set of candidate database nodes (unioned over UNION
// branches and optional copies).
type Relation struct {
	rel *core.QueryRelation
	st  *Store
}

// Candidates returns the node set for a query variable as decoded terms.
func (r *Relation) Candidates(varName string) []Term {
	set := r.rel.VarSet(varName)
	out := make([]Term, 0, set.Count())
	set.ForEach(func(i int) bool {
		out = append(out, r.st.Term(storage.NodeID(i)))
		return true
	})
	return out
}

// CandidateCount returns |χS(v)| for a query variable.
func (r *Relation) CandidateCount(varName string) int {
	return r.rel.VarSet(varName).Count()
}

// Empty reports whether the query is unsatisfiable (every UNION branch
// has an empty mandatory variable).
func (r *Relation) Empty() bool { return r.rel.Empty() }

// Stats returns aggregated solver statistics.
func (r *Relation) Stats() Stats {
	return Stats{
		Rounds:      r.rel.Stats.Rounds,
		Evaluations: r.rel.Stats.Evaluations,
		Updates:     r.rel.Stats.Updates,
	}
}

// requireStore guards the exported entry points against nil stores.
func requireStore(st *Store) error {
	if st == nil {
		return fmt.Errorf("dualsim: nil store")
	}
	return nil
}
