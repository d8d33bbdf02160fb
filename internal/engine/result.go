// Package engine implements SPARQL evaluation over the triple store with
// the formal set semantics of Pérez et al. (the semantics the paper's
// Sect. 4 builds on): a query evaluates to a set of partial mappings
// µ : vars(Q) → O_DB; AND is the compatibility join, OPTIONAL the left
// outer join, UNION the set union.
//
// There is one executor and there are two oracles:
//
//   - Volcano (volcano.go) — the executor: cost-based plans from
//     internal/plan run as an Open/Next/Close iterator tree whose planner
//     picks a pipelined index-extend or a hash join per join node. It is
//     the only evaluator the session serves from, and the in-memory-store
//     stand-in of the paper's Table 4.
//   - IndexNL (oracle.go) — oracle: greedy cost-based join ordering with
//     materializing index nested-loop extension over the PSO/POS indexes.
//     The benchmark and the large-store differential tests check the
//     executor against it; it stands in for the relational-technology
//     store Virtuoso in Table 5.
//   - Reference (oracle.go) — oracle: a direct executable transcription
//     of the denotational semantics, exponential and only suitable for
//     tiny inputs; the parity tests compare the executor against it.
//
// All engines reject variables in predicate position: the paper's pattern
// graphs are edge-labeled, so predicates are always constants.
//
// The executor's row path is built to leave no per-row garbage:
//
//   - Set semantics without a blanket distinct. Compiling derives, per
//     plan node, whether its rows are pairwise distinct and which
//     variables are bound in every row (props.go). A distinct operator is
//     added only above a root whose rows may repeat, and a limit keeps a
//     seen-set only over such an input.
//   - Where a seen-set or a hash table remains, it is keyed by a 64-bit
//     mix of the row's columns and verified against the stored row
//     (rowSet in rows.go; hashJoinIter chains buckets through index
//     arrays and verifies with compatible). No string keys.
//   - Rows are flat blocks of ids (rows.go): a window an operator fills,
//     a hash join's build side, a seen-set and a Result each hold their
//     rows in one []NodeID array, row i at offset i·w for the schema
//     width w, and count them explicitly so that zero-width rows exist.
//     There is no per-row object and no row header: an operator reads its
//     input row by offset into the input's window, writes its output row
//     straight into the consumer's window, and a buffering operator copies
//     the rows it retains into a block it owns. A row handed out is valid
//     until its window is refilled; Result owns its block, so rows read
//     from a Result stay valid. A compiled tree runs many executions: Open
//     resets its counters and account, Close drops every row it buffered
//     (the windows' arrays stay, for the next execution), and the session
//     keeps a closed tree on each prepared view, so a reused execution
//     re-Opens a tree instead of compiling one.
//   - Posting lists are read in place. Compiled through a solved dual
//     simulation (plan.Options.Filter — the session's path), a list is a
//     row of the adjacency the solver cached on the unpruned store
//     (bitmat.CSR.Row, addressed by offset), each neighbour tested
//     against the candidate sets χ, and a leaf scan walks the kept-triple
//     mask. Without a filter it is a sub-slice of the store's index
//     columns (Store.Objects/Subjects), found by binary search. The two
//     views differ only inside resolved's accessors (scan.go).
//
// The memory account (Resources) charges the rows buffering operators
// retain, at the bytes their blocks and tables hold; a plan of scans and
// extends retains none.
package engine

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

// Engine evaluates SPARQL queries against a store.
type Engine interface {
	// Name identifies the engine in reports (Tables 4/5).
	Name() string
	// Evaluate computes the solution mapping set of q over st. It honours
	// ctx: cancellation or deadline expiry aborts the evaluation between
	// join steps and row batches, returning ctx.Err().
	Evaluate(ctx context.Context, st *storage.Store, q *sparql.Query) (*Result, error)
}

// Unbound marks an unbound variable in a mapping row (µ is partial).
const Unbound = ^storage.NodeID(0)

// Result is a set of solution mappings. Rows are positional over Vars,
// with Unbound at positions outside dom(µ), and stored as one flat block
// the Result owns: Row(i) is a view of it, and stays valid for as long as
// the Result does. Read every row with
//
//	for i, row := range res.Rows {
//		…
//	}
//
// or by index with Len and Row. Rows are read-only: Append adds one.
type Result struct {
	Vars []string
	block
}

// NewResult returns an empty result over the given variables.
func NewResult(vars ...string) *Result {
	return &Result{Vars: vars}
}

// unitResult returns the result containing only the empty mapping µ∅ —
// the evaluation of the empty BGP.
func unitResult() *Result {
	return &Result{block: block{n: 1}}
}

// Len returns the number of mappings.
func (r *Result) Len() int { return r.n }

// Row returns mapping i, positional over Vars.
func (r *Result) Row(i int) []storage.NodeID { return r.row(i, len(r.Vars)) }

// Rows yields every mapping with its index, in order.
func (r *Result) Rows(yield func(int, []storage.NodeID) bool) {
	w := len(r.Vars)
	for i := range r.n {
		if !yield(i, r.row(i, w)) {
			return
		}
	}
}

// Append adds a copy of row, which must be positional over Vars.
func (r *Result) Append(row []storage.NodeID) {
	if len(row) != len(r.Vars) {
		panic(fmt.Sprintf("engine: appending a %d-column row to a %d-column result", len(row), len(r.Vars)))
	}
	r.add(row)
}

// Grow reserves room for exactly n more rows, so that appending them
// does not reallocate and a drain into r (Exec.Append) fills it to the
// last row before it pulls past the end.
func (r *Result) Grow(n int) {
	if w := len(r.Vars); cap(r.ids)-len(r.ids) < n*w {
		r.ids = append(make([]storage.NodeID, 0, len(r.ids)+n*w), r.ids...)
	}
}

// VarIndex returns the column of the named variable.
func (r *Result) VarIndex(v string) int {
	for i, x := range r.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// Dedup removes duplicate mappings in place (set semantics), leaving
// the rest in canonical order (Sort). It neither hashes nor shares code
// with the executor's seen-sets, which the oracles built on it check.
func (r *Result) Dedup() {
	r.Sort()
	w := len(r.Vars)
	k := min(r.n, 1)
	for i := 1; i < r.n; i++ {
		if row := r.row(i, w); !slices.Equal(row, r.row(k-1, w)) {
			copy(r.ids[k*w:], row)
			k++
		}
	}
	r.truncate(k, w)
}

// Sort orders rows canonically (for comparisons and goldens): by their
// columns, left to right.
func (r *Result) Sort() { sort.Sort(rowOrder{r.block, len(r.Vars)}) }

// rowOrder sorts a block's rows in place.
type rowOrder struct {
	b block
	w int
}

func (o rowOrder) Len() int { return o.b.n }
func (o rowOrder) Less(i, j int) bool {
	return slices.Compare(o.b.row(i, o.w), o.b.row(j, o.w)) < 0
}
func (o rowOrder) Swap(i, j int) {
	a, b := o.b.row(i, o.w), o.b.row(j, o.w)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// Project reorders/renames columns to the given variable order; missing
// variables become Unbound columns.
func (r *Result) Project(vars []string) *Result {
	idx := make([]int, len(vars))
	for i, v := range vars {
		idx[i] = r.VarIndex(v)
	}
	out := NewResult(vars...)
	out.Grow(r.n)
	for _, row := range r.Rows {
		nr := out.push(len(vars))
		for j, k := range idx {
			if k < 0 {
				nr[j] = Unbound
			} else {
				nr[j] = row[k]
			}
		}
	}
	return out
}

// Canonical returns a sorted, deduplicated copy projected onto the sorted
// variable list — two results are semantically equal iff their Canonical
// forms are deep-equal.
func (r *Result) Canonical() *Result {
	vars := slices.Clone(r.Vars)
	sort.Strings(vars)
	out := r.Project(vars)
	out.Dedup()
	return out
}

// Equal reports semantic equality (same mapping set).
func (r *Result) Equal(other *Result) bool {
	a, b := r.Canonical(), other.Canonical()
	return slices.Equal(a.Vars, b.Vars) && a.n == b.n && slices.Equal(a.ids, b.ids)
}

// Format renders the result as a table of decoded bindings (requires the
// originating store).
func (r *Result) Format(st *storage.Store) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(r.Vars, "\t"))
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		for j, v := range row {
			if j > 0 {
				sb.WriteByte('\t')
			}
			if v == Unbound {
				sb.WriteString("—")
			} else {
				sb.WriteString(st.Term(v).String())
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func (r *Result) String() string {
	return fmt.Sprintf("result(%d vars, %d rows)", len(r.Vars), r.n)
}
