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
//   - Output rows are carved from the tree's slab (rows.go), handed out
//     capacity-limited and never recycled: a row returned by Next is the
//     caller's to keep, but it is read-only — a buffering operator may
//     retain the same slice. A compiled tree runs many executions: Open
//     resets its counters and account, Close drops every row it buffered,
//     and the session keeps a closed tree on each prepared view, so a
//     reused execution re-Opens a tree instead of compiling one. Its slab
//     keeps carving where the last execution stopped, so rows handed out
//     earlier stay valid.
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
// retain; a plan of scans and extends retains none.
package engine

import (
	"context"
	"encoding/binary"
	"fmt"
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

// Result is a set of solution mappings. Rows are positional over Vars;
// Unbound encodes positions outside dom(µ).
type Result struct {
	Vars []string
	Rows [][]storage.NodeID
}

// NewResult returns an empty result over the given variables.
func NewResult(vars ...string) *Result {
	return &Result{Vars: vars}
}

// unitResult returns the result containing only the empty mapping µ∅ —
// the evaluation of the empty BGP.
func unitResult() *Result {
	return &Result{Vars: nil, Rows: [][]storage.NodeID{{}}}
}

// Len returns the number of mappings.
func (r *Result) Len() int { return len(r.Rows) }

// VarIndex returns the column of the named variable.
func (r *Result) VarIndex(v string) int {
	for i, x := range r.Vars {
		if x == v {
			return i
		}
	}
	return -1
}

// rowKey builds a canonical byte-string key of a row for set semantics.
func rowKey(row []storage.NodeID) string {
	buf := make([]byte, 4*len(row))
	for i, v := range row {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return string(buf)
}

// Dedup removes duplicate mappings in place (set semantics).
func (r *Result) Dedup() {
	seen := make(map[string]bool, len(r.Rows))
	out := r.Rows[:0]
	for _, row := range r.Rows {
		k := rowKey(row)
		if !seen[k] {
			seen[k] = true
			out = append(out, row)
		}
	}
	r.Rows = out
}

// Sort orders rows canonically (for comparisons and goldens).
func (r *Result) Sort() {
	sort.Slice(r.Rows, func(i, j int) bool {
		a, b := r.Rows[i], r.Rows[j]
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// Project reorders/renames columns to the given variable order; missing
// variables become Unbound columns.
func (r *Result) Project(vars []string) *Result {
	idx := make([]int, len(vars))
	for i, v := range vars {
		idx[i] = r.VarIndex(v)
	}
	out := &Result{Vars: vars, Rows: make([][]storage.NodeID, len(r.Rows))}
	for i, row := range r.Rows {
		nr := make([]storage.NodeID, len(vars))
		for j, k := range idx {
			if k < 0 {
				nr[j] = Unbound
			} else {
				nr[j] = row[k]
			}
		}
		out.Rows[i] = nr
	}
	return out
}

// Canonical returns a sorted, deduplicated copy projected onto the sorted
// variable list — two results are semantically equal iff their Canonical
// forms are deep-equal.
func (r *Result) Canonical() *Result {
	vars := append([]string(nil), r.Vars...)
	sort.Strings(vars)
	out := r.Project(vars)
	out.Dedup()
	out.Sort()
	return out
}

// Equal reports semantic equality (same mapping set).
func (r *Result) Equal(other *Result) bool {
	a, b := r.Canonical(), other.Canonical()
	if len(a.Vars) != len(b.Vars) || len(a.Rows) != len(b.Rows) {
		return false
	}
	for i, v := range a.Vars {
		if b.Vars[i] != v {
			return false
		}
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				return false
			}
		}
	}
	return true
}

// String renders the result as a table of decoded bindings (requires the
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
	return fmt.Sprintf("result(%d vars, %d rows)", len(r.Vars), len(r.Rows))
}
