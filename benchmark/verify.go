package main

import (
	"context"
	"hash/fnv"
	"sort"

	"dualsim"
)

// pin is the expected answer of one read text on one store: the row count
// and a hash of the row set that ignores row and column order.
type pin struct {
	rows int
	hash uint64
}

// rowHasher folds rows into an order-independent hash: each row is hashed
// over its terms in variable-name order, and the row hashes are summed
// (results are sets, so no row repeats).
type rowHasher struct {
	order []int // column indexes in sorted variable order
	sum   uint64
}

func newRowHasher(vars []string) rowHasher {
	order := make([]int, len(vars))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return vars[order[a]] < vars[order[b]] })
	return rowHasher{order: order}
}

// add hashes one row; term returns the rendered term of a column, false
// for a variable the row leaves unbound.
func (h *rowHasher) add(term func(col int) (string, bool)) {
	f := fnv.New64a()
	for _, col := range h.order {
		if s, ok := term(col); ok {
			f.Write([]byte(s))
		}
		f.Write([]byte{0})
	}
	h.sum += f.Sum64()
}

// hashResult hashes an in-process result, rendering terms the way the
// server does so one pin serves both paths.
func hashResult(st *dualsim.Store, res *dualsim.Result) uint64 {
	h := newRowHasher(res.Vars)
	for _, row := range res.Rows {
		h.add(func(col int) (string, bool) {
			if row[col] == dualsim.Unbound {
				return "", false
			}
			return st.Term(row[col]).String(), true
		})
	}
	return h.sum
}

// oracle evaluates read texts independently of the path under test: the
// materializing index-nested-loop engine on the unpruned store, so neither
// the pruning nor the Volcano executor can vouch for itself. (The issue
// names the reference engine, which is exponential and does not finish on
// 10^5-row results; the hash-join engine joins in cardinality order without
// looking at connectivity and builds an 8·10^7-row cross product on B2.)
type oracle struct {
	db *dualsim.DB
	st *dualsim.Store
}

func newOracle(st *dualsim.Store) (*oracle, error) {
	db, err := dualsim.Open(st, dualsim.WithEngine(dualsim.IndexNL), dualsim.WithPruning(false))
	if err != nil {
		return nil, err
	}
	return &oracle{db, st}, nil
}

func (o *oracle) pin(ctx context.Context, text string) (pin, error) {
	res, _, err := o.db.Exec(ctx, text)
	if err != nil {
		return pin{}, err
	}
	return pin{res.Len(), hashResult(o.st, res)}, nil
}

func (o *oracle) close() { o.db.Close() }

// pinAll pins every distinct read of a read-only workload on its store.
func pinAll(ctx context.Context, st *dualsim.Store, reads []op) (map[string]pin, error) {
	o, err := newOracle(st)
	if err != nil {
		return nil, err
	}
	defer o.close()
	pins := make(map[string]pin, len(reads))
	for _, r := range reads {
		if pins[r.text], err = o.pin(ctx, r.text); err != nil {
			return nil, err
		}
	}
	return pins, nil
}
