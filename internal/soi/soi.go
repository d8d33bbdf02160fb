// Package soi implements the system-of-inequalities (SOI) characterization
// of dual simulation from Sect. 3 of the paper.
//
// A System holds one variable per pattern node (plus renamed copies
// introduced for SPARQL OPTIONAL handling, cf. Sect. 4) and three kinds of
// constraints:
//
//   - an initial upper bound per variable — inequality (12) `v ≤ 1`, or its
//     sharpened form (13) using the label summary vectors f_a, b_a, possibly
//     intersected with a singleton when the pattern node is a constant;
//   - edge inequalities `w ≤ v ×b F_a` and `v ≤ w ×b B_a` — inequality (11),
//     one pair per pattern edge (v, a, w);
//   - copy inequalities `x ≤ y` — inequalities (14)/(15) linking optional
//     variable copies to their mandatory originals.
//
// Solve computes the largest solution with the worklist algorithm of
// Sect. 3.2, step 2: evaluate an unstable inequality, shrink the left-hand
// variable by the ∧-update, and destabilize every inequality whose
// right-hand side mentions the shrunken variable. The largest solution is
// unique, so the order of evaluation is free to follow cost: there is one
// worklist and no round barrier, and the next inequality evaluated is
// always the cheapest unstable one — copy inequalities first, then edge
// inequalities by the smaller of their two candidate counts (kept per
// variable, updated by every evaluation), ties by the empty-column count
// of Sect. 3.3, then by index. A constant's singleton therefore
// propagates before any wide union runs, and a cheap inequality that was
// destabilized again runs before an expensive stale one. The evaluation
// strategy for each ×b (row-wise vs. column-wise) follows the popcount
// heuristic of Sect. 3.3; both it and the order can be overridden for
// ablation experiments.
package soi

import (
	"context"
	"fmt"
	"sync"

	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
)

// Var indexes a variable of the system.
type Var int

// Kind distinguishes the two inequality forms.
type Kind uint8

const (
	// Edge is an inequality X ≤ Y ×b A with A an adjacency matrix.
	Edge Kind = iota
	// Copy is an inequality X ≤ Y.
	Copy
)

// Ineq is one inequality of the system.
type Ineq struct {
	Kind Kind
	X    Var // constrained (left-hand) variable
	Y    Var // right-hand variable

	// Edge-only fields.
	Mats  bitmat.Pair
	Dir   bitmat.Direction
	Label string // predicate name, for diagnostics

	// emptyCols caches the number of empty columns of the effective
	// matrix — the static ordering heuristic of §3.3, the tie-break
	// between inequalities of equal cost.
	emptyCols int
}

func (iq Ineq) String() string {
	if iq.Kind == Copy {
		return fmt.Sprintf("x%d ≤ x%d", iq.X, iq.Y)
	}
	d := "F"
	if iq.Dir == bitmat.Backward {
		d = "B"
	}
	return fmt.Sprintf("x%d ≤ x%d ×b %s_%s", iq.X, iq.Y, d, iq.Label)
}

// System is a system of inequalities over an n-dimensional node universe.
type System struct {
	n       int
	names   []string
	init    []*bitvec.Vector
	ineqs   []Ineq
	deps    [][]int // deps[v] = indices of inequalities with Y == v
	reqVars []bool  // mandatory variables (empty ⇒ no query match exists)

	finalize  sync.Once
	finalized bool

	// pool recycles per-solve workspaces (χ rows, scratch, worklist)
	// between SolveCtx calls — a finalized system's dimensions are frozen,
	// so a released workspace always fits the next solve exactly.
	pool sync.Pool
}

// workspace is the mutable per-solve state. Every concurrent solve owns
// one exclusively; Solution.Release returns it to the system's pool.
type workspace struct {
	chi      []*bitvec.Vector
	count    []int // count[v] = |χ(v)|, kept current by every evaluation
	scratch  *bitvec.Vector
	unstable []bool // the worklist: unstable[i] ⇔ inequality i must be evaluated
	evals    []int  // evaluations per inequality, for Stats.Rounds
}

// acquire returns a workspace, pooled when available and freshly
// allocated otherwise; SolveCtx initializes every field it reads. Must be
// called after Finalize.
func (s *System) acquire() *workspace {
	if w, _ := s.pool.Get().(*workspace); w != nil {
		return w
	}
	w := &workspace{
		chi:      make([]*bitvec.Vector, len(s.names)),
		count:    make([]int, len(s.names)),
		scratch:  bitvec.New(s.n),
		unstable: make([]bool, len(s.ineqs)),
		evals:    make([]int, len(s.ineqs)),
	}
	for v := range w.chi {
		w.chi[v] = bitvec.New(s.n)
	}
	return w
}

// NewSystem returns an empty system over an n-node universe.
func NewSystem(n int) *System {
	return &System{n: n}
}

// Dim returns the node-universe size n.
func (s *System) Dim() int { return s.n }

// NumVars returns the number of variables.
func (s *System) NumVars() int { return len(s.names) }

// NumIneqs returns the number of inequalities.
func (s *System) NumIneqs() int { return len(s.ineqs) }

// VarName returns the diagnostic name of v.
func (s *System) VarName(v Var) string { return s.names[v] }

// Ineqs returns the inequality list (read-only).
func (s *System) Ineqs() []Ineq { return s.ineqs }

// AddVar adds a variable with the given name, initial upper bound and
// mandatory flag. If init is nil the bound is the full vector 1
// (inequality (12)). The bound is cloned by Solve, never mutated.
func (s *System) AddVar(name string, init *bitvec.Vector, required bool) Var {
	s.mustBeOpen()
	if init != nil && init.Len() != s.n {
		panic(fmt.Sprintf("soi: init length %d != dim %d", init.Len(), s.n))
	}
	v := Var(len(s.names))
	s.names = append(s.names, name)
	s.init = append(s.init, init)
	s.reqVars = append(s.reqVars, required)
	return v
}

// ConstrainInit intersects the initial bound of v with extra — used to
// layer the summary-vector initialization (13) and constant bindings on
// top of (12).
func (s *System) ConstrainInit(v Var, extra *bitvec.Vector) {
	s.mustBeOpen()
	if extra.Len() != s.n {
		panic("soi: bound length mismatch")
	}
	if s.init[v] == nil {
		s.init[v] = extra.Clone()
		return
	}
	s.init[v].And(extra)
}

// AddEdge installs the two inequalities (11) for a pattern edge
// (from, label, to): to ≤ from ×b F_a and from ≤ to ×b B_a.
func (s *System) AddEdge(from, to Var, mats bitmat.Pair, label string) {
	s.mustBeOpen()
	fwdEmptyCols := mats.F.Dim() - mats.B.NonEmptyRowCount()
	bwdEmptyCols := mats.B.Dim() - mats.F.NonEmptyRowCount()
	s.ineqs = append(s.ineqs,
		Ineq{Kind: Edge, X: to, Y: from, Mats: mats, Dir: bitmat.Forward, Label: label, emptyCols: fwdEmptyCols},
		Ineq{Kind: Edge, X: from, Y: to, Mats: mats, Dir: bitmat.Backward, Label: label, emptyCols: bwdEmptyCols},
	)
}

// AddCopy installs the inequality x ≤ y (inequalities (14)/(15)).
func (s *System) AddCopy(x, y Var) {
	s.mustBeOpen()
	s.ineqs = append(s.ineqs, Ineq{Kind: Copy, X: x, Y: y})
}

func (s *System) mustBeOpen() {
	if s.finalized {
		panic("soi: system modified after Finalize")
	}
}

// Order selects which unstable inequality the worklist evaluates next.
type Order uint8

const (
	// SparsestFirst evaluates the cheapest unstable inequality: a copy
	// inequality before any edge inequality, edge inequalities by the
	// smaller of |χ(X)| and |χ(Y)|, ties by more empty columns first (the
	// paper's static heuristic, §3.3), then by index.
	SparsestFirst Order = iota
	// DeclarationOrder evaluates the unstable inequality declared first
	// (ablation baseline).
	DeclarationOrder
)

// Options control Solve.
type Options struct {
	// Strategy is the ×b evaluation strategy (default Auto, the paper's
	// popcount heuristic).
	Strategy bitmat.Strategy
	// Order is the worklist's pick rule (default SparsestFirst).
	Order Order
	// ShortCircuit stops as soon as a required variable becomes empty.
	// Sound for query processing: an empty mandatory variable means the
	// query has no matches at all (Theorem 1).
	ShortCircuit bool
	// Workers > 1 evaluates each ×b multiplication with that many
	// goroutines (the bit-matrix parallelization of Sect. 1).
	Workers int
	// Permutation, when non-nil, ranks the inequalities explicitly
	// (overriding Order): the unstable inequality that comes first in it
	// is evaluated next — used by SearchOrders to explore the
	// order space the way the paper's §5.3 brute-force analysis does.
	// Must be a permutation of [0, NumIneqs()).
	Permutation []int
	// Restrict, when non-nil, intersects the initial bound of variable v
	// with Restrict[v] for every non-nil entry. It tightens a single Solve
	// call without mutating the system, so a finalized System stays safe
	// for concurrent reuse; any superset of the largest solution (e.g.
	// fingerprint-lifted candidate sets) leaves the fixpoint unchanged.
	// SolveCtx rejects a Restrict with more entries than NumVars(), or a
	// non-nil entry whose length differs from Dim(), with a descriptive
	// error — a mis-sized restrict is a caller bug, not a no-op.
	Restrict []*bitvec.Vector
}

// Stats reports solver effort, the quantities discussed in §5.2/§5.3.
type Stats struct {
	// Rounds is the largest number of times any one inequality was
	// evaluated — the depth of the fixpoint iteration (the paper's
	// "iterations") for a worklist without a round barrier, and never
	// more than the number of rounds a barrier schedule would take.
	Rounds int
	// Evaluations counts individual inequality evaluations.
	Evaluations int
	// Updates counts evaluations that shrank a variable.
	Updates int
	// ShortCircuited reports whether Solve stopped early on an empty
	// required variable.
	ShortCircuited bool

	// ChiInit and ChiFinal are Σ|χ(v)| after initialization (with
	// Restrict applied) and when the solve stopped — the decay §5.3
	// discusses.
	ChiInit, ChiFinal int
	// RowWise, ColWise and Copies split Evaluations by what ran: a
	// row-wise or a column-wise ×b, or a copy inequality's ∧. An edge
	// inequality whose right side was already empty counts under none.
	RowWise, ColWise, Copies int
	// Skipped counts unstable inequalities retired without an evaluation
	// because their left side was already empty.
	Skipped int
}

// Solution is the largest solution of the system: one χS row per variable.
type Solution struct {
	Chi   []*bitvec.Vector
	Stats Stats

	sys *System    // owning system, for Release
	ws  *workspace // backing storage of Chi; nil once released
}

// Release returns the solution's χ storage to the owning system's solver
// pool, so the next SolveCtx reuses it instead of allocating fresh
// vectors. The solution (and every Chi row) must not be used afterwards.
// Release is optional — an unreleased solution is simply collected by the
// GC — and idempotent.
func (sol *Solution) Release() {
	if sol == nil || sol.ws == nil {
		return
	}
	sol.sys.pool.Put(sol.ws)
	sol.ws, sol.sys, sol.Chi = nil, nil, nil
}

// EmptyRequired reports whether some required variable has an empty χS
// row, i.e. the query is unsatisfiable (no SPARQL match exists).
func (sol *Solution) EmptyRequired(s *System) bool {
	for v, req := range s.reqVars {
		if req && sol.Chi[v].IsEmpty() {
			return true
		}
	}
	return false
}

// Finalize freezes the system for solving: the dependency lists used by
// the worklist algorithm are built eagerly (exactly once, race-free).
// After Finalize, SolveCtx and Solve perform no writes to the System,
// making a prepared system safe for concurrent solving from multiple
// goroutines. Adding variables or inequalities after Finalize panics.
func (s *System) Finalize() {
	s.finalize.Do(func() {
		s.buildDeps()
		s.finalized = true
	})
}

// Solve computes the largest solution, ignoring cancellation errors
// (it returns nil if ctx expires mid-fixpoint). The system itself is
// not modified after its (lazily triggered) finalization and may be
// solved repeatedly, e.g. with different options.
func (s *System) Solve(ctx context.Context, opts Options) *Solution {
	sol, _ := s.SolveCtx(ctx, opts)
	return sol
}

// ctxCheckInterval bounds how many copy-inequality evaluations may pass
// between two cancellation checks; every edge evaluation is preceded by
// one.
const ctxCheckInterval = 8

// SolveCtx computes the largest solution, honouring cancellation and
// deadlines: the worklist loop checks ctx between inequality evaluations
// and returns (nil, ctx.Err()) without completing the fixpoint. The
// system itself is not modified (Finalize is invoked on first use) and
// may be solved repeatedly and concurrently.
//
// The per-solve state (χ rows, counts, scratch, worklist) comes from a
// system-owned pool; call Solution.Release when done with the solution
// to make steady-state solving allocation-free.
func (s *System) SolveCtx(ctx context.Context, opts Options) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(opts.Restrict) > len(s.names) {
		return nil, fmt.Errorf("soi: Restrict has %d entries for a system with %d variables", len(opts.Restrict), len(s.names))
	}
	for v, r := range opts.Restrict {
		if r != nil && r.Len() != s.n {
			return nil, fmt.Errorf("soi: Restrict[%d] (variable %s) has length %d, want dimension %d", v, s.names[v], r.Len(), s.n)
		}
	}
	s.Finalize()
	w := s.acquire()
	chi, count := w.chi, w.count
	sol := &Solution{Chi: chi, sys: s, ws: w}
	st := &sol.Stats
	for v := range chi {
		if s.init[v] == nil {
			chi[v].Fill()
		} else {
			chi[v].CopyFrom(s.init[v])
		}
		if v < len(opts.Restrict) && opts.Restrict[v] != nil {
			chi[v].And(opts.Restrict[v])
		}
		count[v] = chi[v].Count()
		st.ChiInit += count[v]
	}
	st.ChiFinal = st.ChiInit
	if opts.ShortCircuit {
		// The initialization (13) or a constant binding may already have
		// emptied a required variable.
		for v, req := range s.reqVars {
			if req && count[v] == 0 {
				st.ShortCircuited = true
				return sol, nil
			}
		}
	}
	for i := range w.unstable {
		w.unstable[i], w.evals[i] = true, 0
	}
	var rank []int // rank[i] = position of inequality i in opts.Permutation
	if opts.Permutation != nil {
		rank = make([]int, len(opts.Permutation))
		for pos, idx := range opts.Permutation {
			rank[idx] = pos
		}
	}

	sinceCheck := 0
	for idx := s.pick(w, opts.Order, rank); idx >= 0; idx = s.pick(w, opts.Order, rank) {
		iq := &s.ineqs[idx]
		w.unstable[idx] = false
		if count[iq.X] == 0 {
			// Nothing left to remove: the inequality holds.
			st.Skipped++
			continue
		}
		sinceCheck++
		if iq.Kind == Edge || sinceCheck >= ctxCheckInterval {
			sinceCheck = 0
			select {
			case <-ctx.Done():
				s.pool.Put(w)
				return nil, ctx.Err()
			default:
			}
		}
		st.Evaluations++
		w.evals[idx]++
		st.Rounds = max(st.Rounds, w.evals[idx])

		was := count[iq.X]
		switch {
		case iq.Kind == Copy:
			st.Copies++
			if chi[iq.X].And(chi[iq.Y]) {
				count[iq.X] = chi[iq.X].Count()
			}
		case count[iq.Y] == 0:
			// Nothing to multiply: the product is empty.
			chi[iq.X].Zero()
			count[iq.X] = 0
		default:
			strategy := opts.Strategy.Resolve(count[iq.Y], was)
			if strategy == bitmat.RowWise {
				st.RowWise++
			} else {
				st.ColWise++
			}
			count[iq.X] = iq.Mats.Update(iq.Dir, chi[iq.Y], chi[iq.X], count[iq.Y], was, w.scratch, strategy, opts.Workers)
		}
		if count[iq.X] == was {
			continue
		}
		st.Updates++
		st.ChiFinal -= was - count[iq.X]
		if opts.ShortCircuit && s.reqVars[iq.X] && count[iq.X] == 0 {
			st.ShortCircuited = true
			return sol, nil
		}
		// Destabilize every inequality whose right-hand side mentions
		// the shrunken variable — including this one when X == Y
		// (self-loop pattern edges), which may shrink further.
		for _, dep := range s.deps[iq.X] {
			w.unstable[dep] = true
		}
	}
	return sol, nil
}

// pick returns the unstable inequality to evaluate next, or -1 when the
// system is stable. The key is a total order (ties fall to the lower
// index), so the schedule — and with it the effort a plan reports — is
// reproducible run-to-run. A query has a handful of inequalities; a scan
// beats maintaining a heap under changing counts.
//
//dualsim:hotpath
func (s *System) pick(w *workspace, order Order, rank []int) int {
	best, bestKey, bestTie := -1, 0, 0
	for i, unstable := range w.unstable {
		if !unstable {
			continue
		}
		key, tie := i, 0
		switch iq := &s.ineqs[i]; {
		case rank != nil:
			key = rank[i]
		case order == DeclarationOrder:
		case iq.Kind == Copy:
			key = 0
		default:
			key, tie = 1+min(w.count[iq.X], w.count[iq.Y]), -iq.emptyCols
		}
		if best < 0 || key < bestKey || key == bestKey && tie < bestTie {
			best, bestKey, bestTie = i, key, tie
		}
	}
	return best
}

func (s *System) buildDeps() {
	if len(s.deps) == len(s.names) {
		return
	}
	s.deps = make([][]int, len(s.names))
	for i, iq := range s.ineqs {
		s.deps[iq.Y] = append(s.deps[iq.Y], i)
	}
}

// Verify checks that sol satisfies every inequality — the validity test of
// Sect. 4.5 ("checking whether a given relation S constitutes a valid
// assignment to E(Q) … may be performed in PTIME"). It returns the first
// violated inequality, or nil.
func (s *System) Verify(sol *Solution) *Ineq {
	scratch := bitvec.New(s.n)
	full := bitvec.NewFull(s.n)
	for i := range s.ineqs {
		iq := &s.ineqs[i]
		switch iq.Kind {
		case Copy:
			if !sol.Chi[iq.X].SubsetOf(sol.Chi[iq.Y]) {
				return iq
			}
		case Edge:
			// Unrestricted multiply: X must be ≤ Y ×b A outright.
			iq.Mats.Multiply(iq.Dir, sol.Chi[iq.Y], full, scratch, bitmat.RowWise)
			if !sol.Chi[iq.X].SubsetOf(scratch) {
				return iq
			}
		}
	}
	return nil
}
