// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sect. 5). One benchmark family per table:
//
//	BenchmarkTable2…     SOI vs. Ma et al. vs. HHK per B query
//	BenchmarkTable3…     pruning (SOI + mask construction) per query
//	BenchmarkTable4…     Volcano executor, full vs. pruned, per query
//	BenchmarkTable5…     index-NL oracle, full vs. pruned, per query
//	BenchmarkFig6…       the L0/L1 mandatory cores (§5.3 convergence)
//	BenchmarkMicro…      the ×b kernels, row-wise and column-wise
//	BenchmarkQueryHit    a plan-cache hit beside a prepared execution
//
// The solver runs in its one configuration throughout; the order space
// it searches is measured by `go run ./cmd/benchtables -table orders`.
// Absolute numbers are laptop-scale. Run `go run ./cmd/benchtables` for
// the table-formatted view; the serving layers are measured by the
// benchmark module under benchmark/.
package dualsim_test

import (
	"context"
	"sync"
	"testing"

	"dualsim"
	"dualsim/internal/baseline"
	"dualsim/internal/bench"
	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/sparql"
	"dualsim/internal/storage"
)

var (
	benchOnce sync.Once
	benchData *bench.Datasets
)

// datasets are built once and shared; scale chosen so the full -bench=.
// sweep stays in the minutes range (L1's full-store hash join is the
// pacing item: its intermediate results explode super-linearly with the
// university count — the very effect Table 4 measures).
func datasets(b *testing.B) *bench.Datasets {
	b.Helper()
	benchOnce.Do(func() {
		var err error
		benchData, err = bench.Setup(2, 1, 42)
		if err != nil {
			panic(err)
		}
	})
	return benchData
}

func storeFor(b *testing.B, spec queries.Spec) *storage.Store {
	return datasets(b).StoreFor(spec)
}

// ---------------------------------------------------------------------------
// Table 2: dual simulation algorithms on OPTIONAL-stripped B queries.

// table2Query is a B query with its OPTIONAL parts made mandatory: one
// basic graph pattern, the pattern graph Table 2 compares on.
func table2Query(spec queries.Spec) *sparql.Query {
	return &sparql.Query{Expr: queries.StripOptional(spec.Query().Expr)}
}

func BenchmarkTable2SOI(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		q := table2Query(spec)
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.QueryDualSimulation(st, q, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable2MaEtAl(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		pat := patternBranch(b, st, table2Query(spec).Expr)
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.MaEtAl(st, pat)
			}
		})
	}
}

func BenchmarkTable2HHK(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		pat := patternBranch(b, st, table2Query(spec).Expr)
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				baseline.HHK(st, pat)
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Table 3: SPARQLSIM pruning time per query (the t_SPARQLSIM column).

func BenchmarkTable3Pruning(b *testing.B) {
	for _, spec := range queries.All() {
		st := storeFor(b, spec)
		q := spec.Query()
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := prune.PruneQuery(st, q, core.Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Tables 4 and 5: evaluation on full vs. pruned stores.

func benchmarkEngineTable(b *testing.B, eng engine.Engine) {
	for _, spec := range queries.All() {
		st := storeFor(b, spec)
		q := spec.Query()
		p, _, err := prune.PruneQuery(st, q, core.Config{})
		if err != nil {
			b.Fatal(err)
		}
		pruned := p.Store()
		b.Run(spec.ID+"/full", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Evaluate(context.Background(), st, q); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(spec.ID+"/pruned", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.Evaluate(context.Background(), pruned, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTable4Volcano(b *testing.B) {
	benchmarkEngineTable(b, engine.NewVolcano())
}

func BenchmarkTable5IndexNL(b *testing.B) {
	benchmarkEngineTable(b, engine.NewIndexNL())
}

// ---------------------------------------------------------------------------
// Fig. 6 / §5.3: the mandatory cores of L0 and L1.

func BenchmarkFig6Cores(b *testing.B) {
	for _, id := range []string{"L0", "L1"} {
		spec, err := queries.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		st := storeFor(b, spec)
		q := &sparql.Query{Expr: queries.MandatoryCore(spec.Query().Expr)}
		b.Run(id, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				rel, err := core.QueryDualSimulation(st, q, core.Config{})
				if err != nil {
					b.Fatal(err)
				}
				rounds = rel.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// ---------------------------------------------------------------------------
// Micro-benchmarks for the ×b kernels (§3.2 engineering).

func BenchmarkMicroMultiply(b *testing.B) {
	d := datasets(b)
	st := d.LUBM
	pid, ok := st.PredIDOf("ub:takesCourse")
	if !ok {
		b.Fatal("ub:takesCourse missing")
	}
	mats := st.Matrices(pid)
	n := st.NumNodes()
	x := bitvec.NewFull(n)
	cand := bitvec.NewFull(n)
	dst := bitvec.New(n)
	for name, strat := range map[string]bitmat.Strategy{
		"rowwise": bitmat.RowWise, "colwise": bitmat.ColWise,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mats.Multiply(bitmat.Forward, x, cand, dst, strat)
			}
		})
	}
}

func BenchmarkMicroBitvecAnd(b *testing.B) {
	x := bitvec.NewFull(1 << 16)
	y := bitvec.New(1 << 16)
	for i := 0; i < 1<<16; i += 3 {
		y.Set(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z := x.Clone()
		z.And(y)
	}
}

// ---------------------------------------------------------------------------
// The serving path's plan-cache hit: L3 (constant-anchored, one row) on
// LUBM(1), through db.Query as a hit and through PreparedQuery.Exec of
// the same text. Both run the cached plan; the difference is the lookup.

func BenchmarkQueryHit(b *testing.B) {
	st, err := dualsim.FromTriples(dualsim.GenerateLUBM(1, 42))
	if err != nil {
		b.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	l3, err := queries.ByID("L3")
	if err != nil {
		b.Fatal(err)
	}
	pq, err := db.Prepare(l3.Text)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, c := range []struct {
		name string
		hit  bool
		run  func() (*dualsim.Result, *dualsim.ExecStats, error)
	}{
		{"Query", true, func() (*dualsim.Result, *dualsim.ExecStats, error) { return db.Query(ctx, l3.Text) }},
		{"Exec", false, func() (*dualsim.Result, *dualsim.ExecStats, error) { return pq.Exec(ctx) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if _, _, err := c.run(); err != nil { // plans on the first Query
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, stats, err := c.run()
				if err != nil {
					b.Fatal(err)
				}
				if res.Len() != 1 || stats.CacheHit != c.hit {
					b.Fatalf("L3: %d rows, hit=%v; want 1 row, hit=%v", res.Len(), stats.CacheHit, c.hit)
				}
			}
		})
	}
}
