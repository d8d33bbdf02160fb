// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sect. 5). One benchmark family per table:
//
//	BenchmarkTable2…     SOI vs. Ma et al. vs. HHK per B query
//	BenchmarkTable3…     pruning (SOI + mask construction) per query
//	BenchmarkTable4…     Volcano executor, full vs. pruned, per query
//	BenchmarkTable5…     index-NL oracle, full vs. pruned, per query
//	BenchmarkFig6…       the L0/L1 mandatory cores (§5.3 convergence)
//	BenchmarkAblation…   §3.3 strategy/ordering/encoding/init switches
//	BenchmarkMicro…      the ×b kernels
//
// Absolute numbers are laptop-scale. Run `go run ./cmd/benchtables` for
// the table-formatted view; the serving layers are measured by the
// benchmark module under benchmark/.
package dualsim_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dualsim/internal/baseline"
	"dualsim/internal/bench"
	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/soi"
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

func BenchmarkTable2SOI(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		pat, err := queries.ToPattern(queries.StripOptional(spec.Query().Expr))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(spec.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				core.DualSimulation(st, pat, core.Config{})
			}
		})
	}
}

func BenchmarkTable2MaEtAl(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		pat, err := queries.ToPattern(queries.StripOptional(spec.Query().Expr))
		if err != nil {
			b.Fatal(err)
		}
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
		pat, err := queries.ToPattern(queries.StripOptional(spec.Query().Expr))
		if err != nil {
			b.Fatal(err)
		}
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
		pat, err := queries.ToPattern(queries.MandatoryCore(spec.Query().Expr))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id, func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				rel := core.DualSimulation(st, pat, core.Config{})
				rounds = rel.Stats.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// ---------------------------------------------------------------------------
// Ablations (§3.3 and §5.1).

// ablationSpecs picks one query per convergence class.
func ablationSpecs(b *testing.B) []queries.Spec {
	var out []queries.Spec
	for _, id := range []string{"L0", "L1", "L2", "B14", "B17"} {
		s, err := queries.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, s)
	}
	return out
}

func BenchmarkAblationStrategy(b *testing.B) {
	strategies := map[string]bitmat.Strategy{
		"auto": bitmat.Auto, "rowwise": bitmat.RowWise, "colwise": bitmat.ColWise,
	}
	for _, spec := range ablationSpecs(b) {
		st := storeFor(b, spec)
		q := spec.Query()
		for name, strat := range strategies {
			b.Run(spec.ID+"/"+name, func(b *testing.B) {
				cfg := core.Config{Strategy: strat}
				for i := 0; i < b.N; i++ {
					if _, err := core.QueryDualSimulation(st, q, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblationOrdering(b *testing.B) {
	orders := map[string]soi.Order{
		"sparsest-first": soi.SparsestFirst, "declaration": soi.DeclarationOrder,
	}
	for _, spec := range ablationSpecs(b) {
		st := storeFor(b, spec)
		q := spec.Query()
		for name, ord := range orders {
			b.Run(spec.ID+"/"+name, func(b *testing.B) {
				cfg := core.Config{Order: ord}
				for i := 0; i < b.N; i++ {
					if _, err := core.QueryDualSimulation(st, q, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblationInit(b *testing.B) {
	for _, spec := range ablationSpecs(b) {
		st := storeFor(b, spec)
		q := spec.Query()
		for name, plain := range map[string]bool{"summary13": false, "plain12": true} {
			b.Run(spec.ID+"/"+name, func(b *testing.B) {
				cfg := core.Config{PlainInit: plain}
				for i := 0; i < b.N; i++ {
					if _, err := core.QueryDualSimulation(st, q, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblationParallel(b *testing.B) {
	for _, spec := range ablationSpecs(b) {
		st := storeFor(b, spec)
		q := spec.Query()
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers%d", spec.ID, workers), func(b *testing.B) {
				cfg := core.Config{Workers: workers}
				for i := 0; i < b.N; i++ {
					if _, err := core.QueryDualSimulation(st, q, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkAblationEncoding(b *testing.B) {
	for _, spec := range ablationSpecs(b) {
		st := storeFor(b, spec)
		q := spec.Query()
		for name, compressed := range map[string]bool{"csr": false, "compressed": true} {
			b.Run(spec.ID+"/"+name, func(b *testing.B) {
				cfg := core.Config{Compressed: compressed}
				for i := 0; i < b.N; i++ {
					if _, err := core.QueryDualSimulation(st, q, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
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
