// Benchmarks regenerating every table and figure of the paper's
// evaluation (Sect. 5). One benchmark family per table:
//
//	BenchmarkTable2…     SOI vs. Ma et al. vs. HHK per B query
//	BenchmarkTable3…     pruning (SOI + mask construction) per query
//	BenchmarkTable4…     Volcano executor, full vs. pruned, per query
//	BenchmarkTable5…     index-NL oracle, full vs. pruned, per query
//	BenchmarkFig6…       the L0/L1 mandatory cores (§5.3 convergence)
//	BenchmarkAblation…   §3.3 strategy/ordering/encoding/init switches
//
// Absolute numbers are laptop-scale; the paper-vs-measured comparison
// lives in EXPERIMENTS.md. Run `go run ./cmd/benchtables` for the
// table-formatted view.
package dualsim_test

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/baseline"
	"dualsim/internal/bench"
	"dualsim/internal/bitmat"
	"dualsim/internal/bitvec"
	"dualsim/internal/core"
	"dualsim/internal/engine"
	"dualsim/internal/prune"
	"dualsim/internal/queries"
	"dualsim/internal/soi"
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

func BenchmarkTable2SOI(b *testing.B) {
	for _, spec := range queries.BenchmarkQueries() {
		st := storeFor(b, spec)
		pat, err := bench.StripOptionalQuery(spec)
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
		pat, err := bench.StripOptionalQuery(spec)
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
		pat, err := bench.StripOptionalQuery(spec)
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

// ---------------------------------------------------------------------------
// Throughput layer: plan cache + batched execution + pooled solver state.

// BenchmarkQueryCached contrasts the serving paths for a repeated query:
// "replan" pays parse + SOI lowering + finalization on every call (the
// pre-cache behavior), "cached" hits the session's plan cache and runs
// only the execution pipeline on pooled solver state. allocs/op is the
// headline: the cache-hit path allocates no new PreparedQuery and the
// solver reuses its χ/scratch workspace.
func BenchmarkQueryCached(b *testing.B) {
	// L0: a query whose planning cost is a sizable share of the total
	// (sub-100µs execution), so the cache's effect is visible in ns/op
	// and not drowned by the join engine.
	spec, err := queries.ByID("L0")
	if err != nil {
		b.Fatal(err)
	}
	st := storeFor(b, spec)
	b.Run("replan", func(b *testing.B) {
		db, err := dualsim.Open(st)
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.Exec(context.Background(), spec.Text); err != nil {
			b.Fatal(err) // warm the lazy matrices outside the timed loop
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Exec(context.Background(), spec.Text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		db, err := dualsim.Open(st, dualsim.WithPlanCache(4))
		if err != nil {
			b.Fatal(err)
		}
		if _, _, err := db.Query(context.Background(), spec.Text); err != nil {
			b.Fatal(err) // warm the cache outside the timed loop
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := db.Query(context.Background(), spec.Text); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if db.PlanBuilds() != 1 {
			b.Fatalf("cache-hit path rebuilt plans: %d builds", db.PlanBuilds())
		}
	})
}

// BenchmarkExecBatch measures batched concurrent execution through the
// shared plan cache at several pool widths.
func BenchmarkExecBatch(b *testing.B) {
	var reqs []dualsim.BatchRequest
	var st *storage.Store
	for _, id := range []string{"L2", "L4", "L2", "L5", "L2", "L4", "L5", "L2"} {
		spec, err := queries.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		st = storeFor(b, spec) // all L queries share the LUBM store
		reqs = append(reqs, dualsim.BatchRequest{Src: spec.Text})
	}
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers%d", workers), func(b *testing.B) {
			db, err := dualsim.Open(st, dualsim.WithPlanCache(8), dualsim.WithBatchWorkers(workers))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := db.ExecBatch(context.Background(), reqs); err != nil {
				b.Fatal(err) // warm cache and pools outside the timed loop
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := db.ExecBatch(context.Background(), reqs)
				if err != nil {
					b.Fatal(err)
				}
				for j := range out {
					if out[j].Err != nil {
						b.Fatal(out[j].Err)
					}
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Serving layer: the dualsimd loopback hot path.

// BenchmarkServeQuery measures the end-to-end network serving path: a
// real HTTP server (internal/server) on 127.0.0.1 and the typed Go
// client, per-op = serialize + loopback round-trip + plan-cache hit +
// execute + decode. "buffered" returns one JSON envelope, "streamed"
// decodes the NDJSON row stream. p50-latency and the plan-cache hit
// rate are reported as benchmark metrics — the serving numbers the
// bench.Serving table tracks across PRs.
func BenchmarkServeQuery(b *testing.B) {
	spec, err := queries.ByID("L0")
	if err != nil {
		b.Fatal(err)
	}
	st := storeFor(b, spec)
	for _, mode := range []string{"buffered", "streamed"} {
		b.Run(mode, func(b *testing.B) {
			db, err := dualsim.Open(st, dualsim.WithPlanCache(8))
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			cl, shutdown, err := bench.Loopback(db)
			if err != nil {
				b.Fatal(err)
			}
			defer shutdown()
			ctx := context.Background()
			if _, err := cl.Query(ctx, spec.Text); err != nil {
				b.Fatal(err) // warm matrices and the plan cache untimed
			}
			lat := make([]time.Duration, 0, b.N)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				if mode == "buffered" {
					if _, err := cl.Query(ctx, spec.Text); err != nil {
						b.Fatal(err)
					}
				} else {
					s, err := cl.QueryStream(ctx, spec.Text)
					if err != nil {
						b.Fatal(err)
					}
					for s.Next() {
					}
					if err := s.Err(); err != nil {
						b.Fatal(err)
					}
					s.Close()
				}
				lat = append(lat, time.Since(t0))
			}
			b.StopTimer()
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			b.ReportMetric(float64(bench.Quantile(lat, 0.50)), "p50-ns")
			b.ReportMetric(db.CacheStats().HitRate(), "hit-rate")
		})
	}
}

// BenchmarkQueryParse measures the parser on the whole workload.
func BenchmarkQueryParse(b *testing.B) {
	specs := queries.All()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range specs {
			if _, err := sparql.Parse(s.Text); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Live-update layer: delta overlay + epoch snapshots.

// BenchmarkApply measures a small steady-state Apply (one add + one
// delete on a dedicated predicate): ledger staging, per-predicate
// incremental re-index, snapshot swap and cache invalidation.
func BenchmarkApply(b *testing.B) {
	spec, err := queries.ByID("L0")
	if err != nil {
		b.Fatal(err)
	}
	db, err := dualsim.Open(storeFor(b, spec), dualsim.WithPlanCache(4))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, err := db.Apply(ctx, dualsim.Delta{
		Adds: []dualsim.Triple{dualsim.T("upd:s0", "upd:edge", "upd:o0")},
	}); err != nil {
		b.Fatal(err) // intern the update predicate outside the timed loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := db.Apply(ctx, dualsim.Delta{
			Adds: []dualsim.Triple{dualsim.T(fmt.Sprintf("upd:s%d", i+1), "upd:edge", fmt.Sprintf("upd:o%d", i+1))},
			Dels: []dualsim.Triple{dualsim.T(fmt.Sprintf("upd:s%d", i), "upd:edge", fmt.Sprintf("upd:o%d", i))},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryAfterApply measures the post-update serving cost: every
// iteration applies a delta and then queries, so each Query is an
// epoch-keyed cache miss that re-plans against the new snapshot —
// contrast with the cache-hit path of BenchmarkQueryCached.
func BenchmarkQueryAfterApply(b *testing.B) {
	spec, err := queries.ByID("L0")
	if err != nil {
		b.Fatal(err)
	}
	db, err := dualsim.Open(storeFor(b, spec), dualsim.WithPlanCache(4))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	if _, _, err := db.Query(ctx, spec.Text); err != nil {
		b.Fatal(err) // warm matrices and pools outside the timed loop
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Apply(ctx, dualsim.Delta{
			Adds: []dualsim.Triple{dualsim.T(fmt.Sprintf("upd:s%d", i), "upd:edge", fmt.Sprintf("upd:o%d", i))},
		}); err != nil {
			b.Fatal(err)
		}
		_, stats, err := db.Query(ctx, spec.Text)
		if err != nil {
			b.Fatal(err)
		}
		if stats.CacheHit {
			b.Fatal("post-update query served a stale plan")
		}
	}
}
