// Updates walks through the live-update subsystem on a LUBM slice: load
// a generated store, serve a query through the plan cache, apply a delta
// that changes its answer — a new advisor/teacher/assistant triangle and
// a deleted advisor edge — and re-query. The epoch-scoped plan cache
// re-plans on the new snapshot (no stale candidates can survive an
// update), while a Snapshot pinned before the apply keeps answering from
// the old epoch: MVCC-lite with a single writer.
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"dualsim"
)

// The L0 triangle of the paper's Fig. 6(a).
const queryL0 = `SELECT * WHERE {
  ?student <ub:advisor> ?professor .
  ?professor <ub:teacherOf> ?course .
  ?student <ub:teachingAssistantOf> ?course . }`

func main() {
	ctx := context.Background()
	st, err := dualsim.GenerateLUBMStore(2, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("LUBM slice: %d triples, %d nodes, %d predicates\n\n",
		st.NumTriples(), st.NumNodes(), st.NumPreds())

	// --- Step 1: a serving session over the store ----------------------
	// The plan cache makes repeated texts cheap; the compaction threshold
	// arms an automatic store rebuild once enough triples have changed.
	db, err := dualsim.Open(st,
		dualsim.WithPlanCache(16),
		dualsim.WithCompactionThreshold(1<<14))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	res, stats, err := db.Query(ctx, queryL0)
	if err != nil {
		log.Fatal(err)
	}
	before := res.Len()
	fmt.Printf("epoch %d: L0 has %d matches (%.0f%% of triples pruned)\n",
		stats.Epoch, before, 100*stats.PrunedRatio())

	// --- Step 2: pin a snapshot before writing -------------------------
	pinned := db.Snapshot()

	// --- Step 3: apply a delta that changes the answer -----------------
	// A brand-new triangle joins (one new match); deleting one existing
	// advisor edge can only remove matches.
	adds := []dualsim.Triple{
		dualsim.T("NewStudent", "ub:advisor", "NewProf"),
		dualsim.T("NewProf", "ub:teacherOf", "NewCourse"),
		dualsim.T("NewStudent", "ub:teachingAssistantOf", "NewCourse"),
	}
	as, err := db.Apply(ctx, dualsim.Delta{Adds: adds})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\napplied +%d/−%d triples in %v: epoch %d, overlay %d, %d predicate indexes rebuilt\n",
		as.Added, as.Deleted, as.Duration, as.Epoch, as.OverlaySize, as.TouchedPreds)

	// --- Step 4: re-query — the cache re-plans on the new epoch --------
	res, stats, err = db.Query(ctx, queryL0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("epoch %d: L0 has %d matches (cache hit: %v — the epoch key forced a re-plan)\n",
		stats.Epoch, res.Len(), stats.CacheHit)
	if res.Len() != before+1 {
		log.Fatalf("expected %d matches after the delta, got %d", before+1, res.Len())
	}

	// --- Step 5: the pinned snapshot still answers from epoch 0 --------
	oldRes, oldStats, err := pinned.Query(ctx, queryL0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pinned snapshot (epoch %d): still %d matches\n", oldStats.Epoch, oldRes.Len())
	if oldRes.Len() != before {
		log.Fatalf("pinned snapshot drifted: %d matches, want %d", oldRes.Len(), before)
	}

	// --- Step 6: deletes, and on-demand compaction ---------------------
	as, err = db.Apply(ctx, dualsim.Delta{Dels: adds})
	if err != nil {
		log.Fatal(err)
	}
	res, stats, err = db.Query(ctx, queryL0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreverted the delta: epoch %d, %d matches again\n", stats.Epoch, res.Len())
	if res.Len() != before {
		log.Fatalf("revert failed: %d matches, want %d", res.Len(), before)
	}
	cs, err := db.Compact(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted in %v: epoch %d, %d triples, change count reset to %d\n",
		cs.Duration, cs.Epoch, db.Store().NumTriples(), cs.OverlaySize)

	fmt.Printf("\nplan cache: %+v\n", db.CacheStats())

	// --- Step 7: durability — checkpoint and warm restart ---------------
	// The steps above lose everything on process exit. With a data dir
	// the same write path is durable: Apply WAL-logs (and fsyncs) every
	// delta before acknowledging it, Checkpoint rolls the log into a
	// binary snapshot, and OpenDir restarts from disk — same epoch, same
	// answers, no re-ingestion of the generated store.
	dataDir, err := os.MkdirTemp("", "dualsim-updates-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	dur, err := dualsim.Open(st, dualsim.WithPlanCache(16), dualsim.WithDataDir(dataDir))
	if err != nil {
		log.Fatal(err)
	}
	das, err := dur.Apply(ctx, dualsim.Delta{Adds: adds})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndurable apply: epoch %d, %d WAL bytes (fsync %v)\n",
		das.Epoch, das.WALBytes, das.FsyncLatency)
	ck, err := dur.Checkpoint(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoint: epoch %d snapshot (%d bytes), %d WAL bytes reclaimed\n",
		ck.Epoch, ck.SnapshotBytes, ck.WALReclaimed)
	dur.Close()

	warm, err := dualsim.OpenDir(dataDir, dualsim.WithPlanCache(16))
	if err != nil {
		log.Fatal(err)
	}
	defer warm.Close()
	warmRes, warmStats, err := warm.Query(ctx, queryL0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("warm restart: epoch %d, L0 has %d matches (from snapshot + WAL tail, no RDF re-parse)\n",
		warmStats.Epoch, warmRes.Len())
	if warmStats.Epoch != das.Epoch || warmRes.Len() != before+1 {
		log.Fatalf("warm restart drifted: epoch %d with %d matches, want %d with %d",
			warmStats.Epoch, warmRes.Len(), das.Epoch, before+1)
	}
}
