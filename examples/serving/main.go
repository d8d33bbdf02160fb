// Serving walks through the network subsystem end to end, in process:
// a dualsimd-style HTTP server (internal/server) is started on a
// loopback listener over the paper's Fig. 1(a) database, and the typed
// Go client drives every endpoint — health, a buffered query, an NDJSON
// row stream, a live delta with epoch-tagged re-query, compaction,
// metrics — before the server drains gracefully.
//
// The same flow works against a standalone daemon:
//
//	go run ./cmd/datagen -dataset kg -out kg.nt
//	go run ./cmd/dualsimd -store kg.nt -addr 127.0.0.1:8321
//	# then point client.New at http://127.0.0.1:8321
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"strings"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/queries"
	"dualsim/internal/server"
)

const queryX1 = `SELECT * WHERE {
  ?director <directed> ?movie .
  ?director <worked_with> ?coworker . }`

const queryX2 = `SELECT * WHERE {
  ?director <directed> ?movie .
  OPTIONAL { ?director <worked_with> ?coworker . } }`

func main() {
	ctx := context.Background()

	// --- Step 1: a session, exactly as in examples/quickstart -----------
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		log.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16))
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// --- Step 2: the serving subsystem on a loopback listener -----------
	// Admission control: at most 8 queries execute concurrently, 16 more
	// may queue, the rest shed with 429 + Retry-After.
	srv, err := server.New(db, server.WithMaxInFlight(8), server.WithQueueDepth(16))
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	hs := &http.Server{Handler: srv}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving Fig. 1(a) on %s\n", base)

	// --- Step 3: the typed client ----------------------------------------
	c, err := client.New(base, client.WithRetries(2))
	if err != nil {
		log.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("health: %s (epoch %d)\n", h.Status, h.Epoch)

	// A buffered query: one JSON envelope, epoch-tagged.
	out, err := c.Query(ctx, queryX1, client.Timeout(5*time.Second))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n(X1) over HTTP: %d rows at epoch %d (solver rounds %d, pruned %.0f%%)\n",
		len(out.Rows), out.Epoch, out.Stats.Solver.Rounds, 100*out.Stats.PrunedRatio())
	for _, row := range out.Rows {
		fmt.Printf("  %s\n", renderRow(out.Vars, row))
	}

	// --- Step 4: NDJSON streaming ----------------------------------------
	// Large results arrive row by row; the header and the stats trailer
	// carry the same epoch (MVCC consistency on the wire).
	stream, err := c.QueryStream(ctx, queryX2)
	if err != nil {
		log.Fatal(err)
	}
	n := 0
	for stream.Next() {
		n++
	}
	if err := stream.Err(); err != nil {
		log.Fatal(err)
	}
	stream.Close()
	fmt.Printf("\n(X2) streamed: %d rows, header epoch %d == stats epoch %d\n",
		n, stream.Epoch(), stream.Stats().Epoch)

	// --- Step 5: a live delta over the wire -------------------------------
	ar, err := c.ApplyDelta(ctx, dualsim.Delta{Adds: []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	}})
	if err != nil {
		log.Fatal(err)
	}
	out2, err := c.Query(ctx, queryX1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter Apply (+%d triples): epoch %d → %d, (X1) now %d rows\n",
		ar.Stats.Added, out.Epoch, out2.Epoch, len(out2.Rows))
	if len(out2.Rows) != len(out.Rows)+1 || out2.Epoch != ar.Stats.Epoch {
		log.Fatal("post-apply responses are not epoch-consistent")
	}

	// An empty delta is a no-op: the epoch stays, cached plans survive.
	nop, err := c.Apply(ctx, nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("empty delta: noOp=%v, epoch still %d\n", nop.Stats.NoOp, nop.Stats.Epoch)

	// --- Step 6: compaction and the snapshot view -------------------------
	if _, err := c.Compact(ctx); err != nil {
		log.Fatal(err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsnapshot: epoch %d, %d triples, overlay %d, %d compaction(s)\n",
		snap.Epoch, snap.Triples, snap.OverlaySize, snap.Compactions)

	// --- Step 7: live metrics ---------------------------------------------
	page, err := c.Metrics(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nselected /metrics series:")
	for _, line := range strings.Split(page, "\n") {
		if strings.HasPrefix(line, "dualsimd_queries_total") ||
			strings.HasPrefix(line, "dualsimd_plan_cache_hit_rate") ||
			strings.HasPrefix(line, "dualsimd_epoch") ||
			strings.HasPrefix(line, "dualsimd_shed_total") {
			fmt.Printf("  %s\n", line)
		}
	}

	// --- Step 8: graceful drain -------------------------------------------
	srv.StartDrain() // health flips to 503; in-flight work finishes
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Fatal(err)
	}
	if err := <-done; err != http.ErrServerClosed {
		log.Fatal(err)
	}
	fmt.Println("\ndrained cleanly")
}

// renderRow joins decoded bindings for display (— marks unbound).
func renderRow(vars []string, row []*string) string {
	parts := make([]string, len(vars))
	for i := range vars {
		if row[i] == nil {
			parts[i] = "—"
		} else {
			parts[i] = *row[i]
		}
	}
	return strings.Join(parts, "  ")
}
