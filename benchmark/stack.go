package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"dualsim"
	"dualsim/benchmark/workloads"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/cluster/router"
	"dualsim/internal/server"
	"dualsim/internal/sparql"
)

// outDir holds everything a run writes: the durable data dir and the span
// files. It sits inside the benchmark's own directory because a run may
// only write inside its checkout, which also means serve_mixed's fsyncs go
// to whatever file system the checkout is on.
var outDir = filepath.Join("benchmark", "out")

// stack is the system under test as one workload sees it, built only
// through the public entry points.
type stack struct {
	kind stackKind
	full *dualsim.Store // the whole dataset at epoch 0
	db   *dualsim.DB    // the session (inProcess, served); nil when routed
	cl   *client.Client // talks to the server (served) or the router (routed)

	rt       *router.Router
	shards   []*server.Server
	shardDBs []*dualsim.DB
	dir      string        // durable data dir (served)
	wire     *atomic.Int64 // response body bytes the benchmark's client read

	// applyMu orders writes with the snapshot taken right after each, so
	// an epoch a sampled read reports can be re-evaluated later. Only the
	// last few epochs stay in recent (a response's epoch is never older);
	// snapshotAt moves the ones a check needs into kept.
	applyMu sync.Mutex
	recent  map[uint64]*dualsim.Snapshot
	kept    map[uint64]*dualsim.Snapshot

	closers []func() error
}

// close stops everything the stack started, newest first, then removes the
// durable data dir. Closing twice is harmless.
func (s *stack) close() error {
	var first error
	for i := len(s.closers) - 1; i >= 0; i-- {
		if err := s.closers[i](); err != nil && first == nil {
			first = err
		}
	}
	s.closers = nil
	if s.dir != "" {
		if err := os.RemoveAll(s.dir); err != nil && first == nil {
			first = err
		}
		s.dir = ""
	}
	return first
}

// setUp builds the stack for w and warms it: every distinct read once, so
// lazy matrices, plan caches and connection pools are filled before timing.
// Input generation is not part of it — the triples are the benchmark's
// input, not the system's work.
func setUp(ctx context.Context, w *workload, in *inputs) (*stack, error) {
	s := &stack{kind: w.kind, wire: new(atomic.Int64), recent: map[uint64]*dualsim.Snapshot{}, kept: map[uint64]*dualsim.Snapshot{}}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	full, err := dualsim.FromTriples(in.triples)
	if err != nil {
		return nil, err
	}
	s.full = full
	switch w.kind {
	case inProcess:
		if s.db, err = s.open(full, dualsim.WithPlanCache(planCacheSize)); err != nil {
			return nil, err
		}
	case served:
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return nil, err
		}
		if s.dir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, err
		}
		s.db, err = s.open(full, dualsim.WithDataDir(s.dir), dualsim.WithPlanCache(planCacheSize),
			dualsim.WithCompactionThreshold(compactThreshold))
		if err != nil {
			return nil, err
		}
		s.recent[0] = s.db.Snapshot()
		srv, err := server.New(s.db)
		if err != nil {
			return nil, err
		}
		url, err := s.listen(srv)
		if err != nil {
			return nil, err
		}
		if s.cl, err = s.newClient(url); err != nil {
			return nil, err
		}
	case routed:
		if err := checkUnionPlacement(); err != nil {
			return nil, err
		}
		var endpoints [][]string
		for i := 0; i < 2; i++ {
			shard, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
			if err != nil {
				return nil, err
			}
			db, err := s.open(shard, dualsim.WithPlanCache(planCacheSize))
			if err != nil {
				return nil, err
			}
			srv, err := server.New(db)
			if err != nil {
				return nil, err
			}
			url, err := s.listen(srv)
			if err != nil {
				return nil, err
			}
			s.shards, s.shardDBs = append(s.shards, srv), append(s.shardDBs, db)
			endpoints = append(endpoints, []string{url})
		}
		if s.rt, err = router.New(endpoints); err != nil {
			return nil, err
		}
		s.rt.Probe(ctx)
		url, err := s.listen(s.rt.Handler())
		if err != nil {
			return nil, err
		}
		if s.cl, err = s.newClient(url); err != nil {
			return nil, err
		}
	}
	for _, o := range w.reads {
		if _, err := s.read(ctx, o.text, false); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", o.id, err)
		}
	}
	ok = true
	return s, nil
}

func (s *stack) open(st *dualsim.Store, opts ...dualsim.Option) (*dualsim.DB, error) {
	db, err := dualsim.Open(st, opts...)
	if err != nil {
		return nil, err
	}
	s.closers = append(s.closers, db.Close)
	return db, nil
}

// listen serves h on a loopback port until the stack closes.
func (s *stack) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h}
	done := make(chan error, 1)
	go func() { done <- hs.Serve(ln) }()
	s.closers = append(s.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return err
		}
		if err := <-done; !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	})
	return "http://" + ln.Addr().String(), nil
}

// newClient is a typed client on its own keep-alive pool (one connection
// per client goroutine) that counts the response bytes it reads. Retries
// are off: a shed request is a failed op, not a slower one.
func (s *stack) newClient(url string) (*client.Client, error) {
	tr := &http.Transport{MaxIdleConnsPerHost: httpClients}
	s.closers = append(s.closers, func() error { tr.CloseIdleConnections(); return nil })
	hc := &http.Client{Transport: countingTransport{tr, s.wire}}
	return client.New(url, client.WithRetries(0), client.WithHTTPClient(hc))
}

type countingTransport struct {
	rt http.RoundTripper
	n  *atomic.Int64
}

func (t countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := t.rt.RoundTrip(req)
	if err == nil {
		resp.Body = &countingBody{resp.Body, t.n}
	}
	return resp, err
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n.Add(int64(n))
	return n, err
}

// checkUnionPlacement re-derives each UNION's push-down/gather class from
// the placement function, so a frozen text can never silently change side.
func checkUnionPlacement() error {
	for _, u := range workloads.Unions {
		q, err := sparql.Parse(u.Text)
		if err != nil {
			return fmt.Errorf("%s: %w", u.ID, err)
		}
		un, ok := q.Expr.(sparql.Union)
		if !ok {
			return fmt.Errorf("%s is not a top-level UNION", u.ID)
		}
		gather := false
		for _, branch := range []sparql.Expr{un.L, un.R} {
			shardsSeen := map[int]bool{}
			for _, tp := range sparql.Triples(branch) {
				shardsSeen[cluster.ShardOf(tp.P.Const.Value, 2)] = true
			}
			gather = gather || len(shardsSeen) > 1
		}
		if gather != u.Gather {
			return fmt.Errorf("%s: placement says gather=%v, the frozen workload says %v", u.ID, gather, u.Gather)
		}
	}
	return nil
}

// answer is what one read returned, as far as the benchmark looks at it.
type answer struct {
	rows     int
	hash     uint64        // order-independent row hash; only when asked for
	firstRow time.Duration // request sent → first row decoded (HTTP, rows > 0)
	epoch    uint64
	stats    *dualsim.ExecStats
}

// read runs one query the way the workload's users would: db.Query in
// process, a drained NDJSON stream over HTTP.
func (s *stack) read(ctx context.Context, text string, wantHash bool, qopts ...client.QueryOpt) (answer, error) {
	if s.kind == inProcess {
		res, stats, err := s.db.Query(ctx, text)
		if err != nil {
			return answer{}, err
		}
		a := answer{rows: res.Len(), epoch: stats.Epoch, stats: stats}
		if wantHash {
			a.hash = hashResult(s.db.Store(), res)
		}
		return a, nil
	}
	t0 := time.Now()
	st, err := s.cl.QueryStream(ctx, text, qopts...)
	if err != nil {
		return answer{}, err
	}
	defer st.Close()
	var a answer
	var h rowHasher
	if wantHash {
		h = newRowHasher(st.Vars())
	}
	for st.Next() {
		if a.rows == 0 {
			a.firstRow = time.Since(t0)
		}
		a.rows++
		if wantHash {
			h.add(func(col int) (string, bool) {
				v := st.Row()[col]
				if v == nil {
					return "", false
				}
				return *v, true
			})
		}
	}
	if err := st.Err(); err != nil {
		return answer{}, err
	}
	if st.Rows() != a.rows {
		return answer{}, fmt.Errorf("stream trailer reports %d rows, %d arrived", st.Rows(), a.rows)
	}
	a.hash, a.epoch, a.stats = h.sum, st.Epoch(), st.Stats()
	return a, nil
}

// apply sends one write and pins the snapshot of the epoch it produced.
func (s *stack) apply(ctx context.Context, o *op) (*dualsim.ApplyStats, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	resp, err := s.cl.ApplyDelta(ctx, dualsim.Delta{Adds: o.adds, Dels: o.dels})
	if err != nil {
		return nil, err
	}
	snap := s.db.Snapshot()
	if snap.Epoch() != resp.Stats.Epoch {
		return nil, fmt.Errorf("apply acknowledged epoch %d, session is at %d", resp.Stats.Epoch, snap.Epoch())
	}
	s.recent[snap.Epoch()] = snap
	delete(s.recent, snap.Epoch()-recentEpochs)
	return &resp.Stats, nil
}

// recentEpochs is how many epochs back a snapshot stays available.
const recentEpochs = 8

// snapshotAt returns the pinned snapshot of an epoch a response just
// reported and keeps it for the post-window check.
func (s *stack) snapshotAt(epoch uint64) *dualsim.Snapshot {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if snap, ok := s.recent[epoch]; ok {
		s.kept[epoch] = snap
	}
	return s.kept[epoch]
}
