package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/persist"
)

// Follower is a WAL-streaming read replica of one primary dualsimd: it
// bootstraps a session from the primary's streamed snapshot, then tails
// GET /v1/wal and replays every record through DB.Replay, the writer
// crash recovery uses — so a replica's epochs, plan cache and snapshots
// behave exactly like a primary's, just driven by the stream instead of
// clients. On an epoch gap (the primary checkpointed records away, or
// the stream skipped) it re-bootstraps into a fresh session; DB returns
// the new one from then on, while reads already running finish on the
// old one. Serve it with server.NewReplica, which resolves DB per
// request.
//
// The replica session is deliberately non-durable: its durability IS
// the primary's WAL, and re-bootstrapping is always cheaper and safer
// than reconciling a second log against the primary's.
type Follower struct {
	c        *client.Client
	url      string
	maxLag   uint64
	pollWait time.Duration // long-poll window passed to GET /v1/wal
	retry    time.Duration // backoff after a failed bootstrap or tail round
	logf     func(string, ...any)
	sessOpts []dualsim.Option

	db           atomic.Pointer[dualsim.DB]
	primaryEpoch atomic.Uint64
	bootstraps   atomic.Int64
	applied      atomic.Int64
	gaps         atomic.Int64
}

// FollowerOption configures a Follower.
type FollowerOption func(*Follower) error

// WithMaxLag sets the bounded-staleness readiness threshold: the
// replica reports not-ready while it is more than n epochs behind the
// primary (default 0 — only a fully caught-up replica is ready).
func WithMaxLag(n uint64) FollowerOption {
	return func(f *Follower) error {
		f.maxLag = n
		return nil
	}
}

// WithLogf directs the follower's progress/retry lines (default: silent).
func WithLogf(fn func(string, ...any)) FollowerOption {
	return func(f *Follower) error {
		if fn == nil {
			return fmt.Errorf("cluster: nil log function")
		}
		f.logf = fn
		return nil
	}
}

// WithSessionOptions forwards session options (plan cache size, …) to
// every session the follower opens. WithDataDir makes Follow fail —
// replicas re-bootstrap, they do not recover.
func WithSessionOptions(opts ...dualsim.Option) FollowerOption {
	return func(f *Follower) error {
		f.sessOpts = append(f.sessOpts, opts...)
		return nil
	}
}

// Follow builds a follower of the primary at primaryURL, serving an
// empty session at epoch 0 until the first bootstrap. Nothing is
// fetched yet — Bootstrap (or Run, which bootstraps as needed) makes
// the first contact.
func Follow(primaryURL string, opts ...FollowerOption) (*Follower, error) {
	c, err := client.New(primaryURL)
	if err != nil {
		return nil, err
	}
	f := &Follower{
		c:        c,
		url:      primaryURL,
		pollWait: 2 * time.Second,
		retry:    500 * time.Millisecond,
		logf:     func(string, ...any) {},
	}
	for _, opt := range opts {
		if err := opt(f); err != nil {
			return nil, err
		}
	}
	empty, err := dualsim.FromTriples(nil)
	if err != nil {
		return nil, err
	}
	db, err := dualsim.OpenAt(empty, 0, f.sessOpts...)
	if err != nil {
		return nil, err
	}
	f.db.Store(db)
	return f, nil
}

// DB returns the replica's current session: the empty epoch-0 session
// before the first bootstrap, never nil. The pointer swaps atomically
// on re-bootstrap; resolve it once per request, as
// server.NewReplica does.
func (f *Follower) DB() *dualsim.DB { return f.db.Load() }

// Ready is the replica's readiness, which server.NewReplica serves at
// /readyz: an error before the first bootstrap completes, and while
// the replica lags more than the staleness bound behind the primary's
// last known epoch.
func (f *Follower) Ready() error {
	if f.bootstraps.Load() == 0 {
		return errors.New("cluster: replica bootstrapping")
	}
	if p, cur := f.primaryEpoch.Load(), f.db.Load().Epoch(); p > cur && p-cur > f.maxLag {
		return fmt.Errorf("cluster: replica at epoch %d lags the primary at %d beyond the bound of %d", cur, p, f.maxLag)
	}
	return nil
}

// FollowerStats is a point-in-time view of replication progress.
//
//dualsim:wire
type FollowerStats struct {
	// Epoch is the replica's session epoch (0 before bootstrap).
	Epoch uint64 `json:"epoch"`
	// PrimaryEpoch is the primary's epoch as of the last header seen.
	PrimaryEpoch uint64 `json:"primaryEpoch"`
	// Lag is max(0, PrimaryEpoch-Epoch).
	Lag uint64 `json:"lag"`
	// Bootstraps counts snapshot bootstraps (1 after a clean start;
	// more after epoch gaps forced re-bootstraps).
	Bootstraps int64 `json:"bootstraps"`
	// Applied counts WAL records replayed into the session.
	Applied int64 `json:"applied"`
	// Gaps counts epoch gaps that forced a re-bootstrap.
	Gaps int64 `json:"gaps"`
}

// Stats returns the current replication counters.
func (f *Follower) Stats() FollowerStats {
	s := FollowerStats{
		Epoch:        f.db.Load().Epoch(),
		PrimaryEpoch: f.primaryEpoch.Load(),
		Bootstraps:   f.bootstraps.Load(),
		Applied:      f.applied.Load(),
		Gaps:         f.gaps.Load(),
	}
	if s.PrimaryEpoch > s.Epoch {
		s.Lag = s.PrimaryEpoch - s.Epoch
	}
	return s
}

// Bootstrap downloads the primary's snapshot, opens a fresh session at
// its epoch and makes it the one DB returns. The previous session is
// NOT closed: in-flight reads may still hold its pinned snapshots, and a
// non-durable session holds nothing the GC cannot reclaim.
func (f *Follower) Bootstrap(ctx context.Context) error {
	st, epoch, err := f.c.BootstrapSnapshot(ctx)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap snapshot: %w", err)
	}
	db, err := dualsim.OpenAt(st, epoch, f.sessOpts...)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap session: %w", err)
	}
	f.db.Store(db)
	f.bootstraps.Add(1)
	// The snapshot proves the primary reached this epoch; the next tail
	// header will refresh the exact value.
	if epoch > f.primaryEpoch.Load() {
		f.primaryEpoch.Store(epoch)
	}
	f.logf("cluster: bootstrapped replica of %s at epoch %d", f.url, epoch)
	return nil
}

// Run is the replication loop: bootstrap when needed, then tail the
// primary's WAL and replay each record, re-bootstrapping on epoch gaps.
// It returns only when ctx is cancelled (transient failures back off
// and retry — a replica's job is to keep following).
func (f *Follower) Run(ctx context.Context) error {
	needBootstrap := f.bootstraps.Load() == 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if needBootstrap {
			if err := f.Bootstrap(ctx); err != nil {
				if ctx.Err() != nil {
					return ctx.Err()
				}
				f.logf("cluster: bootstrap failed (will retry): %v", err)
				if !sleepCtx(ctx, f.retry) {
					return ctx.Err()
				}
				continue
			}
			needBootstrap = false
		}
		err := f.tailOnce(ctx)
		switch {
		case err == nil:
		case ctx.Err() != nil:
			return ctx.Err()
		case errors.Is(err, client.ErrWALGap), errors.Is(err, persist.ErrEpochGap):
			// The records between our epoch and the primary's surviving
			// WAL are gone (checkpoint truncation), or the stream itself
			// skipped — either way replaying would diverge. Re-bootstrap;
			// the stale session keeps serving reads meanwhile.
			f.gaps.Add(1)
			f.logf("cluster: epoch gap, re-bootstrapping: %v", err)
			needBootstrap = true
		default:
			f.logf("cluster: tail failed (will retry): %v", err)
			if !sleepCtx(ctx, f.retry) {
				return ctx.Err()
			}
		}
	}
}

// tailOnce runs one tail round: fetch records after the current epoch
// (long-polling when the primary is idle) and replay them in order.
func (f *Follower) tailOnce(ctx context.Context) error {
	db := f.db.Load()
	recs, primary, err := f.c.TailWAL(ctx, db.Epoch(), f.pollWait)
	// A refused tail still names the primary's epoch: keep it when it
	// is ahead, so the lag (and Ready) shows a replica stuck behind it.
	if err == nil || primary > f.primaryEpoch.Load() {
		f.primaryEpoch.Store(primary)
	}
	if err != nil {
		return err
	}
	// Replay's epoch discipline: a re-sent record is skipped, a gap
	// makes Run re-bootstrap, a divergence is an error. Every record
	// applied moves the epoch by one.
	before := db.Epoch()
	err = db.Replay(ctx, recs)
	f.applied.Add(int64(db.Epoch() - before))
	return err
}

// sleepCtx sleeps d or until ctx cancels; reports whether the full
// sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}
