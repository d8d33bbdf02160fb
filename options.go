package dualsim

import (
	"fmt"

	"dualsim/internal/bitmat"
	"dualsim/internal/core"
	"dualsim/internal/soi"
)

// Option configures a session opened with Open: the solver switches
// (strategy, ordering, initialization, compression, parallelism) and the
// pipeline switches (pruning, fingerprint pre-filter) are all fixed per
// session, so every query prepared on the session inherits them.
type Option func(*settings) error

// settings is the resolved session configuration.
type settings struct {
	engine       EngineKind
	strategy     Strategy
	declOrder    bool
	plainInit    bool
	compressed   bool
	shortCircuit bool
	workers      int

	pruning      bool
	fingerprint  bool
	fingerprintK int

	planCache    int // > 0 enables the LRU plan cache with that capacity
	batchWorkers int // > 0 fixes the ExecBatch pool width

	compactThreshold int // > 0 arms automatic overlay compaction

	dataDir         string // non-empty makes the session durable (snapshot + WAL)
	checkpointEvery int    // > 0 checkpoints automatically every n WAL records

	maxQueryMemory int64 // > 0 caps per-query buffered bytes in the Volcano executor
}

func defaultSettings() settings {
	return settings{engine: Volcano, pruning: true}
}

// coreConfig lowers the session settings to the solver configuration.
func (s settings) coreConfig() core.Config {
	cfg := core.Config{
		PlainInit:    s.plainInit,
		Compressed:   s.compressed,
		ShortCircuit: s.shortCircuit,
		Workers:      s.workers,
	}
	switch s.strategy {
	case RowWiseStrategy:
		cfg.Strategy = bitmat.RowWise
	case ColWiseStrategy:
		cfg.Strategy = bitmat.ColWise
	}
	if s.declOrder {
		cfg.Order = soi.DeclarationOrder
	}
	return cfg
}

// WithEngine is the oracle hook: WithEngine(IndexNL) opens a session whose
// evaluation is answered by the IndexNL oracle instead of the Volcano
// executor, for checking the executor's answers (the repository benchmark
// pins its expected rows this way). Serving code never passes it.
func WithEngine(k EngineKind) Option {
	return func(s *settings) error {
		switch k {
		case Volcano, IndexNL:
			s.engine = k
			return nil
		default:
			return fmt.Errorf("dualsim: unknown engine kind %d", k)
		}
	}
}

// WithStrategy selects the ×b evaluation strategy of the solver (default
// AutoStrategy, the paper's popcount heuristic).
func WithStrategy(st Strategy) Option {
	return func(s *settings) error {
		switch st {
		case AutoStrategy, RowWiseStrategy, ColWiseStrategy:
			s.strategy = st
			return nil
		default:
			return fmt.Errorf("dualsim: unknown strategy %d", st)
		}
	}
}

// WithDeclarationOrder makes the solver's worklist evaluate the unstable
// inequality declared first instead of the cheapest one — by default a
// copy inequality before any edge inequality, edge inequalities by the
// smaller of their two candidate counts, ties by the paper's empty-column
// count (ablation switch).
func WithDeclarationOrder() Option {
	return func(s *settings) error { s.declOrder = true; return nil }
}

// WithPlainInit disables the summary-vector initialization (13).
func WithPlainInit() Option {
	return func(s *settings) error { s.plainInit = true; return nil }
}

// WithCompressed solves on gap-length encoded matrices (§5.1 storage
// ablation).
func WithCompressed() Option {
	return func(s *settings) error { s.compressed = true; return nil }
}

// WithShortCircuit stops a solve as soon as the query is proven
// unsatisfiable (an empty mandatory variable, Theorem 1).
func WithShortCircuit() Option {
	return func(s *settings) error { s.shortCircuit = true; return nil }
}

// WithWorkers parallelizes each bit-matrix multiplication over n
// goroutines.
func WithWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative worker count %d", n)
		}
		s.workers = n
		return nil
	}
}

// WithPruning enables or disables the dual-simulation pruning stage of
// the execution pipeline (default enabled — the paper's headline
// application). With pruning disabled, Exec evaluates directly on the
// session store.
func WithPruning(enabled bool) Option {
	return func(s *settings) error { s.pruning = enabled; return nil }
}

// WithFingerprint enables the fingerprint pre-filter stage: Open
// refines the store into k-bounded bisimulation classes (k < 0 refines
// to the fixpoint) and condenses it into a summary graph once; Prepare
// then lifts summary-level candidates per query variable, and Exec
// starts the exact solver from those tightened bounds. Sound: the
// lifted sets over-approximate the largest dual simulation.
// The pre-filter feeds the pruning stage and is ignored when pruning is
// disabled.
func WithFingerprint(k int) Option {
	return func(s *settings) error {
		s.fingerprint = true
		s.fingerprintK = k
		return nil
	}
}

// WithPlanCache equips the session with an LRU cache of up to n prepared
// plans, keyed by whitespace-normalized query text. DB.Query (and
// ExecBatch requests given as text) consult it: a hit skips parsing, SOI
// lowering and fingerprint lifting and executes the cached PreparedQuery
// directly; a miss plans once and caches. n = 0 (the default) disables
// the cache. Inspect traffic with DB.CacheStats.
func WithPlanCache(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative plan cache capacity %d", n)
		}
		s.planCache = n
		return nil
	}
}

// WithCompactionThreshold arms automatic compaction of the live-update
// overlay: once the ledger of staged adds and tombstoned deletes (see
// Apply) holds n or more entries, the next Apply compacts the store into
// a pristine snapshot — fresh dictionary, no tombstone slack — as part
// of the same epoch step. n = 0 (the default) leaves compaction to
// explicit Compact calls. ApplyStats.Compacted reports when it ran.
func WithCompactionThreshold(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative compaction threshold %d", n)
		}
		s.compactThreshold = n
		return nil
	}
}

// WithDataDir makes the session durable: Open writes an initial
// checkpoint of the store into dir (refusing a dir that already holds
// one — warm starts go through OpenDir) and every subsequent Apply or
// Compact is recorded in an fsync'd write-ahead log before it is
// acknowledged, so an acknowledged delta survives a crash. Checkpoint —
// or WithCheckpointEvery — rolls the WAL into a fresh snapshot; a
// restart via OpenDir loads the latest snapshot and replays the WAL
// tail instead of re-ingesting the original RDF input. See
// internal/persist for the on-disk format.
func WithDataDir(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("dualsim: empty data dir")
		}
		s.dataDir = dir
		return nil
	}
}

// WithCheckpointEvery arms automatic checkpointing on a durable session
// (WithDataDir/OpenDir): once n WAL records have accumulated since the
// last checkpoint, the next Apply rolls them into a fresh snapshot and
// truncates the log, bounding both recovery time and WAL growth. n = 0
// (the default) leaves checkpointing to explicit Checkpoint calls and
// Compact. ApplyStats.Checkpointed reports when it ran.
func WithCheckpointEvery(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative checkpoint interval %d", n)
		}
		s.checkpointEvery = n
		return nil
	}
}

// WithMaxQueryMemory caps the memory one execution may buffer inside the
// streaming Volcano executor — hash-join build sides, DISTINCT and
// LIMIT/OFFSET seen-sets — at n bytes (estimated; see
// ExecStats.Resources for the cost model's per-operator attribution).
// An execution that exceeds the budget fails with ErrQueryMemoryExceeded
// instead of growing without bound; dualsimd maps the error to HTTP 413.
// n = 0 (the default) leaves queries unbudgeted. The budget applies to
// the executor's buffering only — the solver is not metered.
func WithMaxQueryMemory(n int64) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative query memory budget %d", n)
		}
		s.maxQueryMemory = n
		return nil
	}
}

// WithBatchWorkers fixes the width of the session's ExecBatch worker
// pool (default GOMAXPROCS). Per call, BatchWorkers overrides it.
func WithBatchWorkers(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("dualsim: negative batch worker count %d", n)
		}
		s.batchWorkers = n
		return nil
	}
}
