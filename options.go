package dualsim

import "fmt"

// Option configures a session opened with Open: the pruning switch, the
// plan cache, compaction, durability and the memory budget are all fixed
// per session, so every query prepared on the session inherits them.
type Option func(*settings) error

// settings is the resolved session configuration.
type settings struct {
	engine  EngineKind
	pruning bool

	planCache int // capacity of the LRU plan cache

	compactThreshold int // > 0 arms automatic overlay compaction

	dataDir string // non-empty makes the session durable (snapshot + WAL)

	maxQueryMemory int64 // > 0 caps per-query buffered bytes in the Volcano executor
}

// defaultPlanCache is the plan cache capacity of a session opened
// without WithPlanCache.
const defaultPlanCache = 128

func defaultSettings() settings {
	return settings{engine: Volcano, pruning: true, planCache: defaultPlanCache}
}

// WithEngine is the oracle hook: WithEngine(IndexNL) opens a session whose
// evaluation is answered by the IndexNL oracle over the unpruned snapshot
// instead of the Volcano executor, for checking the executor's answers
// (the repository benchmark pins its expected rows this way). With
// pruning on it still solves and reports the prune stage; by soundness
// its rows are the pruned execution's. Serving code never passes it.
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

// WithPruning enables or disables the dual-simulation pruning stage of
// the execution pipeline (default enabled — the paper's headline
// application). With pruning disabled, Exec evaluates directly on the
// session store.
func WithPruning(enabled bool) Option {
	return func(s *settings) error { s.pruning = enabled; return nil }
}

// WithPlanCache sizes the session's LRU cache of prepared plans, keyed
// by the store epoch and the query text exactly as sent, at n entries
// (default 128; n must be at least 1). DB.Query (and
// Snapshot.Query/QueryStream) consult it: a hit skips parsing and SOI
// lowering and executes the cached PreparedQuery directly; a miss plans
// once and caches. Texts that differ only in whitespace or comments are
// separate entries; the statement fingerprint still groups them.
// Inspect traffic with DB.CacheStats.
func WithPlanCache(n int) Option {
	return func(s *settings) error {
		if n < 1 {
			return fmt.Errorf("dualsim: plan cache capacity %d < 1", n)
		}
		s.planCache = n
		return nil
	}
}

// WithCompactionThreshold arms automatic compaction of the live store:
// once the effective triple changes since the last compaction (adds and
// deletes that changed the store, counted over every Apply; see
// ApplyStats.OverlaySize) reach n, that Apply also compacts the store
// in the same epoch step: dead terms are reclaimed, and node ids change
// only when some term was dead (see DB.Compact). The count follows
// churn, which is what grows the dictionary, not the net deviation from
// the last compacted store. n = 0 (the default) leaves compaction to
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
// acknowledged, so an acknowledged delta survives a crash. Checkpoint,
// Compact and every 1024th WAL record since the last checkpoint roll the
// WAL into a fresh snapshot; a restart via OpenDir loads the latest
// snapshot and replays the WAL tail instead of re-ingesting the original
// RDF input. See internal/persist for the on-disk format.
func WithDataDir(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("dualsim: empty data dir")
		}
		s.dataDir = dir
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
