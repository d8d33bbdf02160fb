package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"dualsim"
	"dualsim/internal/metrics"
	qstats "dualsim/internal/stats"
	"dualsim/internal/wire"
)

// topStatements is how many ranks of the by-total-time statement table
// are exported as /metrics gauges.
const topStatements = 5

// topCacheTTL bounds how often a /metrics scrape re-sorts the statement
// table: the top-rank gauges all read one memoized snapshot, so a scrape
// costs one Statements() call per TTL window, not one per gauge.
const topCacheTTL = time.Second

// topCache memoizes the sorted statement snapshot across the top-rank
// gauge reads of one (or several back-to-back) /metrics scrapes.
type topCache struct {
	mu   sync.Mutex
	at   time.Time
	rows []qstats.Statement
}

// WithStatementStats sizes the workload statistics store: per-statement
// aggregates (calls, errors, rows, latency quantiles, resource peaks)
// keyed by normalized statement fingerprint, served at
// GET /v1/debug/statements — pg_stat_statements for dualsim. The store
// holds up to n distinct statements, evicting least-recently-executed
// ones beyond that. Statistics are on by default (capacity 256, cheap:
// the per-execution record path is allocation-free); n = 0 disables
// them entirely. The store belongs to the local backend: a router's
// table is the merge of its shards'.
func WithStatementStats(n int) Option {
	return func(c *config) error {
		if n < 0 {
			return fmt.Errorf("server: negative statement stats capacity %d", n)
		}
		c.stmtCapacity = n
		return nil
	}
}

// newStatementStore builds the configured store: nil (disabled, all
// methods no-ops) for capacity 0.
func newStatementStore(cfg config) *qstats.Store {
	if cfg.stmtCapacity == 0 {
		return nil
	}
	return qstats.NewStore(cfg.stmtCapacity)
}

// recordStatement folds one query execution into the workload
// statistics. st may be nil (error paths return no ExecStats): the
// fingerprint is then re-derived from the source text — off the hot
// path, which always has the prepared fingerprint in st.
func (c *Core) recordStatement(src string, st *dualsim.ExecStats, d time.Duration, execErr error) {
	if c.stmts == nil {
		return
	}
	var f qstats.Fingerprint
	if st != nil && st.Fingerprint != "" {
		f = qstats.Fingerprint{ID: st.Fingerprint, Text: st.StatementText}
	} else {
		f = qstats.OfSource(src)
	}
	obs := qstats.Observation{
		Duration: d,
		Error:    execErr != nil,
		Timeout:  errors.Is(execErr, context.DeadlineExceeded),
	}
	if st != nil {
		obs.Rows = int64(st.Results)
		obs.CacheHit = st.CacheHit
		for i := range st.Operators {
			if est := st.Operators[i].EstRows; est > 0 {
				diff := int64(est) - st.Operators[i].Rows
				if diff < 0 {
					diff = -diff
				}
				obs.EstErrRows += diff
			}
		}
		if st.Resources != nil {
			obs.MemPeakBytes = st.Resources.PeakBytes
			obs.RowsBuffered = st.Resources.RowsBuffered
		}
	}
	c.stmts.Record(f, obs)
}

// recordShedStatement attributes an admission-control rejection to its
// statement. The 429 was already written; reading the (bounded) body
// here costs only the shed path, never an admitted request. Admission
// protects execution capacity, not parsing — fingerprinting the query
// that was refused is exactly the accounting pg_stat_statements-style
// tables need to show who is being shed.
func (c *Core) recordShedStatement(r *http.Request) {
	if c.stmts == nil {
		return
	}
	var req wire.QueryRequest
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	if dec.Decode(&req) != nil || strings.TrimSpace(req.Query) == "" {
		return
	}
	c.stmts.RecordShed(qstats.OfSource(req.Query))
}

// handleStatements serves the workload statistics table, ordered by
// total execution time descending. ?reset=1 returns the snapshot and
// then clears the table (so the caller sees what was discarded).
func (c *Core) handleStatements(w http.ResponseWriter, r *http.Request) {
	ctx, cancel := c.requestContext(r, 0)
	defer cancel()
	v := r.URL.Query().Get("reset")
	out, err := c.backend.Statements(ctx, v == "1" || v == "true")
	if err != nil {
		c.FailExec(w, err)
		return
	}
	c.WriteJSON(w, http.StatusOK, out)
}

func (b *local) Statements(_ context.Context, reset bool) (*wire.StatementsResponse, error) {
	rows := b.stmts.Statements()
	if rows == nil {
		rows = []qstats.Statement{}
	}
	out := &wire.StatementsResponse{
		Statements:    rows,
		Tracked:       b.stmts.Len(),
		Evicted:       b.stmts.Evicted(),
		LatencyBounds: qstats.LatencyBounds,
	}
	if reset {
		b.stmts.Reset()
	}
	return out, nil
}

// registerStatementMetrics exports the store's shape and its top ranks
// by total time as gauges. The registry is label-free, so the ranks are
// separate series (dualsimd_statement_top1_seconds, …); statement
// identity lives at /v1/debug/statements.
func (s *Server) registerStatementMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("dualsimd_statements_tracked", "distinct statements in the workload statistics store", func() float64 {
		return float64(s.be.stmts.Len())
	})
	reg.GaugeFunc("dualsimd_statements_evicted", "statements LRU-evicted from the workload statistics store", func() float64 {
		return float64(s.be.stmts.Evicted())
	})
	for rank := 1; rank <= topStatements; rank++ {
		rank := rank
		reg.GaugeFunc(
			fmt.Sprintf("dualsimd_statement_top%d_seconds", rank),
			fmt.Sprintf("total execution time of the rank-%d statement by total time", rank),
			func() float64 {
				rows := s.topRows()
				if rank > len(rows) {
					return 0
				}
				return rows[rank-1].TotalTime.Seconds()
			})
		reg.GaugeFunc(
			fmt.Sprintf("dualsimd_statement_top%d_calls", rank),
			fmt.Sprintf("call count of the rank-%d statement by total time", rank),
			func() float64 {
				rows := s.topRows()
				if rank > len(rows) {
					return 0
				}
				return float64(rows[rank-1].Calls)
			})
	}
}

// topRows returns the memoized sorted statement snapshot for the
// top-rank gauges, refreshing it at most once per topCacheTTL.
func (s *Server) topRows() []qstats.Statement {
	c := &s.topStmts
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rows == nil || time.Since(c.at) > topCacheTTL {
		c.rows = s.be.stmts.Statements()
		if c.rows == nil {
			c.rows = []qstats.Statement{}
		}
		c.at = time.Now()
	}
	return c.rows
}
