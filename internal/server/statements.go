package server

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"dualsim"
	"dualsim/internal/metrics"
	qstats "dualsim/internal/stats"
	"dualsim/internal/wire"
)

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
	out := &wire.StatementsResponse{
		Statements:    b.stmts.Statements(),
		Tracked:       b.stmts.Len(),
		Evicted:       b.stmts.Evicted(),
		LatencyBounds: qstats.LatencyBounds,
	}
	if reset {
		b.stmts.Reset()
	}
	return out, nil
}

// registerStatementMetrics exports the size of the statement table.
// Statement identity lives at /v1/debug/statements: a label-free
// series per rank would change what it measures whenever ranks reorder.
func (s *Server) registerStatementMetrics(reg *metrics.Registry) {
	reg.GaugeFunc("dualsimd_statements_tracked", "distinct statements in the workload statistics store", func() float64 {
		return float64(s.be.stmts.Len())
	})
	reg.GaugeFunc("dualsimd_statements_evicted", "statements LRU-evicted from the workload statistics store", func() float64 {
		return float64(s.be.stmts.Evicted())
	})
}
