package server

import (
	"context"
	"fmt"

	"dualsim"
	"dualsim/internal/wire"
)

// Backend is what the protocol core serves: the operations behind the
// wire protocol, free of HTTP. Two implementations exist — the local
// session behind New (cmd/dualsimd) and the scatter-gather router in
// internal/cluster/router (cmd/dualsimrouter). Every method may return
// an *Error to choose the reply status; other errors are mapped by the
// core (deadline → 504, cancellation → 499, closed session → 503,
// memory budget → 413, anything else → 400).
type Backend interface {
	// Query starts one execution and returns a cursor over its rows.
	// The core closes the cursor.
	Query(ctx context.Context, src string) (Cursor, error)
	// Explain returns src's compiled plan; analyze executes it too.
	Explain(ctx context.Context, src string, analyze bool) (*dualsim.Explain, error)
	// Batch executes srcs concurrently and reports positionally. The
	// error is non-nil only when the call as a whole failed (deadline,
	// cancellation, closed session); per-query failures sit in their
	// BatchResult.
	Batch(ctx context.Context, srcs []string, failFast bool) ([]BatchResult, error)
	// Apply applies one delta and returns the reply body with the epoch
	// it produced. A traced request's root span is in ctx; a body that
	// reports the trace may reference it — the core ends the span before
	// encoding the body.
	Apply(ctx context.Context, d dualsim.Delta) (body any, epoch uint64, err error)
	// Snapshot reports the current epoch and store shape.
	Snapshot(ctx context.Context) (*wire.SnapshotResponse, error)
	// Statements returns the workload statistics table, clearing it
	// afterwards when reset is set.
	Statements(ctx context.Context, reset bool) (*wire.StatementsResponse, error)
	// Epoch is the freshest store epoch the backend knows, reported by
	// the probe endpoints.
	Epoch() uint64
	// Ready reports why the backend should not be routed to, or nil.
	Ready() error
}

// Cursor is one execution's rows, rendered in wire form, pulled one at
// a time. The contract follows dualsim.Rows: Next until false, then Err;
// Close is idempotent and finalizes Stats.
type Cursor interface {
	Vars() []string
	// Epoch is the store epoch every row of the cursor answers from.
	Epoch() uint64
	Next() bool
	// AppendRow appends the current row to dst as the JSON array of its
	// values, positional over Vars, null for unbound positions: the one
	// rendering all three response shapes carry.
	wire.RowAppender
	Err() error
	Close()
	Stats() *dualsim.ExecStats
}

// BatchResult is one positional outcome of Backend.Batch.
type BatchResult struct {
	Rows Cursor // nil when Err is set
	Err  error
}

// Materialized returns a cursor over n already computed rows;
// appendRow(dst, i) renders the i-th as Cursor.AppendRow does, so rows
// past a request's limit are never rendered.
func Materialized(vars []string, n int, appendRow func(dst []byte, i int) []byte, stats *dualsim.ExecStats) Cursor {
	return &materialized{vars: vars, n: n, appendRow: appendRow, stats: stats}
}

type materialized struct {
	vars      []string
	n, i      int
	appendRow func(dst []byte, i int) []byte
	stats     *dualsim.ExecStats
}

func (m *materialized) Vars() []string              { return m.vars }
func (m *materialized) Epoch() uint64               { return m.stats.Epoch }
func (m *materialized) Next() bool                  { m.i++; return m.i <= m.n }
func (m *materialized) AppendRow(dst []byte) []byte { return m.appendRow(dst, m.i-1) }
func (m *materialized) Err() error                  { return nil }
func (m *materialized) Close()                      {}
func (m *materialized) Stats() *dualsim.ExecStats   { return m.stats }

// Error is a backend failure that names its own HTTP status — a shard's
// relayed verdict, an unroutable request, a dead shard.
type Error struct {
	Status int
	Msg    string
}

func (e *Error) Error() string { return e.Msg }

// Errorf builds an *Error.
func Errorf(status int, format string, args ...any) error {
	return &Error{Status: status, Msg: fmt.Sprintf(format, args...)}
}
