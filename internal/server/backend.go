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
// internal/cluster/router (dualsimd -route). Every method may return
// an *Error to choose the reply status; other errors are mapped by the
// core (deadline → 504, cancellation → 499, closed session → 503,
// memory budget → 413, anything else → 400).
type Backend interface {
	// Query starts one execution and returns a cursor over its rows.
	// The core closes the cursor. It serves every /v1/query, so it must
	// be safe for concurrent use.
	Query(ctx context.Context, src string) (Cursor, error)
	// Explain returns src's compiled plan; analyze executes it too.
	Explain(ctx context.Context, src string, analyze bool) (*dualsim.Explain, error)
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

// Cursor is one execution's rows, pulled one at a time, each cell named
// by a key: equal keys of one cursor name equal cells, so a response
// renders a key's cell once and then refers to it. The contract follows
// dualsim.Rows: Next until false, then Err; Close is idempotent, stops
// what the execution still runs, and finalizes Stats. The current row
// is valid until the next Next.
type Cursor interface {
	Vars() []string
	// Epoch is the store epoch every row of the cursor answers from.
	Epoch() uint64
	Next() bool
	// Keys returns the current row's keys, positional over Vars,
	// wire.NoKey for unbound positions, valid until the next Next.
	Keys() []wire.Key
	// AppendCell appends the cell a key of this cursor names: the JSON
	// string of its value's N-Triples rendering, as wire.AppendTerm
	// writes it. The stream's term lines are these cells.
	wire.CellAppender
	Err() error
	Close()
	Stats() *dualsim.ExecStats
}

// A LineCursor is a Cursor that writes some of its rows' lines itself,
// as the router relays a shard's lines. The core then advances it with
// NextLines, never with Next.
type LineCursor interface {
	Cursor
	// NextLines moves to the next row like Next. When written is set, it
	// has appended the row's lines to dst: the term lines the row needs,
	// each counted by w (wire.TermWriter.AppendTermLine), then the row
	// line. Otherwise the row is read from Keys, as Next leaves it. dst
	// may grow by term lines when ok is false; the core drops them.
	NextLines(dst []byte, w *wire.TermWriter) (out []byte, ok, written bool)
}

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
