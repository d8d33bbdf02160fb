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

// Cursor is one execution's rows, each written by the cursor itself as
// lines of the response's stream. The contract follows dualsim.Rows:
// NextLines until false, then Err; Close is idempotent, stops what the
// execution still runs, and finalizes Stats.
type Cursor interface {
	Vars() []string
	// Epoch is the store epoch every row of the cursor answers from.
	Epoch() uint64
	// NextLines moves to the next row and appends its lines to dst: a
	// term line for each value the stream has not defined, numbered by
	// w, then the row line (wire.TermWriter.AppendRow, or a relayed
	// stream's lines counted by wire.TermWriter.AppendTermLine). At the
	// end it returns false, and dst may have grown by term lines. The
	// core drops the lines of a row past the request's limit although
	// w's memo recorded its keys: that is safe because only the trailer
	// follows, so no row names the dropped terms, and begin resets the
	// memo before the next stream.
	NextLines(dst []byte, w *wire.TermWriter) ([]byte, bool)
	Err() error
	Close()
	Stats() *dualsim.ExecStats
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
