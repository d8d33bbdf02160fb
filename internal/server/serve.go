package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dualsim/internal/debugserver"
	"dualsim/internal/httplog"
)

// Listen is the process-level half of serving, shared by both binaries:
// where to listen and how to shut down.
type Listen struct {
	Name         string        // the binary's name, prefixed to log lines
	Addr         string        // serving listener (host:port; port 0 picks a free one)
	DebugAddr    string        // extra listener for pprof + /v1/debug/*; "" for none
	AccessLog    string        // JSON access log file, "-" for stdout; "" for none
	DrainTimeout time.Duration // grace period for in-flight requests on shutdown
}

// Serve listens, serves until ctx is cancelled or a termination signal
// arrives, then drains and runs the final hook (a checkpoint for a
// durable primary, replication stop for a replica). When ready is
// non-nil, the bound address is sent on it once the listener is up.
func (c *Core) Serve(ctx context.Context, l Listen, logw io.Writer, ready chan<- string, final func() error) error {
	ln, err := net.Listen("tcp", l.Addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(logw, "%s: listening on http://%s\n", l.Name, ln.Addr())

	// The debug surface (pprof, slow-query log, statements) binds its own
	// listener so it is never routable from the serving address.
	if l.DebugAddr != "" {
		dln, err := net.Listen("tcp", l.DebugAddr)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		dbg := &http.Server{Handler: debugserver.Mux(map[string]http.Handler{
			"/v1/debug/slow":       c,
			"/v1/debug/statements": c,
		})}
		go dbg.Serve(dln)
		defer func() { _ = dbg.Close() }() // debug surface only; serving drain is handled below
		fmt.Fprintf(logw, "%s: debug surface on http://%s\n", l.Name, dln.Addr())
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}

	var handler http.Handler = c
	if l.AccessLog != "" {
		w := os.Stdout
		if l.AccessLog != "-" {
			if w, err = os.OpenFile(l.AccessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644); err != nil {
				return fmt.Errorf("access log: %w", err)
			}
			defer func() { _ = w.Close() }() // shutdown-path close; nothing left to ack
		}
		handler = httplog.New(w).Wrap(c)
	}
	hs := &http.Server{Handler: handler}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	sigctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err // Serve never returns nil
	case <-sigctx.Done():
	}

	// Drain: flip /readyz to 503 so load balancers stop routing here,
	// then let http.Server.Shutdown wait out in-flight requests (bounded
	// by the grace period). Liveness stays green the whole way down.
	fmt.Fprintf(logw, "%s: draining (grace %v)\n", l.Name, l.DrainTimeout)
	c.StartDrain()
	dctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), l.DrainTimeout)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if final != nil {
		if err := final(); err != nil {
			return err
		}
	}
	fmt.Fprintf(logw, "%s: drained, bye\n", l.Name)
	return nil
}
