// Package httplog is the structured access log of dualsimd, router mode
// included: one JSON line per completed HTTP request, behind the
// daemon's -accesslog flag. The line carries the request's trace ID and
// snapshot epoch when the handler exposed them (the serving layer sets
// X-Dualsim-Trace / X-Dualsim-Epoch response headers), so a slow access
// log line can be joined against the trace and slow-query surfaces.
package httplog

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// Record is one access-log line. JSON tags are the log schema.
//
//dualsim:wire
type Record struct {
	Time     string  `json:"time"` // RFC3339Nano, UTC
	Method   string  `json:"method"`
	Route    string  `json:"route"`
	Status   int     `json:"status"`
	Duration float64 `json:"durationMs"`
	Bytes    int64   `json:"bytes"`
	// TraceID is the request's distributed trace ID when it was traced.
	TraceID string `json:"traceID,omitempty"`
	// Epoch is the store epoch the response answered from, if any.
	Epoch uint64 `json:"epoch,omitempty"`
	// Shed marks a request the admission controller rejected (429);
	// Queued one that waited in the admission queue before running.
	Shed   bool `json:"shed,omitempty"`
	Queued bool `json:"queued,omitempty"`
}

// Logger serializes access-log lines onto one writer.
type Logger struct {
	mu sync.Mutex
	w  io.Writer
}

// New builds a Logger writing JSON lines to w (nil w disables: Wrap
// returns h unchanged).
func New(w io.Writer) *Logger {
	if w == nil {
		return nil
	}
	return &Logger{w: w}
}

// Wrap instruments h: every completed request writes one Record line.
func (l *Logger) Wrap(h http.Handler) http.Handler {
	if l == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		cw := &captureWriter{ResponseWriter: w, status: http.StatusOK}
		h.ServeHTTP(cw, r)
		rec := Record{
			Time:     start.UTC().Format(time.RFC3339Nano),
			Method:   r.Method,
			Route:    r.URL.Path,
			Status:   cw.status,
			Duration: float64(time.Since(start)) / float64(time.Millisecond),
			Bytes:    cw.bytes,
			TraceID:  cw.Header().Get("X-Dualsim-Trace"),
			Shed:     cw.status == http.StatusTooManyRequests,
			Queued:   cw.Header().Get("X-Dualsim-Queued") == "1",
		}
		if e := cw.Header().Get("X-Dualsim-Epoch"); e != "" {
			if v, err := strconv.ParseUint(e, 10, 64); err == nil {
				rec.Epoch = v
			}
		}
		buf, err := json.Marshal(rec)
		if err != nil {
			return
		}
		l.mu.Lock()
		l.w.Write(append(buf, '\n'))
		l.mu.Unlock()
	})
}

// captureWriter records status and byte count while preserving the
// streaming interfaces the NDJSON handlers rely on.
type captureWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
	bytes  int64
}

func (c *captureWriter) WriteHeader(status int) {
	if !c.wrote {
		c.status = status
		c.wrote = true
	}
	c.ResponseWriter.WriteHeader(status)
}

func (c *captureWriter) Write(p []byte) (int, error) {
	c.wrote = true
	n, err := c.ResponseWriter.Write(p)
	c.bytes += int64(n)
	return n, err
}

// Flush forwards to the underlying writer so NDJSON streams keep their
// per-chunk flushing behavior through the wrapper.
func (c *captureWriter) Flush() {
	if f, ok := c.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}
