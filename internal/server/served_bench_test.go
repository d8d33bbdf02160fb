package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/datagen"
	"dualsim/internal/queries"
)

// servedRowTexts are the join-bound texts of internal/queries: low
// selectivity, 10^3–10^4 rows at KG(4), so the row path dominates.
var servedRowTexts = []string{"B2", "B3", "B14", "B17"}

// BenchmarkServedRow sets the served row against the in-process one on
// a fixed KG(4) store, per text: "inprocess" is db.Query, "served" a
// loopback server.New drained through client.QueryStream and Next, and
// served reports the stream's bytes and term lines per row. Run it with
//
//	go test ./internal/server -run '^$' -bench BenchmarkServedRow -benchtime 2s
func BenchmarkServedRow(b *testing.B) {
	st, err := datagen.KGStore(datagen.DefaultKG(4, 42))
	if err != nil {
		b.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	c, err := client.New(hs.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, id := range servedRowTexts {
		spec, err := queries.ByID(id)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(id+"/inprocess", func(b *testing.B) {
			for b.Loop() {
				if _, _, err := db.Query(ctx, spec.Text); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(id+"/served", func(b *testing.B) {
			rows := 0
			for b.Loop() {
				s, err := c.QueryStream(ctx, spec.Text)
				if err != nil {
					b.Fatal(err)
				}
				for rows = 0; s.Next(); rows++ {
				}
				if err := s.Err(); err != nil {
					b.Fatal(err)
				}
				s.Close()
			}
			body, err := streamBody(hs.URL, spec.Text)
			if err != nil {
				b.Fatal(err)
			}
			perRow := func(n int) float64 { return float64(n) / float64(max(rows, 1)) }
			b.ReportMetric(float64(rows), "rows")
			b.ReportMetric(perRow(len(body)), "B/row")
			b.ReportMetric(perRow(bytes.Count(body, []byte("\n\""))), "terms/row")
		})
	}
}

// servedFixedTexts are plan-cache hits whose rows cost next to nothing
// at KG(4), by the rows they answer: what is left is a request's fixed
// cost.
var servedFixedTexts = []struct {
	name string
	rows int
	text string
}{
	{"0row", 0, `SELECT * WHERE { <film0> <dbo:director> ?d . ?d <dbo:director> ?x . }`},
	{"1row", 1, `SELECT * WHERE { <film0> <dbo:director> ?d . }`},
}

// BenchmarkServedFixed sets a served request's fixed cost against the
// in-process one on the KG(4) store of BenchmarkServedRow: a 0-row and
// a 1-row plan-cache hit, "inprocess" through db.Query and "served"
// through a loopback server.New drained by client.QueryStream. served
// also reports the server's writes per request, counted on the
// connections its listener accepts. Run it with
//
//	go test ./internal/server -run '^$' -bench BenchmarkServedFixed -benchmem -benchtime 2s
func BenchmarkServedFixed(b *testing.B) {
	st, err := datagen.KGStore(datagen.DefaultKG(4, 42))
	if err != nil {
		b.Fatal(err)
	}
	db, err := dualsim.Open(st)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv, err := New(db)
	if err != nil {
		b.Fatal(err)
	}
	var writes atomic.Int64
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener = countingListener{hs.Listener, &writes}
	hs.Start()
	defer hs.Close()
	c, err := client.New(hs.URL)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	read := func(text string) (int, error) {
		s, err := c.QueryStream(ctx, text)
		if err != nil {
			return 0, err
		}
		defer s.Close()
		rows := 0
		for ; s.Next(); rows++ {
		}
		return rows, s.Err()
	}
	for _, q := range servedFixedTexts {
		// The first read plans the text; every measured one is a hit.
		if rows, err := read(q.text); err != nil || rows != q.rows {
			b.Fatalf("%s: %d rows, %v; want %d", q.name, rows, err, q.rows)
		}
		b.Run(q.name+"/inprocess", func(b *testing.B) {
			for b.Loop() {
				if _, _, err := db.Query(ctx, q.text); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(q.name+"/served", func(b *testing.B) {
			n, before := 0, writes.Load()
			for b.Loop() {
				if _, err := read(q.text); err != nil {
					b.Fatal(err)
				}
				n++
			}
			b.ReportMetric(float64(writes.Load()-before)/float64(n), "writes/req")
		})
	}
}

// countingListener counts the writes to the connections it accepts.
type countingListener struct {
	net.Listener
	writes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{conn, l.writes}, nil
}

type countingConn struct {
	net.Conn
	writes *atomic.Int64
}

func (c countingConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// streamBody is the streamed answer to src. Its term lines are the
// lines that open with a quote; the header line comes before them.
func streamBody(url, src string) ([]byte, error) {
	resp, err := http.Post(url+"/v1/query", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, src)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
