package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
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

// streamBody is the streamed answer to src. Its term lines are the
// lines that open with a quote; the header line comes before them.
func streamBody(url, src string) ([]byte, error) {
	resp, err := http.Post(url+"/v1/query?stream=1", "application/json", strings.NewReader(fmt.Sprintf(`{"query":%q}`, src)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return io.ReadAll(resp.Body)
}
