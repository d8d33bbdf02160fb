package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/queries"
	"dualsim/internal/wire"
)

// getStatements fetches and decodes the workload statistics table.
func getStatements(t *testing.T, url string) wire.StatementsResponse {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("statements status = %d", resp.StatusCode)
	}
	return decode[wire.StatementsResponse](t, resp)
}

func TestStatementsEndpoint(t *testing.T) {
	_, hs, _ := newTestServer(t)
	// Same statement three times — the third differs only in whitespace
	// and must fold into the same fingerprint — plus one distinct shape.
	for _, q := range []string{queryX1, queryX1, "SELECT * WHERE {?d <directed> ?m. ?d  <worked_with>  ?c.}"} {
		resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: q})
		resp.Body.Close()
	}
	other := `SELECT * WHERE { ?d <directed> ?m }`
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: other}).Body.Close()

	out := getStatements(t, hs.URL+"/v1/debug/statements")
	if out.Tracked != 2 || len(out.Statements) != 2 {
		t.Fatalf("tracked = %d, statements = %d, want 2/2", out.Tracked, len(out.Statements))
	}
	if len(out.LatencyBounds) == 0 {
		t.Fatal("latencyBounds missing")
	}
	var found bool
	for i := range out.Statements {
		st := &out.Statements[i]
		if len(st.Fingerprint) != 16 {
			t.Fatalf("fingerprint %q not 16 hex chars", st.Fingerprint)
		}
		if st.Calls != 3 {
			continue
		}
		found = true
		if st.CacheHits < 1 {
			t.Fatalf("cacheHits = %d, want >= 1 (repeat served from the plan cache)", st.CacheHits)
		}
		if st.Rows != 6 {
			t.Fatalf("rows = %d, want 6 (2 rows x 3 calls)", st.Rows)
		}
		if !strings.Contains(st.Query, "?v0") {
			t.Fatalf("query text not normalized: %q", st.Query)
		}
		if st.TotalTime <= 0 || st.P50 < 0 {
			t.Fatalf("timings not populated: %+v", st)
		}
	}
	if !found {
		t.Fatalf("no statement aggregated 3 calls: %+v", out.Statements)
	}
}

func TestStatementsReset(t *testing.T) {
	_, hs, _ := newTestServer(t)
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()

	// ?reset=1 returns the pre-reset snapshot…
	out := getStatements(t, hs.URL+"/v1/debug/statements?reset=1")
	if out.Tracked != 1 || len(out.Statements) != 1 {
		t.Fatalf("reset snapshot tracked = %d, want 1", out.Tracked)
	}
	// …and the next read starts empty.
	out = getStatements(t, hs.URL+"/v1/debug/statements")
	if out.Tracked != 0 || len(out.Statements) != 0 {
		t.Fatalf("post-reset tracked = %d, want 0", out.Tracked)
	}
}

func TestStatementsDisabled(t *testing.T) {
	_, hs, _ := newTestServer(t, WithStatementStats(0))
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()
	out := getStatements(t, hs.URL+"/v1/debug/statements")
	if out.Tracked != 0 || len(out.Statements) != 0 {
		t.Fatalf("disabled store tracked %d statements", out.Tracked)
	}
}

func TestStatementsRecordErrors(t *testing.T) {
	_, hs, _ := newTestServer(t)
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: "SELECT * WHERE { broken"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d", resp.StatusCode)
	}
	resp.Body.Close()
	out := getStatements(t, hs.URL+"/v1/debug/statements")
	if out.Tracked != 1 {
		t.Fatalf("tracked = %d, want the failed statement", out.Tracked)
	}
	if st := out.Statements[0]; st.Calls != 1 || st.Errors != 1 {
		t.Fatalf("calls/errors = %d/%d, want 1/1", st.Calls, st.Errors)
	}
}

func TestStatementsShedAttribution(t *testing.T) {
	srv, hs, _ := newTestServer(t, WithMaxInFlight(1), WithQueueDepth(1))
	release, _, err := srv.admit.acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	qctx, qcancel := context.WithCancel(context.Background())
	defer qcancel()
	go func() {
		rel, _, err := srv.admit.acquire(qctx)
		if err == nil {
			rel()
		}
	}()
	for i := 0; srv.admit.Queued() == 0 && i < 1000; i++ {
		time.Sleep(time.Millisecond)
	}
	if srv.admit.Queued() == 0 {
		t.Fatal("queue never filled")
	}

	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	resp.Body.Close()
	out := getStatements(t, hs.URL+"/v1/debug/statements")
	if out.Tracked != 1 {
		t.Fatalf("tracked = %d, want the shed statement", out.Tracked)
	}
	if st := out.Statements[0]; st.Shed != 1 || st.Calls != 0 {
		t.Fatalf("shed/calls = %d/%d, want 1/0", st.Shed, st.Calls)
	}
}

func TestQueryMemoryBudget413(t *testing.T) {
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	db, err := dualsim.Open(st, dualsim.WithPlanCache(16), dualsim.WithMaxQueryMemory(1))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		db.Close()
	})

	// A UNION's rows may repeat, so its plan keeps a seen-set: the first
	// retained row exceeds a 1-byte budget.
	resp := postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{
		Query: `SELECT * WHERE { { ?d <directed> ?m . } UNION { ?d <worked_with> ?m . } }`})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	out := decode[wire.ErrorResponse](t, resp)
	if !strings.Contains(out.Error, "memory budget") {
		t.Fatalf("error = %q", out.Error)
	}

	// The converse: a plain BGP streams — no seen-set, no build side — so
	// it answers under the same budget with a zero peak.
	resp = postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain BGP status = %d, want 200", resp.StatusCode)
	}
	bgp := decode[wire.QueryResponse](t, resp)
	if len(bgp.Rows) == 0 || bgp.Stats == nil || bgp.Stats.Resources == nil || bgp.Stats.Resources.PeakBytes != 0 {
		t.Fatalf("plain BGP: %d rows, stats %+v; want rows and peakBytes 0", len(bgp.Rows), bgp.Stats)
	}

	// A zero-row single-pattern query buffers nothing and still serves.
	resp = postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: `SELECT * WHERE { ?x <nosuch> ?o }`})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zero-row status = %d, want 200", resp.StatusCode)
	}
	resp.Body.Close()

	// The budget failure lands in the statistics as an error, not a call
	// that produced rows.
	stats := getStatements(t, hs.URL+"/v1/debug/statements")
	var sawErr bool
	for i := range stats.Statements {
		if stats.Statements[i].Errors > 0 {
			sawErr = true
		}
	}
	if !sawErr {
		t.Fatalf("budget failure not recorded: %+v", stats.Statements)
	}
}

func TestStatementTopMetrics(t *testing.T) {
	_, hs, _ := newTestServer(t)
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()
	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(buf)
	for _, want := range []string{"dualsimd_statements_tracked 1", "dualsimd_statement_top1_calls 1"} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestStatementSlowLogCrossLink pins the bidirectional link between the
// slow-query log and the statements table: a slow entry carries the
// statement's fingerprint, and the statement row carries the trace ID
// of its most recent slow entry.
func TestStatementSlowLogCrossLink(t *testing.T) {
	_, hs, _ := newTestServer(t, WithSlowQueryLog(8, 0)) // threshold 0: everything is slow
	postJSON(t, hs.URL+"/v1/query", wire.QueryRequest{Query: queryX1}).Body.Close()

	resp, err := http.Get(hs.URL + "/v1/debug/slow")
	if err != nil {
		t.Fatal(err)
	}
	slow := decode[wire.SlowLogResponse](t, resp)
	if len(slow.Entries) != 1 {
		t.Fatalf("slow entries = %d, want 1", len(slow.Entries))
	}
	entry := slow.Entries[0]
	if entry.Fingerprint == "" || entry.TraceID == "" {
		t.Fatalf("slow entry misses fingerprint/traceID: %+v", entry)
	}

	stmts := getStatements(t, hs.URL+"/v1/debug/statements")
	if len(stmts.Statements) != 1 {
		t.Fatalf("statements = %d, want 1", len(stmts.Statements))
	}
	st := stmts.Statements[0]
	if st.Fingerprint != entry.Fingerprint {
		t.Fatalf("fingerprint mismatch: statement %s, slow entry %s", st.Fingerprint, entry.Fingerprint)
	}
	if st.LastSlowTraceID != entry.TraceID {
		t.Fatalf("lastSlowTraceID = %q, slow entry trace %q", st.LastSlowTraceID, entry.TraceID)
	}
}
