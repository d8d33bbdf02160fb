package router

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"dualsim"
	"dualsim/client"
	"dualsim/internal/cluster"
	"dualsim/internal/queries"
	"dualsim/internal/server"
	"dualsim/internal/wire"
)

// The protocol is one handler set over two backends, so the same
// request must get the same protocol-level answer from a daemon
// (server.New over a session) and from a router over two shards:
// status, the protocol's response headers, and the NDJSON event
// sequence. Bodies are compared only as far as the protocol fixes them
// (an error reply carries an error; rows agree as a set).

// backend is one of the two protocol backends under test.
type backend struct {
	name, url, metricPrefix string
}

// startPair serves triples once as a single daemon and once as a router
// over two shards, both with the same protocol settings.
func startPair(t *testing.T, triples []dualsim.Triple, popts ...server.Option) []backend {
	return startPairVia(t, triples, nil, popts...)
}

// startPairVia is startPair with every daemon, the shards included,
// served through wrap when it is not nil.
func startPairVia(t *testing.T, triples []dualsim.Triple, wrap func(http.Handler) http.Handler, popts ...server.Option) []backend {
	t.Helper()
	full, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	serve := func(st *dualsim.Store, opts ...server.Option) string {
		return startShardVia(t, st, wrap, opts...).URL
	}
	var endpoints [][]string
	for i := 0; i < 2; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, []string{serve(st)})
	}
	rt, err := New(endpoints, WithProtocol(popts...))
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	return []backend{
		{"daemon", serve(full, popts...), "dualsimd"},
		{"router", rs.URL, "dualsimrouter"},
	}
}

// cutAfterFirstRow serves h, but ends a streamed answer after its first
// row with the in-band error event of an execution that died there.
func cutAfterFirstRow(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		maps.Copy(w.Header(), rec.Header())
		w.WriteHeader(rec.Code)
		if rec.Header().Get("Content-Type") != wire.ContentTypeNDJSON {
			w.Write(rec.Body.Bytes())
			return
		}
		for line := range bytes.Lines(rec.Body.Bytes()) {
			w.Write(line)
			if line[0] == '[' {
				io.WriteString(w, `{"kind":"error","epoch":0,"error":"the execution died after its first row"}`+"\n")
				return
			}
		}
	})
}

// reply is what the conformance table compares across backends.
type reply struct {
	Status      int
	ContentType string
	Epoch       string   // X-Dualsim-Epoch
	Traced      bool     // X-Dualsim-Trace present
	RetryAfter  string   // Retry-After
	Events      []string // NDJSON: event kinds, rows collapsed to "row×N"
	HasError    bool     // the body carries a non-empty "error"
	StatsTrace  bool     // the stats carry a span tree
	Results     int      // the stats' result count

	// Not compared across backends: IDs are minted per request, the
	// router's stats are the merge's, which has no operator list, and
	// error texts are only required to be present.
	traceID      string
	statsTraceID string // the trace ID on the stats' span tree root
	operators    bool   // the stats carry a non-empty operator list
	errMsg       string // the body's "error"
}

func do(t *testing.T, method, url string, hdr map[string]string, body io.Reader) reply {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := reply{
		Status:      resp.StatusCode,
		ContentType: resp.Header.Get("Content-Type"),
		Epoch:       resp.Header.Get("X-Dualsim-Epoch"),
		Traced:      resp.Header.Get("X-Dualsim-Trace") != "",
		RetryAfter:  resp.Header.Get("Retry-After"),
		traceID:     resp.Header.Get("X-Dualsim-Trace"),
	}
	if out.ContentType == wire.ContentTypeNDJSON {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		rows := 0
		flush := func() {
			if rows > 0 {
				out.Events = append(out.Events, fmt.Sprintf("row×%d", rows))
				rows = 0
			}
		}
		// Term lines are not events: how many a stream defines depends on
		// where its rows came from (a router defines a value once per
		// branch), so they are read, checked and left out of Events.
		var tab wire.TermTable
		vars := 0
		for sc.Scan() {
			kind, err := tab.Read(sc.Bytes(), vars, false)
			if err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			switch kind {
			case wire.LineTerm:
				continue
			case wire.LineRow:
				rows++
				continue
			}
			var ev wire.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			flush()
			out.Events = append(out.Events, ev.Kind)
			switch {
			case ev.Kind == wire.EventHeader:
				vars = len(ev.Vars)
			case ev.Kind == wire.EventStats && ev.Stats != nil:
				out.stats(ev.Stats)
			}
		}
		flush()
		return out
	}
	var e wire.ErrorResponse
	buf, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(buf, &e) == nil {
		out.HasError, out.errMsg = e.Error != "", e.Error
	}
	return out
}

func (r *reply) stats(s *dualsim.ExecStats) {
	r.StatsTrace = s.Trace != nil
	if s.Trace != nil {
		r.statsTraceID = s.Trace.TraceID
	}
	r.operators = len(s.Operators) > 0
	r.Results = s.Results
}

func TestProtocolConformance(t *testing.T) {
	// Fig. 1(a) plus a predicate whose triple self-join is far too large
	// to finish inside the deadline case's timeoutMs.
	triples := queries.Fig1aTriples()
	for i := 0; i < 400; i++ {
		triples = append(triples, dualsim.T(fmt.Sprintf("n%d", i), "linked", fmt.Sprintf("m%d", i)))
	}
	pair := startPair(t, triples)
	cut := startPairVia(t, triples, cutAfterFirstRow)

	const x1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`
	// No ?b meets a ?c and no ?d an ?e, so the 400³ combinations the
	// filter reads yield no row.
	const slow = `SELECT * WHERE { ?a <linked> ?b . ?c <linked> ?d . ?e <linked> ?f . FILTER(?b = ?c || ?d = ?e) }`
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	streamed := []string{"header", "row×2", "stats"}
	q := func(fields string) string {
		return fmt.Sprintf(`{"query":%q%s}`, x1, fields)
	}
	for _, tc := range []struct {
		name   string
		route  string // default /v1/query
		path   string
		hdr    map[string]string
		body   string
		status int
		events []string // the NDJSON event sequence, when the reply streams
		traced bool     // the reply must carry a trace header and a span tree
		cut    bool     // ask the pair whose daemons die after a row
		check  func(t *testing.T, b backend, r reply)
	}{
		{name: "malformed body", body: `{`, status: 400},
		{name: "unknown field", body: `{"nope":1}`, status: 400},
		{name: "oversized body", body: `{"query":"` + strings.Repeat("x", 64<<20) + `"}`, status: 413},
		{name: "empty query", body: `{"query":"  "}`, status: 400},
		{name: "parse error", body: `{"query":"SELECT broken"}`, status: 400},
		{name: "unknown explain mode", body: q(`,"explain":"bogus"`), status: 400},
		// An execution that dies before its first row: nothing is
		// committed, so it answers with its own status and a JSON error,
		// and no header event.
		{name: "timeoutMs expiry", body: fmt.Sprintf(`{"query":%q,"timeoutMs":20}`, slow), status: 504},
		{name: "limit truncates", body: q(`,"limit":1`), status: 200, events: []string{"header", "row×1", "stats"}},
		// The stats trailer is the executor's: on the daemon (whose stats
		// are one execution's) it lists the operators.
		{name: "streamed", body: q(""), status: 200, events: streamed,
			check: func(t *testing.T, b backend, r reply) {
				if r.Results != 2 || r.Epoch != "0" || b.name == "daemon" && !r.operators {
					t.Errorf("stats trailer: %d results, epoch %q, operators %v", r.Results, r.Epoch, r.operators)
				}
			}},
		{name: "trace by body", body: q(`,"trace":true`), status: 200, events: streamed, traced: true},
		{name: "trace by traceparent", hdr: map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"}, body: q(""), status: 200, events: streamed, traced: true,
			check: func(t *testing.T, _ backend, r reply) {
				if r.traceID != traceID {
					t.Errorf("X-Dualsim-Trace = %q, want the caller's %q", r.traceID, traceID)
				}
			}},
		// The stats trailer carries the span tree the trace header names,
		// also when a limit ends the stream early.
		{name: "streamed trace", body: q(`,"trace":true,"limit":1`), status: 200, events: []string{"header", "row×1", "stats"}, traced: true,
			check: func(t *testing.T, _ backend, r reply) {
				if r.statsTraceID != r.traceID {
					t.Errorf("span tree trace ID %q, X-Dualsim-Trace %q", r.statsTraceID, r.traceID)
				}
			}},
		// The URL and the Accept header choose nothing: a caller that
		// still sends a removed spelling gets the one stream, untraced.
		{name: "stream by URL", path: "?stream=0", body: q(""), status: 200, events: streamed},
		{name: "stream by Accept", hdr: map[string]string{"Accept": wire.ContentTypeJSON}, body: q(""), status: 200, events: streamed},
		{name: "trace by URL", path: "?trace=1&explain=plan", body: q(""), status: 200, events: streamed},
		// The body's stream field went with the buffered shape: it is an
		// unknown field like any other.
		{name: "stream by body", body: q(`,"stream":true`), status: 400},
		// An execution that dies after its first row, on the daemon and on
		// the shard a router pushes the query down to: the row is out, so
		// the stream ends with the in-band error event, not a status.
		{name: "in-band failure after a row", cut: true, body: `{"query":"SELECT * WHERE { ?d <directed> ?m . }"}`,
			status: 200, events: []string{"header", "row×1", "error"}},
		// No second read protocol: a query slice is N /v1/query requests.
		{name: "no batch route", route: "/v1/batch", body: fmt.Sprintf(`{"queries":[%q]}`, x1), status: 404},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []reply
			route := cmp.Or(tc.route, "/v1/query")
			backends := pair
			if tc.cut {
				backends = cut
			}
			for _, b := range backends {
				r := do(t, "POST", b.url+route+tc.path, tc.hdr, strings.NewReader(tc.body))
				if r.Status != tc.status {
					t.Errorf("%s: status %d, want %d", b.name, r.Status, tc.status)
				}
				// A route that does not exist is the mux's plain-text 404.
				// Any other failure committed nothing: a JSON error body
				// and no epoch.
				if r.HasError != (tc.status >= 400 && tc.status != http.StatusNotFound) {
					t.Errorf("%s: error body present = %v on status %d", b.name, r.HasError, r.Status)
				}
				if r.HasError && (r.ContentType != wire.ContentTypeJSON || r.Epoch != "") {
					t.Errorf("%s: Content-Type %q, X-Dualsim-Epoch %q on status %d; want JSON and none", b.name, r.ContentType, r.Epoch, r.Status)
				}
				if !reflect.DeepEqual(r.Events, tc.events) {
					t.Errorf("%s: events = %v, want %v", b.name, r.Events, tc.events)
				}
				if r.Traced != tc.traced || r.StatsTrace != tc.traced {
					t.Errorf("%s: trace header %v, stats tree %v, want both %v", b.name, r.Traced, r.StatsTrace, tc.traced)
				}
				if tc.check != nil {
					tc.check(t, b, r)
				}
				r.traceID, r.statsTraceID, r.operators, r.errMsg = "", "", false, ""
				got = append(got, r)
			}
			if !reflect.DeepEqual(got[0], got[1]) {
				t.Errorf("backends disagree:\n daemon %+v\n router %+v", got[0], got[1])
			}
		})
	}
}

// TestSaturatedAdmission fills the only execution slot of each backend
// — a query whose body never arrives holds it, because admission runs
// before the body is read — and asserts the next query is shed with the
// same 429 + Retry-After, while the probe and metrics endpoints (which
// skip admission) still answer.
func TestSaturatedAdmission(t *testing.T) {
	pair := startPair(t, queries.Fig1aTriples(),
		server.WithMaxInFlight(1), server.WithQueueDepth(0))
	var got []reply
	for _, b := range pair {
		pr, pw := io.Pipe()
		held := make(chan struct{})
		go func() {
			defer close(held)
			resp, err := http.Post(b.url+"/v1/query", wire.ContentTypeJSON, pr)
			if err == nil {
				resp.Body.Close()
			}
		}()
		inFlight := b.metricPrefix + "_in_flight 1"
		for i := 0; ; i++ {
			resp, err := http.Get(b.url + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			text, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				t.Fatalf("%s: /metrics = %d while saturating", b.name, resp.StatusCode)
			}
			if strings.Contains(string(text), inFlight) {
				break
			}
			if i == 2000 {
				t.Fatalf("%s: slot never filled (%q missing from /metrics)", b.name, inFlight)
			}
			time.Sleep(time.Millisecond)
		}

		r := do(t, "POST", b.url+"/v1/query", nil, strings.NewReader(`{"query":"SELECT * WHERE { ?s <genre> ?g . }"}`))
		if r.Status != http.StatusTooManyRequests || r.RetryAfter != "1" || !r.HasError {
			t.Errorf("%s: saturated query: %+v, want 429 with Retry-After 1", b.name, r)
		}
		got = append(got, r)
		if r := do(t, "GET", b.url+"/readyz", nil, nil); r.Status != 200 {
			t.Errorf("%s: /readyz = %d on a saturated instance", b.name, r.Status)
		}
		if r := do(t, "GET", b.url+"/healthz", nil, nil); r.Status != 200 {
			t.Errorf("%s: /healthz = %d on a saturated instance", b.name, r.Status)
		}
		resp, err := http.Get(b.url + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		text, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if shed := b.metricPrefix + "_shed_total 1"; resp.StatusCode != 200 || !strings.Contains(string(text), shed) {
			t.Errorf("%s: /metrics = %d on a saturated instance, %q present = %v",
				b.name, resp.StatusCode, shed, strings.Contains(string(text), shed))
		}

		pw.Close() // the held request's body ends: it fails with 400 and frees the slot
		<-held
	}
	if !reflect.DeepEqual(got[0], got[1]) {
		t.Errorf("backends disagree:\n daemon %+v\n router %+v", got[0], got[1])
	}
}

// TestEscapedTermsConformance serves terms that need every escape the
// row codec knows — and an unbound column — and requires the same
// decoded values from the NDJSON stream on both backends, read three
// ways: whole by the typed client's Query, row by row by its
// QueryStream, and line by line with plain json.Unmarshal, the way a
// third-party consumer would.
func TestEscapedTermsConformance(t *testing.T) {
	lits := []string{
		`plain`, `say "hi"`, `back\slash`, "line\nbreak", "tab\there", "cr\rhere",
		"ctl\x01byte", "ünï — 日本 😀", `<&>`, "sep\u2028sep", "bad\xffutf8", `\"`, "",
	}
	var triples []dualsim.Triple
	for i, l := range lits {
		s := fmt.Sprintf("http://example.org/s%d?a=1&b=<2>", i)
		triples = append(triples, dualsim.TL(s, "has", l), dualsim.T(s, "sees", `quote"in\iri`))
		if i%2 == 0 {
			triples = append(triples, dualsim.TL(s, "opt", l+l))
		}
	}
	full, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := dualsim.Open(full)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for _, q := range []string{
		`SELECT * WHERE { ?s <has> ?o . }`,
		`SELECT * WHERE { ?s <has> ?o . ?s <sees> ?i . OPTIONAL { ?s <opt> ?x . } }`,
		`SELECT * WHERE { { ?s <has> ?o . } UNION { ?s <sees> ?i . } }`,
	} {
		// What a decoded value must be: the term's N-Triples rendering,
		// as a JSON round trip hands it back (invalid bytes are U+FFFD).
		res, _, err := ref.Query(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		var wantRows [][]*string
		for _, row := range res.Rows {
			vals := make([]*string, len(row))
			for i, v := range row {
				if v != dualsim.Unbound {
					s := string([]rune(full.Term(v).String()))
					vals[i] = &s
				}
			}
			wantRows = append(wantRows, vals)
		}
		want := canonRows(wantRows)
		if len(want) < len(lits) {
			t.Fatalf("%s: only %d reference rows", q, len(want))
		}

		for _, b := range startPair(t, triples) {
			c, err := client.New(b.url)
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			check := func(shape string, rows [][]*string) {
				t.Helper()
				if got := canonRows(rows); !reflect.DeepEqual(got, want) {
					t.Errorf("%s, %s, %s:\n got  %q\n want %q", b.name, shape, q, got, want)
				}
			}

			gathered := b.name == "router" && strings.Contains(q, "OPTIONAL")
			var qopts []client.QueryOpt
			if gathered {
				qopts = append(qopts, client.Trace())
			}
			whole, err := c.Query(ctx, q, qopts...)
			if err != nil {
				t.Fatal(err)
			}
			check("read whole", whole.Rows)
			if gathered {
				// <has>, <sees> and <opt> do not share a shard of 2, so the
				// literals cross the wire in the export's snapshot codec:
				// the first execution ships every triple, the repeat none.
				exports := func(traced *client.QueryResponse, unchanged bool) {
					t.Helper()
					br := traced.Stats.Trace.Find("branch")
					if br == nil || br.Attrs["mode"] != "gather" {
						t.Fatalf("%s: branch span %+v, want mode=gather", q, br)
					}
					n, triples := 0, int64(0)
					for _, e := range br.Children {
						if e.Name != "export" {
							continue
						}
						n++
						triples += e.Counters["triples"]
						if got := e.Attrs["unchanged"] == "true"; got != unchanged {
							t.Errorf("export span %+v: unchanged %v, want %v", e, got, unchanged)
						}
						if (e.Counters["bytes"] > 0) == unchanged {
							t.Errorf("export span %+v: bytes counter wrong for unchanged=%v", e, unchanged)
						}
					}
					want := int64(full.NumTriples())
					if unchanged {
						want = 0
					}
					if n != 2 || triples != want {
						t.Errorf("%d export spans counting %d triples, want 2 and %d", n, triples, want)
					}
				}
				exports(whole, false)
				traced, err := c.Query(ctx, q, client.Trace())
				if err != nil {
					t.Fatal(err)
				}
				exports(traced, true)
				check("read whole, repeated", traced.Rows)
			}

			st, err := c.QueryStream(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			var streamed [][]*string
			for st.Next() {
				streamed = append(streamed, slices.Clone(st.Row()))
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			st.Close()
			check("streamed, typed client", streamed)

			resp, err := http.Post(b.url+"/v1/query", wire.ContentTypeJSON,
				strings.NewReader(fmt.Sprintf(`{"query":%q}`, q)))
			if err != nil {
				t.Fatal(err)
			}
			// Any JSON reader resolves the term table: a string line is the
			// next term, an array line a row of term numbers.
			var lines [][]*string
			var terms []string
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var line any
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					t.Fatalf("%s: line %q is not plain JSON: %v", b.name, sc.Text(), err)
				}
				switch line := line.(type) {
				case string:
					terms = append(terms, line)
				case []any:
					row := make([]*string, len(line))
					for i, ref := range line {
						if ref != nil {
							row[i] = &terms[int(ref.(float64))]
						}
					}
					lines = append(lines, row)
				}
			}
			resp.Body.Close()
			check("streamed, json.Unmarshal per line", lines)
		}
	}
}
