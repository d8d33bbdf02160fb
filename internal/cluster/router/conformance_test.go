package router

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
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
	t.Helper()
	full, err := dualsim.FromTriples(triples)
	if err != nil {
		t.Fatal(err)
	}
	var endpoints [][]string
	for i := 0; i < 2; i++ {
		st, err := cluster.ShardStore(full, cluster.ShardSpec{Index: i, N: 2})
		if err != nil {
			t.Fatal(err)
		}
		endpoints = append(endpoints, []string{startShard(t, st).URL})
	}
	rt, err := New(endpoints, WithProtocol(popts...))
	if err != nil {
		t.Fatal(err)
	}
	rt.Probe(context.Background())
	rs := httptest.NewServer(rt.Handler())
	t.Cleanup(rs.Close)
	return []backend{
		{"daemon", startShard(t, full, popts...).URL, "dualsimd"},
		{"router", rs.URL, "dualsimrouter"},
	}
}

// reply is what the conformance table compares across backends.
type reply struct {
	Status     int
	Epoch      string   // X-Dualsim-Epoch
	Traced     bool     // X-Dualsim-Trace present
	RetryAfter string   // Retry-After
	Events     []string // NDJSON: event kinds, rows collapsed to "row×N"
	HasError   bool     // the body carries a non-empty "error"
	Rows       []string // buffered 200: canonical row set
	StatsTrace bool     // the stats carry a span tree
	Results    int      // the stats' result count

	// Not compared across backends: IDs are minted per request, and the
	// router's stats are the merge's, which has no operator list.
	traceID   string
	operators bool // the stats carry a non-empty operator list
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
		Status:     resp.StatusCode,
		Epoch:      resp.Header.Get("X-Dualsim-Epoch"),
		Traced:     resp.Header.Get("X-Dualsim-Trace") != "",
		RetryAfter: resp.Header.Get("Retry-After"),
		traceID:    resp.Header.Get("X-Dualsim-Trace"),
	}
	if resp.Header.Get("Content-Type") == wire.ContentTypeNDJSON {
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		rows := 0
		flush := func() {
			if rows > 0 {
				out.Events = append(out.Events, fmt.Sprintf("row×%d", rows))
				rows = 0
			}
		}
		for sc.Scan() {
			var ev wire.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
			}
			if ev.Kind == wire.EventRow {
				rows++
				continue
			}
			flush()
			out.Events = append(out.Events, ev.Kind)
			if ev.Kind == wire.EventStats && ev.Stats != nil {
				out.stats(ev.Stats)
			}
		}
		flush()
		return out
	}
	var env struct {
		Error string             `json:"error"`
		Rows  [][]*string        `json:"rows"`
		Stats *dualsim.ExecStats `json:"stats"`
	}
	buf, _ := io.ReadAll(resp.Body)
	if json.Unmarshal(buf, &env) == nil {
		out.HasError = env.Error != ""
		out.Rows = canonRows(env.Rows)
		if env.Stats != nil {
			out.stats(env.Stats)
		}
	}
	return out
}

func (r *reply) stats(s *dualsim.ExecStats) {
	r.StatsTrace = s.Trace != nil
	r.operators = len(s.Operators) > 0
	r.Results = s.Results
}

// batchMember posts a one-member /v1/batch and returns the member's
// rows and stats in reply form.
func batchMember(t *testing.T, url, query string) reply {
	t.Helper()
	body, _ := json.Marshal(wire.BatchRequest{Queries: []string{query}})
	resp, err := http.Post(url+"/v1/batch", wire.ContentTypeJSON, strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var br wire.BatchResponse
	if err := json.NewDecoder(resp.Body).Decode(&br); err != nil {
		t.Fatal(err)
	}
	out := reply{Status: resp.StatusCode}
	if len(br.Results) != 1 || br.Results[0].Stats == nil {
		t.Fatalf("/v1/batch: %d members, want one with stats: %+v", len(br.Results), br.Results)
	}
	out.HasError = br.Results[0].Error != ""
	out.Rows = canonRows(br.Results[0].Rows)
	out.stats(br.Results[0].Stats)
	return out
}

func TestProtocolConformance(t *testing.T) {
	// Fig. 1(a) plus a predicate whose triple self-join is far too large
	// to finish inside the deadline case's timeoutMs.
	triples := queries.Fig1aTriples()
	for i := 0; i < 400; i++ {
		triples = append(triples, dualsim.T(fmt.Sprintf("n%d", i), "linked", fmt.Sprintf("m%d", i)))
	}
	pair := startPair(t, triples)

	const x1 = `SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }`
	const slow = `SELECT * WHERE { ?a <linked> ?b . ?c <linked> ?d . ?e <linked> ?f . }`
	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	streamed := []string{"header", "row×2", "stats"}
	q := func(fields string) string {
		return fmt.Sprintf(`{"query":%q%s}`, x1, fields)
	}
	for _, tc := range []struct {
		name   string
		path   string
		hdr    map[string]string
		body   string
		status int
		events []string // the NDJSON event sequence, when the reply streams
		traced bool     // the reply must carry a trace header and a span tree
		check  func(t *testing.T, b backend, r reply)
	}{
		{name: "malformed body", body: `{`, status: 400},
		{name: "unknown field", body: `{"nope":1}`, status: 400},
		{name: "oversized body", body: `{"query":"` + strings.Repeat("x", 64<<20) + `"}`, status: 413},
		{name: "empty query", body: `{"query":"  "}`, status: 400},
		{name: "parse error", body: `{"query":"SELECT broken"}`, status: 400},
		{name: "unknown explain mode", body: q(`,"explain":"bogus"`), status: 400},
		{name: "timeoutMs expiry", body: fmt.Sprintf(`{"query":%q,"timeoutMs":20}`, slow), status: 504},
		{name: "buffered", body: q(""), status: 200, check: func(t *testing.T, _ backend, r reply) {
			if len(r.Rows) != 2 || r.Epoch != "0" {
				t.Errorf("buffered reply: %+v", r)
			}
		}},
		{name: "limit truncates", body: q(`,"limit":1,"stream":true`), status: 200, events: []string{"header", "row×1", "stats"}},
		{name: "stream by body", body: q(`,"stream":true`), status: 200, events: streamed},
		{name: "stream by URL", path: "?stream=1", body: q(""), status: 200, events: streamed},
		{name: "stream by Accept", hdr: map[string]string{"Accept": wire.ContentTypeNDJSON}, body: q(""), status: 200, events: streamed},
		{name: "trace by body", body: q(`,"trace":true`), status: 200, traced: true},
		{name: "trace by URL", path: "?trace=1", body: q(""), status: 200, traced: true},
		{name: "trace by traceparent", hdr: map[string]string{"traceparent": "00-" + traceID + "-00f067aa0ba902b7-01"}, body: q(""), status: 200, traced: true,
			check: func(t *testing.T, _ backend, r reply) {
				if r.traceID != traceID {
					t.Errorf("X-Dualsim-Trace = %q, want the caller's %q", r.traceID, traceID)
				}
			}},
		{name: "streamed trace", path: "?stream=1&trace=1", body: q(""), status: 200, events: streamed, traced: true},
		// One evaluator behind both routes: a /v1/batch member's stats and
		// the /v1/query stats trailer agree for one text, and on the daemon
		// (whose stats are one execution's) both list the executor's
		// operators.
		{name: "batch and query share the executor", path: "?stream=1", body: q(""), status: 200, events: streamed,
			check: func(t *testing.T, b backend, r reply) {
				m := batchMember(t, b.url, x1)
				if m.Status != 200 || m.HasError || m.Results != 2 || r.Results != 2 || m.operators != r.operators {
					t.Errorf("/v1/batch member %+v disagrees with the /v1/query trailer %+v", m, r)
				}
				if b.name == "daemon" && !(m.operators && r.operators) {
					t.Errorf("operators missing: /v1/batch member %v, /v1/query trailer %v", m.operators, r.operators)
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var got []reply
			for _, b := range pair {
				r := do(t, "POST", b.url+"/v1/query"+tc.path, tc.hdr, strings.NewReader(tc.body))
				if r.Status != tc.status {
					t.Errorf("%s: status %d, want %d", b.name, r.Status, tc.status)
				}
				if r.HasError != (tc.status >= 400) {
					t.Errorf("%s: error body present = %v on status %d", b.name, r.HasError, r.Status)
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
				r.traceID, r.operators = "", false
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
		server.WithMaxInFlight(1), server.WithQueueDepth(0), server.WithRetryAfter(2*time.Second))
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
		if r.Status != http.StatusTooManyRequests || r.RetryAfter != "2" || !r.HasError {
			t.Errorf("%s: saturated query: %+v, want 429 with Retry-After 2", b.name, r)
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
// decoded values from the buffered envelope, the NDJSON stream and a
// /v1/batch member, on both backends: three shapes, one rendering. The
// stream is read twice, by the typed client and line by line with plain
// json.Unmarshal, the way a third-party consumer would.
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

			buffered, err := c.Query(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			check("buffered", buffered.Rows)

			st, err := c.QueryStream(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			var streamed [][]*string
			for st.Next() {
				streamed = append(streamed, st.Row())
			}
			if err := st.Err(); err != nil {
				t.Fatal(err)
			}
			st.Close()
			check("streamed, typed client", streamed)

			batch, err := c.Batch(ctx, []string{q})
			if err != nil || len(batch.Results) != 1 || batch.Results[0].Error != "" {
				t.Fatalf("%s: batch: %v %+v", b.name, err, batch)
			}
			check("batch", batch.Results[0].Rows)

			resp, err := http.Post(b.url+"/v1/query?stream=1", wire.ContentTypeJSON,
				strings.NewReader(fmt.Sprintf(`{"query":%q}`, q)))
			if err != nil {
				t.Fatal(err)
			}
			var lines [][]*string
			sc := bufio.NewScanner(resp.Body)
			for sc.Scan() {
				var ev wire.Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					t.Fatalf("%s: line %q is not plain JSON: %v", b.name, sc.Text(), err)
				}
				if ev.Kind == wire.EventRow {
					lines = append(lines, ev.Values)
				}
			}
			resp.Body.Close()
			check("streamed, json.Unmarshal per line", lines)
		}
	}
}
