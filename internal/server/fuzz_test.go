package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualsim"
	"dualsim/internal/wire"
)

// FuzzDecodeRequest feeds decodeBody — the decoder in front of every
// /v1/query and /v1/apply — arbitrary bodies, decoded into
// each request type, and every decoded apply triple through Validate
// and ToTriple. It must never panic; every refusal is an *Error the
// client is to blame for (400, or 413 past the body limit); and a
// triple Validate accepts reaches the engine with its subject,
// predicate and object intact.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query":"SELECT * WHERE { ?s <p> ?o . }","limit":3,"timeoutMs":50}`,
		`{"query":"SELECT * WHERE { ?s <p> ?o . }","explain":"plan","trace":true}`,
		`{"adds":[{"s":"a","p":"b","o":"c"}],"dels":[{"s":"a","p":"b","lit":"","isLit":true}]}`,
		`{"adds":[{"s":"a","p":"b","o":"c","lit":"x"}]}`,
		`{"query":1}`,
		`{"nosuch":true}`,
		`{"query":"q"}{"query":"r"}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, into := range []any{&wire.QueryRequest{}, &wire.ApplyRequest{}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			if err := decodeBody(httptest.NewRecorder(), r, into); err != nil {
				var e *Error
				if !errors.As(err, &e) || e.Status != http.StatusBadRequest && e.Status != http.StatusRequestEntityTooLarge {
					t.Fatalf("decodeBody(%q) into %T: %v is no 400 or 413", body, into, err)
				}
				continue
			}
			req, ok := into.(*wire.ApplyRequest)
			if !ok {
				continue
			}
			for _, tr := range append(req.Adds, req.Dels...) {
				if tr.Validate() != nil {
					if tr.O == "" || !tr.IsLit && tr.Lit == "" {
						t.Fatalf("Validate refused %+v, which sets one object encoding", tr)
					}
					continue
				}
				back := wire.FromTriple(tr.ToTriple())
				if back.S != tr.S || back.P != tr.P || back.O != tr.O || back.Lit != tr.Lit {
					t.Fatalf("%+v reached the engine as %+v", tr, back)
				}
			}
		}
	})
}

// FuzzIfNoneMatch feeds holds — the If-None-Match check in front of
// every conditional export — arbitrary header values against an export
// validator of the server's shape, "<nonce>-<epoch>". It must never
// panic; a list naming the validator, strong or weak (W/), among other
// tags matches; "*" matches nothing; and no list matches a validator it
// does not contain.
func FuzzIfNoneMatch(f *testing.F) {
	for _, seed := range []struct {
		header, nonce string
		epoch         uint64
	}{
		{`"a1b2-7"`, "a1b2", 7},
		{`W/"a1b2-7"`, "a1b2", 7},
		{`"x-1", W/"a1b2-7" ,"y-2"`, "a1b2", 7},
		{`"a1b2-6"`, "a1b2", 7},
		{`*`, "a1b2", 0},
		{``, "", 0},
		{`,,, W/ ,"`, "n", 1},
		{`W/W/"a1b2-7"`, "a1b2", 7},
		{"\t\"a1b2-7\"\r\n", "a1b2", 7},
	} {
		f.Add(seed.header, seed.nonce, seed.epoch)
	}
	f.Fuzz(func(t *testing.T, header, nonce string, epoch uint64) {
		if strings.Contains(nonce, ",") {
			return // the server's nonces are hex; a comma would split the tag itself
		}
		etag := `"` + nonce + "-" + strconv.FormatUint(epoch, 10) + `"`
		got := holds([]string{header}, etag)
		if got && !strings.Contains(header, etag) {
			t.Fatalf("holds(%q, %q) matched a validator the list does not contain", header, etag)
		}
		if holds([]string{"*"}, etag) || holds([]string{"*", header}, etag) != got {
			t.Fatalf("holds(%q, %q): * matched", header, etag)
		}
		for _, lists := range [][]string{
			{header + "," + etag},
			{etag + " ," + header},
			{header + ", W/" + etag},
			{header, "W/" + etag},
			{" " + etag + "\t"},
		} {
			if !holds(lists, etag) {
				t.Fatalf("holds(%q, %q) missed the listed validator", lists, etag)
			}
		}
	})
}

// FuzzWALExportParams sends arbitrary query strings — fromEpoch, waitMs,
// pred and whatever else a peer puts there — to GET /v1/wal and GET
// /v1/export on a durable server whose log has a checkpoint behind it
// and a record after it. Nothing may panic and the server must keep
// answering /healthz; every status is one the endpoints document
// (200, 304, 400, 409, 410), and a 400 carries the ErrorResponse shape.
// The client gives up after 50ms, so a large waitMs parks the poll
// without stalling the fuzzer.
func FuzzWALExportParams(f *testing.F) {
	hs, db := newDurableServer(f)
	ctx := context.Background()
	for _, step := range []func() error{
		func() error {
			_, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n1", "directed", "m1")}})
			return err
		},
		func() error { _, err := db.Checkpoint(ctx); return err },
		func() error {
			_, err := db.Apply(ctx, dualsim.Delta{Adds: []dualsim.Triple{dualsim.T("n2", "directed", "m2")}})
			return err
		},
	} {
		if err := step(); err != nil {
			f.Fatal(err)
		}
	}
	for _, seed := range []string{
		"fromEpoch=0",
		"fromEpoch=1&waitMs=10",
		"fromEpoch=2&waitMs=60000",
		"fromEpoch=-1",
		"fromEpoch=18446744073709551616",
		"waitMs=-5",
		"waitMs=9223372036854775807&fromEpoch=1",
		"pred=directed&pred=directed&pred=nosuch",
		"pred=",
		"pred=%3Cdirected%3E&pred=%ZZ",
		"fromEpoch=1&fromEpoch=x",
		"",
	} {
		f.Add(seed)
	}
	get := func(ctx context.Context, target string) (*http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, "GET", hs.URL+target, nil)
		if err != nil {
			return nil, err
		}
		return http.DefaultClient.Do(req)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		// Only a valid request target reaches the handler; a byte the
		// request line cannot carry is net/http's to refuse. Percent
		// escapes still put every byte into the decoded parameters.
		if strings.ContainsFunc(raw, func(r rune) bool { return r <= ' ' || r >= 0x7f || r == '#' }) {
			return
		}
		for _, path := range []string{"/v1/wal", "/v1/export"} {
			rctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
			resp, err := get(rctx, path+"?"+raw)
			if err != nil {
				cancel()
				if errors.Is(err, context.DeadlineExceeded) {
					continue // a parked long-poll; the client left
				}
				t.Fatalf("GET %s?%s: %v", path, raw, err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			cancel()
			if err != nil {
				if errors.Is(err, context.DeadlineExceeded) {
					continue
				}
				t.Fatalf("GET %s?%s: reading the body: %v", path, raw, err)
			}
			switch resp.StatusCode {
			case http.StatusOK, http.StatusNotModified, http.StatusConflict, http.StatusGone:
			case http.StatusBadRequest:
				var e wire.ErrorResponse
				if json.Unmarshal(body, &e) != nil || e.Error == "" {
					t.Fatalf("GET %s?%s: 400 body %q is no ErrorResponse", path, raw, body)
				}
			default:
				t.Fatalf("GET %s?%s: status %d", path, raw, resp.StatusCode)
			}
		}
		hctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		resp, err := get(hctx, "/healthz")
		if err != nil {
			t.Fatalf("/healthz after %q: %v", raw, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/healthz after %q: status %d", raw, resp.StatusCode)
		}
	})
}

// FuzzQueryFlags sends one query to POST /v1/query under arbitrary
// body flags (explain, trace, limit and whatever else a client puts in
// the body) and traceparent headers, the only places a query's flags
// are read from. Nothing may panic; every status is one the endpoint
// documents, and every refusal an ErrorResponse under a JSON
// Content-Type; a 200 is either the NDJSON stream, header, term and row
// lines that a TermTable reads, ending in a stats or error event, or,
// when explain is set, an ExplainResponse.
func FuzzQueryFlags(f *testing.F) {
	_, hs, _ := newTestServer(f)
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, seed := range []struct{ flags, traceparent string }{
		{``, ""},
		{`,"trace":true`, ""},
		{``, tp},
		{`,"trace":false,"limit":1`, tp},
		{`,"explain":"plan"`, ""},
		{`,"explain":"analyze","trace":true`, tp},
		{`,"explain":"nosuch"`, ""},
		{`,"explain":"1"`, ""},
		{`,"stream":true`, ""},
		{`,"timeoutMs":1`, "00-not-a-traceparent"},
		{`,"limit":-1,"timeoutMs":-5`, "01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"},
	} {
		f.Add(seed.flags, seed.traceparent)
	}
	f.Fuzz(func(t *testing.T, flags, traceparent string) {
		// Only a valid header value reaches the handler; the bytes it
		// cannot carry are net/http's to refuse.
		if strings.ContainsFunc(traceparent, func(r rune) bool { return r < ' ' || r >= 0x7f }) {
			return
		}
		body := `{"query":"SELECT * WHERE { ?d <directed> ?m . ?d <worked_with> ?c . }"` + flags + `}`
		req, err := http.NewRequest("POST", hs.URL+"/v1/query", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if traceparent != "" {
			req.Header.Set("traceparent", traceparent)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s, traceparent %q: %v", body, traceparent, err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s, traceparent %q: reading the body: %v", body, traceparent, err)
		}
		ct := resp.Header.Get("Content-Type")
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusRequestEntityTooLarge, http.StatusTooManyRequests,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			var e wire.ErrorResponse
			if ct != wire.ContentTypeJSON || json.Unmarshal(data, &e) != nil || e.Error == "" {
				t.Fatalf("%s, traceparent %q: %d %s body %q is no ErrorResponse", body, traceparent, resp.StatusCode, ct, data)
			}
			return
		default:
			t.Fatalf("%s, traceparent %q: status %d", body, traceparent, resp.StatusCode)
		}
		if ct == wire.ContentTypeNDJSON {
			checkStreamed(t, data)
			return
		}
		var ex wire.ExplainResponse
		if err := json.Unmarshal(data, &ex); err != nil || ex.Explain == nil {
			t.Fatalf("%s, traceparent %q: a %s 200 %q is neither a stream nor an explain: %v", body, traceparent, ct, data, err)
		}
	})
}

// checkStreamed holds one streamed 200 to the stream's grammar: a header
// event, then term and row lines a TermTable reads, then a stats or
// error event, last.
func checkStreamed(t *testing.T, data []byte) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSuffix(data, []byte{'\n'}), []byte{'\n'})
	var tab wire.TermTable
	var header wire.Event
	for i, line := range lines {
		kind, err := tab.Read(line, len(header.Vars), true)
		if err != nil || (i == 0 || i == len(lines)-1) && kind != wire.LineEvent {
			t.Fatalf("stream line %d %q: %v\n%s", i, line, err, data)
		}
		if kind != wire.LineEvent {
			continue
		}
		var ev wire.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("stream line %d %q: %v", i, line, err)
		}
		switch {
		case i == 0 && ev.Kind == wire.EventHeader:
			header = ev
		case i == len(lines)-1 && (ev.Kind == wire.EventStats || ev.Kind == wire.EventError):
		default:
			t.Fatalf("stream line %d is a %q event\n%s", i, ev.Kind, data)
		}
	}
}
