package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dualsim/internal/wire"
)

// FuzzDecodeRequest feeds decodeBody — the decoder in front of every
// /v1/query, /v1/batch and /v1/apply — arbitrary bodies, decoded into
// each request type, and every decoded apply triple through Validate
// and ToTriple. It must never panic; every refusal is an *Error the
// client is to blame for (400, or 413 past the body limit); and a
// triple Validate accepts reaches the engine with its subject,
// predicate and object intact.
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"query":"SELECT * WHERE { ?s <p> ?o . }","limit":3,"stream":true,"timeoutMs":50}`,
		`{"queries":["SELECT * WHERE { ?s <p> ?o . }",""],"failFast":true,"trace":true}`,
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
		for _, into := range []any{&wire.QueryRequest{}, &wire.BatchRequest{}, &wire.ApplyRequest{}} {
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
