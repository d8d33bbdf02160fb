package trace

import (
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds ParseTraceparent — the parser every
// request's traceparent header reaches — arbitrary header values. It
// must never panic; an accepted header is a W3C traceparent of the
// right shape that is none of the spec's invalid values (version ff,
// an all-zero trace or parent ID), and Continue carries it on under its
// own trace ID.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01",
		"00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01",
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, h string) {
		id, ok := ParseTraceparent(h)
		if !ok {
			if id != "" {
				t.Fatalf("ParseTraceparent(%q) refused the header but returned ID %q", h, id)
			}
			return
		}
		if len(h) != 55 || id != h[3:35] {
			t.Fatalf("ParseTraceparent(%q) = %q: not the header's trace-id field", h, id)
		}
		if h[0:2] == "ff" || strings.Trim(id, "0") == "" || strings.Trim(h[36:52], "0") == "" {
			t.Fatalf("ParseTraceparent(%q) accepted an invalid value", h)
		}
		for _, field := range []string{h[0:2], id, h[36:52], h[53:55]} {
			if strings.Trim(field, "0123456789abcdef") != "" {
				t.Fatalf("ParseTraceparent(%q) accepted the non-hex field %q", h, field)
			}
		}
		cont := Continue(h, "query")
		if cont.ID() != id {
			t.Fatalf("Continue(%q) runs under trace ID %q, want %q", h, cont.ID(), id)
		}
		if tp := cont.Traceparent(); tp == h || tp[36:52] == h[36:52] {
			t.Fatalf("Continue(%q) reused the parent span ID", h)
		}
	})
}
