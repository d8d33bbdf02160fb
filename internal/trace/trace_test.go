package trace

import (
	"context"
	"encoding/json"
	"strconv"
	"testing"
	"time"
)

func TestSpanTreeConstruction(t *testing.T) {
	tr := New("root")
	if len(tr.ID()) != 32 {
		t.Fatalf("trace ID %q, want 32 hex chars", tr.ID())
	}
	root := tr.Root()
	if root.TraceID != tr.ID() {
		t.Fatalf("root TraceID %q, trace ID %q", root.TraceID, tr.ID())
	}
	child := root.StartChild("stage")
	child.SetAttr("mode", "pushdown")
	child.Add("rows", 3)
	child.Add("rows", 4)
	child.End()
	rec := root.Record("fsync", 5*time.Millisecond)
	rec.Add("bytes", 128)
	root.End()

	if len(root.Children) != 2 {
		t.Fatalf("root has %d children, want 2", len(root.Children))
	}
	if got := root.Find("stage"); got == nil || got.Attrs["mode"] != "pushdown" || got.Counters["rows"] != 7 {
		t.Errorf("stage span = %+v", got)
	}
	if got := root.Find("fsync"); got == nil || got.Duration != 5*time.Millisecond || got.Counters["bytes"] != 128 {
		t.Errorf("fsync span = %+v", got)
	}
	if root.Find("stage").Duration <= 0 {
		t.Errorf("ended live span has no duration")
	}
	if root.Find("nope") != nil {
		t.Errorf("Find invented a span")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("router.fanout")
	tp := tr.Traceparent()
	if len(tp) != 55 {
		t.Fatalf("traceparent %q, want 55 chars", tp)
	}
	id, ok := ParseTraceparent(tp)
	if !ok || id != tr.ID() {
		t.Fatalf("ParseTraceparent(%q) = %q, %v; want %q", tp, id, ok, tr.ID())
	}
	cont := Continue(tp, "query")
	if cont.ID() != tr.ID() {
		t.Fatalf("Continue adopted ID %q, want %q", cont.ID(), tr.ID())
	}
	if cont.Root().Traceparent() == tp {
		t.Fatalf("continued trace reused the parent span ID")
	}

	for _, bad := range []string{
		"", "00-short-span-01",
		"00-0000000000000000000000000000000g-00f067aa0ba902b7-01", // non-hex
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero ID
		"00_4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // wrong separator
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // version ff
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero parent ID
	} {
		if _, ok := ParseTraceparent(bad); ok {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
	// Malformed headers fall back to a fresh trace.
	if fresh := Continue("garbage", "q"); len(fresh.ID()) != 32 {
		t.Errorf("Continue with bad header: ID %q", fresh.ID())
	}
}

// TestDisabledPathAllocationFree is the contract the instrumented hot
// paths rely on: with no span in the context, the full call pattern the
// pipeline makes per request allocates nothing.
func TestDisabledPathAllocationFree(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		sp := SpanFromContext(ctx)
		c := sp.StartChild("stage")
		c.SetAttr("k", "v")
		c.Add("rows", 1)
		sp.Record("parse", time.Millisecond).Add("n", 2)
		sp.Attach(nil)
		c.End()
		_ = sp.Traceparent()
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocated %.1f times per op, want 0", allocs)
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	tr := New("query")
	tr.Root().StartChild("evaluate").Add("out", 9)
	tr.Root().End()
	buf, err := json.Marshal(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.TraceID != tr.ID() || back.Find("evaluate") == nil || back.Find("evaluate").Counters["out"] != 9 {
		t.Fatalf("round-tripped span = %+v", back)
	}
	// A deserialized subtree has no live trace but stays usable.
	back.SetAttr("stitched", "yes")
	if back.Attrs["stitched"] != "yes" {
		t.Fatalf("deserialized span rejected SetAttr")
	}
	if back.Traceparent() != "" {
		t.Fatalf("deserialized span claims a live traceparent")
	}
}

func TestSlowLogRing(t *testing.T) {
	var nilLog *SlowLog
	if nilLog.Enabled() || nilLog.Observe(Entry{Duration: time.Hour}) || nilLog.Total() != 0 || nilLog.Entries() != nil {
		t.Fatalf("nil slow log is not inert")
	}

	l := NewSlowLog(10 * time.Millisecond)
	if !l.Enabled() || l.Threshold() != 10*time.Millisecond {
		t.Fatalf("Enabled/Threshold broken")
	}
	if l.Observe(Entry{Query: "fast", Duration: time.Millisecond}) {
		t.Fatalf("recorded a query under the threshold")
	}
	// One entry more than the ring holds: the wrap evicts the first.
	for i := 0; i <= SlowLogSize; i++ {
		if !l.Observe(Entry{Query: strconv.Itoa(i), Duration: 20*time.Millisecond + time.Duration(i)}) {
			t.Fatalf("slow query %d not recorded", i)
		}
	}
	if l.Total() != SlowLogSize+1 {
		t.Fatalf("Total = %d, want %d", l.Total(), SlowLogSize+1)
	}
	got := l.Entries()
	if len(got) != SlowLogSize {
		t.Fatalf("ring kept %d entries, want %d", len(got), SlowLogSize)
	}
	// Newest first; the oldest entry ("0") was evicted by the wrap.
	for i, e := range got {
		if want := strconv.Itoa(SlowLogSize - i); e.Query != want {
			t.Fatalf("Entries()[%d].Query = %q, want %q", i, e.Query, want)
		}
	}

	// Threshold 0 keeps every query, however fast.
	if !NewSlowLog(0).Observe(Entry{Query: "instant"}) {
		t.Fatalf("a zero threshold dropped a query")
	}
}
