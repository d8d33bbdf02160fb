package storage

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"dualsim/internal/rdf"
)

// goldenValues are the term values whose renderings need escaping (and
// the empty value), as the server's row renderer tests them.
var goldenValues = []string{
	"", "plain", `say "hi"`, `back\slash`, "line\nbreak", "tab\there", "cr\rhere",
	"ctl\x01\x1f", "ünï — 日本 😀", `<&>`, " ", "bad\xff", "cut\xe2\x80", "\xe2\x80\"", `\"`, `\\n`,
}

// goldenFixture is fig. 1a plus one literal and one IRI per golden value.
func goldenFixture(t *testing.T) *Store {
	t.Helper()
	ts := fig1a()
	for i, v := range goldenValues {
		ts = append(ts, rdf.TL(fmt.Sprintf("s%d", i), "lit", v), rdf.T("iri:"+v, "iri", "o"))
	}
	return mustStore(t, ts)
}

// TestSnapshotGoldenBytes pins the DSIMSNP1 body: EncodeSnapshot of the
// fixture is byte-identical to the body recorded in testdata, so data
// dirs, replicas and shard exports written by earlier builds keep
// reading, and the recorded body decodes and re-encodes to itself.
func TestSnapshotGoldenBytes(t *testing.T) {
	want, err := os.ReadFile("testdata/golden.dsnap")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := goldenFixture(t).EncodeSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("EncodeSnapshot wrote %d bytes that differ from the %d-byte golden body", got.Len(), len(want))
	}
	st, err := DecodeSnapshot(want)
	if err != nil {
		t.Fatal(err)
	}
	got.Reset()
	if err := st.EncodeSnapshot(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("the golden body does not re-encode to itself")
	}
}
