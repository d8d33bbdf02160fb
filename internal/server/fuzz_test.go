package server

import (
	"strconv"
	"strings"
	"testing"
)

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
