package cluster

import "testing"

// FuzzParseShardSpec feeds ParseShardSpec — dualsimd's -shard flag —
// arbitrary text. It must never panic, and every spec it accepts is
// valid and parses back from its String form to itself.
func FuzzParseShardSpec(f *testing.F) {
	for _, seed := range []string{
		"0/1", "1/2", " 3 / 4 ", "+1/2", "2/2", "-1/2", "0/0", "1/", "/2", "1/2/3",
		"nope", "", "9223372036854775807/9223372036854775807", "0/9223372036854775807", "0x1/2",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseShardSpec(s)
		if err != nil {
			return
		}
		if err := spec.Validate(); err != nil {
			t.Fatalf("ParseShardSpec(%q) accepted %+v, which fails Validate: %v", s, spec, err)
		}
		back, err := ParseShardSpec(spec.String())
		if err != nil || back != spec {
			t.Fatalf("ParseShardSpec(%q) = %+v, but its String %q parses to %+v, %v", s, spec, spec.String(), back, err)
		}
	})
}
