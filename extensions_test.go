package dualsim_test

import (
	"context"
	"testing"

	"dualsim"
)

func fig4Store(t *testing.T) *dualsim.Store {
	t.Helper()
	st, err := dualsim.FromTriples([]dualsim.Triple{
		dualsim.T("p1", "knows", "p2"),
		dualsim.T("p2", "knows", "p1"),
		dualsim.T("p2", "knows", "p3"),
		dualsim.T("p3", "knows", "p2"),
		dualsim.T("p3", "knows", "p4"),
		dualsim.T("p4", "knows", "p1"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestStrongSimulatePublicAPI(t *testing.T) {
	st := fig4Store(t)
	p := dualsim.NewPattern().
		Edge("v", "knows", "w").
		Edge("w", "knows", "v")

	matches, err := dualsim.StrongSimulate(st, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) == 0 {
		t.Fatal("expected matches")
	}
	// No match may include p4 (the Fig. 4 counterexample node).
	for _, m := range matches {
		for v, terms := range m.Candidates {
			for _, term := range terms {
				if term.Value == "p4" {
					t.Fatalf("p4 leaked into %s of match centered at %s", v, m.Center.Value)
				}
			}
		}
	}
	// But plain dual simulation does include p4.
	rel, err := open(t, st).SimulatePattern(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, term := range rel.Candidates("v") {
		if term.Value == "p4" {
			found = true
		}
	}
	if !found {
		t.Fatal("dual simulation should keep p4 — fixture drifted")
	}
}

func TestFingerprintPublicAPI(t *testing.T) {
	st, err := dualsim.GenerateLUBMStore(2, 42)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := dualsim.BuildFingerprint(st, 2)
	if err != nil {
		t.Fatal(err)
	}
	if fp.Blocks() <= 2 {
		t.Fatalf("blocks = %d; refinement did nothing", fp.Blocks())
	}
	if fp.Triples() >= st.NumTriples() {
		t.Fatalf("fingerprint not smaller: %d vs %d", fp.Triples(), st.NumTriples())
	}
	if r := fp.CompressionRatio(); r <= 0 || r >= 1 {
		t.Fatalf("compression ratio = %f", r)
	}

	// Lifted candidates over-approximate the exact dual simulation.
	p := dualsim.NewPattern().
		Edge("student", "ub:advisor", "prof").
		Edge("prof", "ub:worksFor", "dept")
	exact, err := open(t, st).SimulatePattern(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"student", "prof", "dept"} {
		lifted := fp.CandidateCount(p, v)
		if lifted < len(exact.Candidates(v)) {
			t.Fatalf("%s: lifted %d < exact %d (unsound)", v, lifted, len(exact.Candidates(v)))
		}
		if lifted > st.NumNodes() {
			t.Fatalf("%s: lifted %d exceeds node count", v, lifted)
		}
	}
	if fp.CandidateCount(p, "nope") != 0 {
		t.Fatal("unknown variable should count 0")
	}
}

func TestExtensionsNilStore(t *testing.T) {
	p := dualsim.NewPattern().Edge("a", "p", "b")
	if _, err := dualsim.StrongSimulate(nil, p); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := dualsim.BuildFingerprint(nil, 1); err == nil {
		t.Fatal("nil store accepted")
	}
}
