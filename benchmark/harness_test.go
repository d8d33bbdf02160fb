package main

import (
	"bytes"
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"testing"
)

// TestSmoke runs all four workloads at -smoke scale, both passes, and holds
// the harness to its own contract: exactly the metric names of spec.go, no
// failed op, and a BENCHMARK.json that says the same as spec.go.
func TestSmoke(t *testing.T) {
	outDir = t.TempDir()
	cfg := runConfig{seed: 42, sc: smokeScale, window: smokeWindow, setups: 1, smoke: true, repeat: 1, untraced: true, traced: true}
	for _, w := range workloadSpecs {
		cfg.workloads = append(cfg.workloads, w.Name)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Problems {
		t.Error(p)
	}
	check := func(workload, pass string, res *result, specs []metricSpec) {
		if res == nil {
			t.Errorf("%s: no %s result", workload, pass)
			return
		}
		if res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("%s %s: %d of %d ops failed: %s", workload, pass, res.Failed, res.Attempted, res.Err)
		}
		var got, want []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		for _, s := range specs {
			want = append(want, s.Name)
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Errorf("%s %s emits %d metrics, spec.go lists %d:\n got %v\nwant %v", workload, pass, len(got), len(want), got, want)
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s %s emits %q where spec.go lists %q", workload, pass, got[i], want[i])
			}
		}
	}
	for _, w := range workloadSpecs {
		check(w.Name, "end-to-end", rep.Runs[0].EndToEnd[w.Name], endToEnd)
		check(w.Name, "per-layer", rep.Runs[0].PerLayer[w.Name], perLayer)
		for _, s := range endToEnd {
			if v := rep.Runs[0].EndToEnd[w.Name].Metrics[s.Name]; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, s.Name, v)
			}
		}
		if line := rep.driverLine(w.Name, false); !bytes.Contains([]byte(line), []byte(`"correct":true`)) {
			t.Errorf("%s: driver line does not report a correct run: %s", w.Name, line)
		}
	}
}

// TestSpec checks the names and limits the driver enforces before a run.
func TestSpec(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not made of letters, digits, _ . - (at most 64)", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadSpecs {
		name(w.Name)
		if len(w.Why) > 200 {
			t.Errorf("%s: why has %d characters, the limit is 200", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		name(m.Name)
		if m.Moves == "" {
			t.Errorf("%s: no prediction of what it moves", m.Name)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadSpecs) < 2 || len(workloadSpecs) > 8 {
		t.Error("spec.go is outside the driver's limits on list lengths")
	}
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, benchmarkJSON()) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with: bash benchmark/run.sh -emit-spec > BENCHMARK.json")
	}
}

// TestVetClean keeps the benchmark inside the repository's own invariant
// suite: the root module's TestRepoClean cannot see this nested module.
func TestVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("builds dualsimvet and vets the module; skipped with -short")
	}
	tool := filepath.Join(t.TempDir(), "dualsimvet")
	if out, err := exec.Command("go", "build", "-o", tool, "dualsim/cmd/dualsimvet").CombinedOutput(); err != nil {
		t.Fatalf("building dualsimvet: %v\n%s", err, out)
	}
	if out, err := exec.Command("go", "vet", "-vettool="+tool, "./...").CombinedOutput(); err != nil {
		t.Fatalf("dualsimvet is not clean on the benchmark: %v\n%s", err, out)
	}
}
