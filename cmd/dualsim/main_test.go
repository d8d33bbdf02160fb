package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dualsim"
	"dualsim/internal/queries"
)

// TestMain doubles the test binary as the dualsim CLI when re-executed
// with DUALSIM_CLI_MAIN=1 — the hook TestMainExitCodes uses to assert
// process-level exit codes without building the command separately.
func TestMain(m *testing.M) {
	if os.Getenv("DUALSIM_CLI_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func fixture(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fig1a.nt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := dualsim.FromTriples(queries.Fig1aTriples())
	if err != nil {
		t.Fatal(err)
	}
	if err := dualsim.DumpNTriples(f, st); err != nil {
		t.Fatal(err)
	}
	return path
}

// do runs the CLI with a background context and defaults for the fields
// a test does not care about.
func do(t *testing.T, cfg cliConfig) error {
	t.Helper()
	return run(context.Background(), cfg)
}

func TestRunEvaluateModes(t *testing.T) {
	data := fixture(t)
	if err := do(t, cliConfig{data: data, queryText: queries.QueryX1, mode: "evaluate", limit: 1}); err != nil {
		t.Fatal(err)
	}
	// Through the pruning pipeline.
	if err := do(t, cliConfig{data: data, queryText: queries.QueryX2, mode: "evaluate", prune: true}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimulateMode(t *testing.T) {
	data := fixture(t)
	if err := do(t, cliConfig{data: data, queryText: queries.QueryX1, mode: "simulate"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPruneMode(t *testing.T) {
	data := fixture(t)
	out := filepath.Join(t.TempDir(), "pruned.nt")
	if err := do(t, cliConfig{data: data, queryText: queries.QueryX1, mode: "prune", out: out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := dualsim.LoadNTriples(f)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumTriples() != 4 {
		t.Fatalf("pruned dump has %d triples, want 4", st.NumTriples())
	}
}

func TestRunQueryFromFile(t *testing.T) {
	data := fixture(t)
	qf := filepath.Join(t.TempDir(), "q.rq")
	if err := os.WriteFile(qf, []byte(queries.QueryX1), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := do(t, cliConfig{data: data, queryFile: qf, mode: "evaluate"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunAnalyzeMode(t *testing.T) {
	// analyze needs no data file.
	if err := do(t, cliConfig{queryText: queries.QueryX3, mode: "analyze"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunCancelled(t *testing.T) {
	data := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, cliConfig{data: data, queryText: queries.QueryX1, mode: "evaluate", prune: true})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: %v", err)
	}
}

func TestRunErrors(t *testing.T) {
	data := fixture(t)
	cases := []struct {
		name string
		cfg  cliConfig
	}{
		{"missing data", cliConfig{queryText: queries.QueryX1, mode: "evaluate"}},
		{"missing query", cliConfig{data: data, mode: "evaluate"}},
		{"bad mode", cliConfig{data: data, queryText: queries.QueryX1, mode: "nope"}},
		{"bad query", cliConfig{data: data, queryText: "SELECT", mode: "evaluate"}},
		{"bad data path", cliConfig{data: "/no/such.nt", queryText: queries.QueryX1, mode: "evaluate"}},
	}
	for _, c := range cases {
		if do(t, c.cfg) == nil {
			t.Fatalf("%s: expected error", c.name)
		}
	}
}

// cli re-executes this test binary as the dualsim command (see
// TestMain) and returns its exit code and stderr.
func cli(t *testing.T, args ...string) (int, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), "DUALSIM_CLI_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	err = cmd.Run()
	code := 0
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return code, stderr.String()
}

// TestMainExitCodes pins the process-level contract: parse, exec and
// apply errors exit non-zero with the error on stderr; success exits 0.
func TestMainExitCodes(t *testing.T) {
	data := fixture(t)

	code, stderr := cli(t, "-data", data, "-q", queries.QueryX1, "-limit", "1")
	if code != 0 {
		t.Fatalf("clean run exited %d, stderr:\n%s", code, stderr)
	}

	cases := []struct {
		name string
		args []string
	}{
		{"parse error", []string{"-data", data, "-q", "SELECT broken"}},
		{"missing data", []string{"-q", queries.QueryX1}},
		{"apply error", []string{"-data", data, "-q", queries.QueryX1, "-apply", "/no/such.nt"}},
		{"bad data path", []string{"-data", "/no/such.nt", "-q", queries.QueryX1}},
	}
	for _, c := range cases {
		code, stderr := cli(t, c.args...)
		if code == 0 {
			t.Errorf("%s: exited 0", c.name)
		}
		if !strings.Contains(stderr, "dualsim:") {
			t.Errorf("%s: error not printed to stderr, got %q", c.name, stderr)
		}
	}
}

// TestRetiredFlagsAreParseErrors pins the flags that are gone: the
// evaluator is not selectable (-engine), the benchmark drivers
// (-repeat, -batch, -plancache, -batchworkers) are superseded by the
// benchmark module, the pipeline has no pre-filter stage (-fingerprint)
// and the solver no parallel kernels (-workers). Passing one is a
// flag-parse error (exit 2), not a silently ignored knob.
func TestRetiredFlagsAreParseErrors(t *testing.T) {
	data := fixture(t)
	for _, flag := range [][2]string{
		{"-engine", "index"},
		{"-repeat", "3"},
		{"-batch", "true"},
		{"-plancache", "8"},
		{"-batchworkers", "2"},
		{"-fingerprint", "2"},
		{"-workers", "2"},
	} {
		code, stderr := cli(t, "-data", data, "-q", queries.QueryX1, flag[0]+"="+flag[1])
		if code != 2 || !strings.Contains(stderr, "flag provided but not defined: "+flag[0]) {
			t.Errorf("%s: exit %d, stderr %q; want a flag-parse error", flag[0], code, stderr)
		}
	}
}

func TestRunLiveUpdate(t *testing.T) {
	data := fixture(t)
	writeNT := func(name string, ts []dualsim.Triple) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		st, err := dualsim.FromTriples(ts)
		if err != nil {
			t.Fatal(err)
		}
		if err := dualsim.DumpNTriples(f, st); err != nil {
			t.Fatal(err)
		}
		return path
	}
	apply := writeNT("adds.nt", []dualsim.Triple{
		dualsim.T("J._McTiernan", "directed", "Die_Hard"),
		dualsim.T("J._McTiernan", "worked_with", "S._de_Souza"),
	})
	del := writeNT("dels.nt", []dualsim.Triple{
		dualsim.T("G._Hamilton", "worked_with", "H._Saltzman"),
	})
	if err := do(t, cliConfig{
		data: data, queryText: queries.QueryX1, mode: "evaluate",
		applyFile: apply, delFile: del,
	}); err != nil {
		t.Fatal(err)
	}
	// -apply outside the evaluate mode is rejected.
	if err := do(t, cliConfig{
		data: data, queryText: queries.QueryX1, mode: "prune", applyFile: apply,
	}); err == nil {
		t.Fatal("-apply with -mode prune was accepted")
	}
}
