// Tests for the dualsimvet invariant suite. The harness builds
// cmd/dualsimvet once, then drives it the way users do — through
// `go vet -vettool` — against the fixture module under
// testdata/src/dualsim, matching emitted diagnostics against the
// fixtures' "// want" regex comments exactly (every want must fire,
// and nothing else may).
package lint_test

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	toolPath   string // built dualsimvet binary
	repoRoot   string // module root of dualsim itself
	fixtureDir string // root of the fixture module
)

func TestMain(m *testing.M) {
	var err error
	repoRoot, err = filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fixtureDir = filepath.Join(repoRoot, "internal", "lint", "testdata", "src", "dualsim")

	dir, err := os.MkdirTemp("", "dualsimvet")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	toolPath = filepath.Join(dir, "dualsimvet")
	build := exec.Command("go", "build", "-o", toolPath, "./cmd/dualsimvet")
	build.Dir = repoRoot
	if out, err := build.CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building dualsimvet: %v\n%s", err, out)
		os.RemoveAll(dir)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// diag is one parsed `file:line:col: [analyzer] message` line.
type diag struct {
	file     string
	line     int
	analyzer string
	msg      string
}

var diagRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): \[(\w+)\] (.*)$`)

// runVet runs `go vet -vettool=dualsimvet [-analyzer...] ./...` in the
// fixture module and parses the diagnostics. Naming analyzers restricts
// the run to them, mirroring vet's selection semantics. Any output line
// that is not a suite diagnostic (e.g. a type-check error in a fixture)
// fails the test.
func runVet(t *testing.T, analyzers ...string) []diag {
	t.Helper()
	args := []string{"vet", "-vettool=" + toolPath}
	for _, a := range analyzers {
		args = append(args, "-"+a)
	}
	args = append(args, "./...")
	cmd := exec.Command("go", args...)
	cmd.Dir = fixtureDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		// Diagnostics make go vet exit nonzero; that is expected. A
		// failure to even start is not.
		if _, ok := err.(*exec.ExitError); !ok {
			t.Fatalf("go vet did not run: %v\n%s", err, out)
		}
	}
	var diags []diag
	for _, line := range strings.Split(string(out), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		m := diagRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable go vet output line (fixture type-check error?): %q\nfull output:\n%s", line, out)
		}
		n, _ := strconv.Atoi(m[2])
		diags = append(diags, diag{file: filepath.ToSlash(m[1]), line: n, analyzer: m[4], msg: m[5]})
	}
	return diags
}

// want is one expectation parsed from a fixture's `// want` comment.
type want struct {
	file string
	line int
	re   *regexp.Regexp
}

var backquoted = regexp.MustCompile("`([^`]*)`")

// collectWants extracts the backquoted regexes of every `// want`
// comment in the given fixture files (paths relative to the fixture
// module root).
func collectWants(t *testing.T, files ...string) []want {
	t.Helper()
	var ws []want
	for _, rel := range files {
		data, err := os.ReadFile(filepath.Join(fixtureDir, filepath.FromSlash(rel)))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			idx := strings.Index(line, "// want ")
			if idx < 0 {
				continue
			}
			pats := backquoted.FindAllStringSubmatch(line[idx:], -1)
			if len(pats) == 0 {
				t.Fatalf("%s:%d: want comment without backquoted pattern", rel, i+1)
			}
			for _, p := range pats {
				ws = append(ws, want{file: rel, line: i + 1, re: regexp.MustCompile(p[1])})
			}
		}
	}
	if len(ws) == 0 {
		t.Fatalf("no want expectations found in %v", files)
	}
	return ws
}

// matchWants asserts a one-to-one correspondence between diagnostics
// and expectations: every want is satisfied by a diagnostic on its
// exact file:line whose message matches the regex, and no diagnostic
// is left over.
func matchWants(t *testing.T, diags []diag, wants []want) {
	t.Helper()
	used := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for i, d := range diags {
			if used[i] || d.file != w.file || d.line != w.line || !w.re.MatchString(d.msg) {
				continue
			}
			used[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic: %s:%d want match for %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !used[i] {
			t.Errorf("unexpected diagnostic: %s:%d: [%s] %s", d.file, d.line, d.analyzer, d.msg)
		}
	}
}

// Per-analyzer runs: the suite is invoked with only that analyzer
// enabled, so these also verify vet-style analyzer selection — a
// diagnostic from any other analyzer would show up as unexpected.

func TestCtxflow(t *testing.T) {
	matchWants(t, runVet(t, "ctxflow"), collectWants(t, "internal/engine/ctxflow.go"))
}

func TestWiretags(t *testing.T) {
	matchWants(t, runVet(t, "wiretags"), collectWants(t, "internal/wire/wiretags.go", "api/annotated.go"))
}

func TestNolockio(t *testing.T) {
	matchWants(t, runVet(t, "nolockio"), collectWants(t, "internal/stats/nolockio.go"))
}

func TestHotalloc(t *testing.T) {
	matchWants(t, runVet(t, "hotalloc"), collectWants(t, "hotpath/hotalloc.go"))
}

func TestErrsync(t *testing.T) {
	matchWants(t, runVet(t, "errsync"), collectWants(t, "internal/persist/errsync.go"))
}

// layeringFixtures are the files carrying layering expectations; the
// allowed root import in internal/server, the oracle references and the
// pruned-store rebuild in internal/bench, and the rebuilds in
// internal/prune, internal/storage, benchmark/ and cmd/dualsim/prune_test.go are
// part of the module run and must stay silent.
var layeringFixtures = []string{
	"internal/bitvec/layering.go",
	"internal/bitmat/layering.go",
	"internal/plan/layering.go",
	"internal/cluster/router/layering.go",
	"internal/server/oracle.go",
	"internal/bench/oracle.go",
	"cmd/dualsim/prune.go",
}

func TestLayering(t *testing.T) {
	matchWants(t, runVet(t, "layering"), collectWants(t, layeringFixtures...))
}

// TestFullSuite runs all six analyzers together over the fixture
// module: the union of every file's expectations, and nothing from
// internal/other (the out-of-scope control package).
func TestFullSuite(t *testing.T) {
	wants := collectWants(t,
		"internal/engine/ctxflow.go",
		"internal/wire/wiretags.go",
		"api/annotated.go",
		"internal/stats/nolockio.go",
		"hotpath/hotalloc.go",
		"internal/persist/errsync.go",
	)
	wants = append(wants, collectWants(t, layeringFixtures...)...)
	matchWants(t, runVet(t), wants)
}

// TestRepoClean is the acceptance smoke test: the tree itself must be
// free of suite diagnostics. Uses the standalone entry point (which
// re-execs go vet), exactly as CI invokes it.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("vets the whole repository; skipped with -short")
	}
	cmd := exec.Command(toolPath, "./...")
	cmd.Dir = repoRoot
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("dualsimvet ./... is not clean: %v\n%s", err, out)
	}
}

// TestVetToolProtocol checks the two handshake surfaces cmd/go probes
// before trusting a -vettool: -flags must emit a JSON flag inventory
// listing every analyzer, and -V=full must emit a version line ending
// in a build ID.
func TestVetToolProtocol(t *testing.T) {
	out, err := exec.Command(toolPath, "-flags").Output()
	if err != nil {
		t.Fatalf("-flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not the JSON cmd/go expects: %v\n%s", err, out)
	}
	have := map[string]bool{}
	for _, f := range flags {
		have[f.Name] = f.Bool
	}
	for _, a := range []string{"ctxflow", "wiretags", "nolockio", "hotalloc", "errsync", "layering"} {
		if !have[a] {
			t.Errorf("-flags does not advertise boolean analyzer flag -%s", a)
		}
	}

	out, err = exec.Command(toolPath, "-V=full").Output()
	if err != nil {
		t.Fatalf("-V=full: %v", err)
	}
	version := strings.TrimSpace(string(out))
	if !regexp.MustCompile(`^\S+ version devel .*buildID=[0-9a-f]+$`).MatchString(version) {
		t.Errorf("-V=full output %q does not match cmd/go's expected shape", version)
	}
}
