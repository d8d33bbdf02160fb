package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunAllTablesTinyScale executes the full harness on a minimal
// dataset to guard the cmd wiring end to end.
func TestRunAllTablesTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	if err := run("all", 1, 1, 7, 1, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleTable(t *testing.T) {
	if err := run("iters", 1, 1, 7, 1, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunTableJSON guards the -json report: a table lands under its name
// with the stable lowerCamel keys of its row type.
func TestRunTableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run("orders", 1, 1, 7, 1, path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(buf, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	rows, ok := rep.Tables["orders"].([]any)
	if !ok || len(rows) == 0 {
		t.Fatalf("report misses the orders table: %v", rep.Tables)
	}
	row, ok := rows[0].(map[string]any)
	if !ok {
		t.Fatalf("orders row shape: %T", rows[0])
	}
	for _, key := range []string{"query", "heuristicEvaluations", "bestEvaluations", "worstEvaluations"} {
		if _, ok := row[key]; !ok {
			t.Fatalf("orders row misses %q: %v", key, row)
		}
	}
}

// TestRetiredTablesAreUnknown pins the removal of the engineering tables:
// their names are rejected before any dataset is generated, alone or next
// to a paper table.
func TestRetiredTablesAreUnknown(t *testing.T) {
	for _, name := range []string{
		"throughput", "updates", "serving", "persist", "cluster", "planner", "trace", "stats",
	} {
		for _, arg := range []string{name, "2," + name} {
			var err error
			out := captureStdout(t, func() { err = run(arg, 1, 1, 7, 1, "") })
			if err == nil || !strings.Contains(err.Error(), "unknown table") {
				t.Errorf("-table %s: err = %v, want unknown table", arg, err)
			}
			if out != "" {
				t.Errorf("-table %s: printed %q before failing", arg, out)
			}
		}
	}
}

// captureStdout runs fn with os.Stdout redirected and returns what it
// printed.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	fn()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
