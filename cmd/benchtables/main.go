// Command benchtables regenerates the evaluation tables of the paper
// (Sect. 5) against the synthetic datasets:
//
//	benchtables -table 2          # SPARQLSIM vs. Ma et al. vs. HHK
//	benchtables -table 3          # pruning effectiveness
//	benchtables -table 4          # Volcano executor, full vs. pruned
//	benchtables -table 5          # index-nested-loop oracle, full vs. pruned
//	benchtables -table iters      # SOI convergence shapes (§5.3)
//	benchtables -table orders     # heuristic vs. random inequality orders (§5.3), in evaluations
//	benchtables -table all
//
// Scale knobs: -universities (LUBM-like), -kgscale (DBpedia-like), -seed,
// -repeats (timing repetitions, minimum is reported). -json FILE
// additionally dumps every computed table as a JSON report (durations in
// nanoseconds). The serving layers (plan cache, HTTP, WAL, router) are
// measured by the benchmark module under benchmark/, not here.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dualsim/internal/bench"
	"dualsim/internal/engine"
)

func main() {
	table := flag.String("table", "all", "comma-separated tables to regenerate: 2, 3, 4, 5, iters, orders, all")
	universities := flag.Int("universities", 3, "LUBM-like scale (number of universities)")
	kgScale := flag.Int("kgscale", 1, "DBpedia-like scale factor")
	seed := flag.Int64("seed", 42, "generator seed")
	repeats := flag.Int("repeats", 3, "timing repetitions (minimum reported)")
	jsonPath := flag.String("json", "", "write the computed tables as a JSON report to this file")
	flag.Parse()

	if err := run(*table, *universities, *kgScale, *seed, *repeats, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "benchtables:", err)
		os.Exit(1)
	}
}

// report is the -json artifact: configuration plus every computed table,
// keyed by table name.
//
//dualsim:wire
type report struct {
	Universities int            `json:"universities"`
	KGScale      int            `json:"kgscale"`
	Seed         int64          `json:"seed"`
	Repeats      int            `json:"repeats"`
	Tables       map[string]any `json:"tables"`
}

func run(table string, universities, kgScale int, seed int64, repeats int, jsonPath string) error {
	// Validate the table list before paying for dataset generation: a
	// typo must fail loudly, not silently produce a partial report.
	known := map[string]bool{
		"all": true, "2": true, "3": true, "4": true, "5": true,
		"iters": true, "orders": true,
	}
	wanted := make(map[string]bool)
	for _, t := range strings.Split(table, ",") {
		name := strings.TrimSpace(t)
		if !known[name] {
			return fmt.Errorf("unknown table %q (want 2, 3, 4, 5, iters, orders or all)", name)
		}
		wanted[name] = true
	}
	want := func(t string) bool { return wanted["all"] || wanted[t] }

	fmt.Printf("generating datasets (universities=%d, kgscale=%d, seed=%d)…\n",
		universities, kgScale, seed)
	d, err := bench.Setup(universities, kgScale, seed)
	if err != nil {
		return err
	}
	bench.DatasetSummary(os.Stdout, d)
	fmt.Println()

	rep := report{
		Universities: universities, KGScale: kgScale, Seed: seed, Repeats: repeats,
		Tables: make(map[string]any),
	}

	if want("2") {
		fmt.Println("Table 2: dual simulation runtimes, OPTIONAL-stripped B queries (seconds)")
		rows, err := bench.Table2(d, repeats)
		if err != nil {
			return err
		}
		bench.RenderTable2(os.Stdout, rows)
		fmt.Println()
		rep.Tables["table2"] = rows
	}
	if want("3") {
		fmt.Println("Table 3: result sizes, required triples, SPARQLSIM runtime, triples after pruning")
		rows, err := bench.Table3(d, repeats)
		if err != nil {
			return err
		}
		bench.RenderTable3(os.Stdout, rows)
		fmt.Println()
		rep.Tables["table3"] = rows
	}
	if want("4") {
		fmt.Println("Table 4: Volcano executor (in-memory-store stand-in), full vs. pruned (seconds)")
		rows, err := bench.EngineComparison(d, engine.NewVolcano(), repeats)
		if err != nil {
			return err
		}
		bench.RenderEngineTable(os.Stdout, rows)
		fmt.Println()
		rep.Tables["table4"] = rows
	}
	if want("5") {
		fmt.Println("Table 5: index-nested-loop oracle (relational-store stand-in), full vs. pruned (seconds)")
		rows, err := bench.EngineComparison(d, engine.NewIndexNL(), repeats)
		if err != nil {
			return err
		}
		bench.RenderEngineTable(os.Stdout, rows)
		fmt.Println()
		rep.Tables["table5"] = rows
	}
	if want("iters") {
		fmt.Println("SOI convergence shapes (§5.3): rounds per query")
		rows, err := bench.IterationShapes(d)
		if err != nil {
			return err
		}
		bench.RenderIterations(os.Stdout, rows)
		fmt.Println()
		rep.Tables["iters"] = rows
	}
	if want("orders") {
		fmt.Println("Order-space search (§5.3 brute-force analysis): inequality evaluations over 40 random orders")
		rows, err := bench.OrderSearch(d, 40, seed)
		if err != nil {
			return err
		}
		bench.RenderOrderSearch(os.Stdout, rows)
		fmt.Println()
		rep.Tables["orders"] = rows
	}
	if jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonPath, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("JSON report written to %s\n", jsonPath)
	}
	return nil
}
