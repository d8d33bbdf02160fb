// Command benchmark is the repository's ruler: one program that generates
// the data, runs four named workloads with the system's tracing off, runs a
// separate traced pass for the per-layer numbers, checks every answer and
// prints each metric by name with its unit. See README.md.
//
// The driver contract (BENCHMARK.json) runs it as
//
//	bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output. Without --workload/--trace it
// runs everything and prints the full report.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "", "run only this workload (default: all four)")
		seed         = flag.Int64("seed", 42, "seed of the generated data and op sequences")
		seconds      = flag.Int("seconds", runSeconds, "length of the measured window")
		traceFlag    = flag.Int("trace", -1, "0: end-to-end pass only, 1: traced per-layer pass only, -1: both")
		smoke        = flag.Bool("smoke", false, "tiny data, 1 s windows, 1 traced pass (the smoke test's scale)")
		repeat       = flag.Int("repeat", 1, "run the end-to-end pass N times and print median, quartiles and spread")
		compare      = flag.Bool("compare", false, "compare two report files: -compare old.json new.json")
		jsonOut      = flag.String("json", "", "also write the report to this file")
		emitSpec     = flag.Bool("emit-spec", false, "print BENCHMARK.json as generated from spec.go and exit")
		emitPin      = flag.Bool("emit-pin", false, "print the data.go pin of this -seed (and -smoke) and exit; for a deliberate re-baseline")
	)
	flag.Parse()
	switch {
	case *emitSpec:
		os.Stdout.Write(benchmarkJSON())
		return
	case *emitPin:
		sc := fullScale
		if *smoke {
			sc = smokeScale
		}
		fmt.Println(generate(*seed, sc).pinLine())
		return
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two report files"))
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	cfg := runConfig{seed: *seed, sc: fullScale, window: time.Duration(*seconds) * time.Second,
		setups: setupRepeats, repeat: *repeat}
	if *smoke {
		cfg.sc, cfg.window, cfg.setups, cfg.smoke = smokeScale, smokeWindow, 1, true
	}
	for _, w := range workloadSpecs {
		if *workloadFlag == "" || *workloadFlag == w.Name {
			cfg.workloads = append(cfg.workloads, w.Name)
		}
	}
	if len(cfg.workloads) == 0 {
		fatal(fmt.Errorf("unknown workload %q", *workloadFlag))
	}
	cfg.untraced, cfg.traced = *traceFlag != 1, *traceFlag != 0 && *repeat == 1

	rep, err := run(context.Background(), cfg)
	if err != nil {
		fatal(err)
	}
	rep.print(os.Stdout)
	if *jsonOut != "" {
		buf, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, buf, 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	// One workload, one pass: the driver's call. Its answer is the last
	// line; a wrong answer is reported there, not by the exit code.
	if *workloadFlag != "" && *traceFlag >= 0 && *repeat == 1 {
		fmt.Println(rep.driverLine(*workloadFlag, *traceFlag == 1))
		return
	}
	if !rep.ok() {
		os.Exit(1)
	}
}

// smokeWindow is the measured window at -smoke scale.
const smokeWindow = time.Second

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}
