package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"time"
)

// runConfig is one invocation's plan.
type runConfig struct {
	seed      int64
	sc        scale
	window    time.Duration
	setups    int // set-up repetitions per end-to-end run
	smoke     bool
	repeat    int // end-to-end runs per workload
	workloads []string
	untraced  bool
	traced    bool
}

// runReport holds one round's results by workload name.
type runReport struct {
	EndToEnd map[string]*result `json:"end_to_end,omitempty"`
	PerLayer map[string]*result `json:"per_layer,omitempty"`
}

// report is what an invocation measured; -json writes it and -compare
// reads two of them.
type report struct {
	Seed     int64       `json:"seed"`
	Scale    string      `json:"scale"`
	Seconds  float64     `json:"seconds"`
	Runs     []runReport `json:"runs"`
	Problems []string    `json:"problems,omitempty"`
}

func run(ctx context.Context, cfg runConfig) (*report, error) {
	rep := &report{Seed: cfg.seed, Scale: cfg.sc.name, Seconds: cfg.window.Seconds()}
	t0 := time.Now()
	in := generate(cfg.seed, cfg.sc)
	if err := in.checkPin(); err != nil {
		return nil, err
	}
	progress("generated %d triples (%d LUBM + %d knowledge graph) in %.2fs", len(in.triples), in.nLUBM, len(in.triples)-in.nLUBM, time.Since(t0).Seconds())
	for r := 0; r < cfg.repeat; r++ {
		round := runReport{EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
		for _, name := range cfg.workloads {
			w, err := buildWorkload(name, in)
			if err != nil {
				return nil, err
			}
			if cfg.untraced {
				t0 := time.Now()
				res, err := runUntraced(ctx, w, in, cfg.window, cfg.setups)
				if err != nil {
					return nil, fmt.Errorf("%s: %w", name, err)
				}
				round.EndToEnd[name] = res
				progress("%s: end-to-end pass took %.1fs, %d ops, %d failed", name, time.Since(t0).Seconds(), res.Attempted, res.Failed)
			}
			if cfg.traced {
				t0 := time.Now()
				passes := w.tracePasses
				if cfg.smoke {
					passes = 1
				}
				res, err := runTraced(ctx, w, in, passes)
				if err != nil {
					return nil, fmt.Errorf("%s traced: %w", name, err)
				}
				round.PerLayer[name] = res
				if !cfg.smoke { // the tiny data does not separate the layers
					rep.Problems = append(rep.Problems, dominance(name, res.Metrics)...)
				}
				progress("%s: traced pass took %.1fs", name, time.Since(t0).Seconds())
			}
		}
		rep.Runs = append(rep.Runs, round)
	}
	for _, round := range rep.Runs {
		for _, byName := range []map[string]*result{round.EndToEnd, round.PerLayer} {
			for name, res := range byName {
				if res.Failed > 0 {
					rep.Problems = append(rep.Problems, fmt.Sprintf("%s: %d of %d ops failed or answered wrongly; first: %s", name, res.Failed, res.Attempted, res.Err))
				}
			}
		}
	}
	return rep, nil
}

func progress(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
}

// dominance asserts that each in-process workload still stresses the layer
// it was built for; if it fails, the workload no longer separates the
// layers and its membership must be adjusted (never its name).
func dominance(name string, m map[string]float64) []string {
	var out []string
	switch name {
	case "prune_bound":
		if s := m["soi.solve_share"] + m["prune.share"]; s < 0.55 {
			out = append(out, fmt.Sprintf("dominance: prune_bound spends %.2f of its pipeline in soi+prune, needs >= 0.55", s))
		}
		if s := m["engine.share"]; s > 0.30 {
			out = append(out, fmt.Sprintf("dominance: prune_bound spends %.2f of its pipeline in the engine, allowed <= 0.30", s))
		}
	case "join_bound":
		if s := m["engine.share"]; s < 0.55 {
			out = append(out, fmt.Sprintf("dominance: join_bound spends %.2f of its pipeline in the engine, needs >= 0.55", s))
		}
	}
	return out
}

func (rep *report) ok() bool { return len(rep.Problems) == 0 }

// print writes every metric by name with its unit: one run as values, several
// as median, quartiles and the largest relative spread.
func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, scale %s, %gs windows, %d run(s); in-process workloads: 1 closed-loop driver; HTTP workloads: %d closed-loop clients on keep-alive connections\n",
		rep.Seed, rep.Scale, rep.Seconds, len(rep.Runs), httpClients)
	for _, ws := range workloadSpecs {
		for _, part := range []struct {
			title string
			specs []metricSpec
			pick  func(runReport) *result
		}{
			{"end-to-end (tracing off)", endToEnd, func(r runReport) *result { return r.EndToEnd[ws.Name] }},
			{"per-layer (traced pass)", perLayer, func(r runReport) *result { return r.PerLayer[ws.Name] }},
		} {
			var results []*result
			for _, r := range rep.Runs {
				if res := part.pick(r); res != nil {
					results = append(results, res)
				}
			}
			if len(results) == 0 {
				continue
			}
			fmt.Fprintf(w, "\n%s — %s\n", ws.Name, part.title)
			for _, spec := range part.specs {
				var vals []float64
				for _, res := range results {
					vals = append(vals, res.Metrics[spec.Name])
				}
				if len(vals) == 1 {
					line := fmt.Sprintf("  %-34s %14.4f %-6s", spec.Name, vals[0], spec.Unit)
					if n := results[0].Samples[spec.Name]; n > 0 {
						line += fmt.Sprintf(" n=%d", n)
					}
					fmt.Fprintln(w, line)
					continue
				}
				q1, q3 := quantile(vals, 0.25), quantile(vals, 0.75)
				fmt.Fprintf(w, "  %-34s median %12.4f %-6s q1 %12.4f q3 %12.4f spread %.3f (bound %.2f)\n",
					spec.Name, median(vals), spec.Unit, q1, q3, spread(vals), spec.Bound)
			}
			attempted, failed := 0, 0
			for _, res := range results {
				attempted += res.Attempted
				failed += res.Failed
			}
			fmt.Fprintf(w, "  %-34s %14.6f %-6s n=%d\n", "failed_share", float64(failed)/math.Max(float64(attempted), 1), "ratio", attempted)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// spread is the run-to-run spread of a metric as a share of its median: the
// distance between the quartiles with four or more runs, the full range
// below that.
func spread(vals []float64) float64 {
	med := median(vals)
	if len(vals) < 2 || med == 0 {
		return 0
	}
	if len(vals) < 4 {
		s := append([]float64(nil), vals...)
		sort.Float64s(s)
		return (s[len(s)-1] - s[0]) / math.Abs(med)
	}
	return (quantile(vals, 0.75) - quantile(vals, 0.25)) / math.Abs(med)
}

// driverLine is the one JSON object the driver reads.
func (rep *report) driverLine(workload string, traced bool) string {
	res, specs := rep.Runs[0].EndToEnd[workload], endToEnd
	if traced {
		res, specs = rep.Runs[0].PerLayer[workload], perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, spec := range specs {
		line.Metrics[spec.Name] = value{res.Metrics[spec.Name], spec.Unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		fatal(err) // a NaN or Inf metric: a bug in the benchmark
	}
	return string(buf)
}

// compareReports prints one row per workload × end-to-end metric of two
// report files and reports whether any row is worse than its bound.
func compareReports(w io.Writer, oldPath, newPath string) (bool, error) {
	load := func(path string) (*report, error) {
		buf, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(buf, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &rep, nil
	}
	older, err := load(oldPath)
	if err != nil {
		return false, err
	}
	newer, err := load(newPath)
	if err != nil {
		return false, err
	}
	values := func(rep *report, workload, metric string) []float64 {
		var out []float64
		for _, r := range rep.Runs {
			if res := r.EndToEnd[workload]; res != nil {
				out = append(out, res.Metrics[metric])
			}
		}
		return out
	}
	anyWorse := false
	fmt.Fprintf(w, "%-12s %-22s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, ws := range workloadSpecs {
		for _, spec := range endToEnd {
			a, b := values(older, ws.Name, spec.Name), values(newer, ws.Name, spec.Name)
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			worsening := (mb - ma) / ma // > 0 is worse for "lower"
			if spec.Better == "higher" {
				worsening = -worsening
			}
			sp := math.Max(spread(a), spread(b))
			verdict := "same"
			switch {
			case sp > spec.Bound:
				verdict = "unresolved (spread wider than bound)"
			case worsening > spec.Bound:
				verdict, anyWorse = "WORSE than bound", true
			case -worsening > sp && len(a) > 1 && len(b) > 1:
				verdict = "better than the spread (confirm with paired runs)"
			}
			fmt.Fprintf(w, "%-12s %-22s %12.4f %12.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				ws.Name, spec.Name, ma, mb, 100*(mb-ma)/ma, 100*sp, 100*spec.Bound, verdict)
		}
	}
	return anyWorse, nil
}
