// Command benchmark is the repository's one measurement spine: seven
// named workloads, five end-to-end metrics on each, and a traced run that
// attributes them to layers. See README.md for the workload table and the
// layer -> end-to-end map, and ../BENCHMARK.json for the driver contract.
//
//	go run ./benchmark                       every workload, end to end and traced
//	go run ./benchmark -workload W -trace 1  one run, one result line (driver form)
//	go run ./benchmark -repeat 5             five sets; median, quartiles, spread vs bound
//	go run ./benchmark -compare a.json b.json
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

//go:embed inputs.lock
var inputsLock []byte

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run one workload and print one result line; empty runs all seven")
	seed := fs.Uint64("seed", DefaultSeed, "input seed: same seed, same inputs")
	seconds := fs.Float64("seconds", RunSeconds, "timed phase of each workload")
	// -trace takes a value (0 or 1) because the driver passes "--trace 0";
	// a Go bool flag would stop parsing at the bare 0.
	trace := fs.Int("trace", 0, "1 = traced run (per-layer metrics, trace.json); 0 = end-to-end metrics")
	repeat := fs.Int("repeat", 0, "run N full sets and report median, quartiles and spread per metric x workload")
	compare := fs.Bool("compare", false, "compare two result files: -compare base.json new.json")
	outDir := fs.String("out", ".bench_out", "directory for result.json and trace-<workload>.json")
	updateLock := fs.Bool("update-lock", false, "rewrite benchmark/inputs.lock for the default seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare base.json new.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	lock := map[string]string{}
	if err := json.Unmarshal(inputsLock, &lock); err != nil {
		fmt.Fprintln(stderr, "benchmark: inputs.lock:", err)
		return 1
	}
	base := runConfig{seed: *seed, seconds: *seconds, sc: fullScale,
		tmpBase: ".bench_tmp", outDir: *outDir, lock: lock}
	defer os.Remove(base.tmpBase) // only succeeds once every run's scratch is gone

	switch {
	case *updateLock:
		return writeLock(stdout, stderr)
	case *workload != "":
		cfg := base
		cfg.workload, cfg.trace = *workload, *trace != 0
		out, err := runOne(ctx, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		for _, p := range out.Problems {
			fmt.Fprintln(stderr, "benchmark:", cfg.workload+":", p)
		}
		fmt.Fprintf(stderr, "benchmark: %s seed %d input_sha256 %s (%s), host cpu steal %.1f%%\n", cfg.workload, cfg.seed, out.InputSHA, out.InputLock, out.StealPct)
		line, err := json.Marshal(struct {
			Correct   bool                   `json:"correct"`
			Attempted int                    `json:"attempted"`
			Failed    int                    `json:"failed"`
			Metrics   map[string]metricValue `json:"metrics"`
		}{out.Correct, out.Attempted, out.Failed, out.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, string(line))
		return 0
	case *repeat > 0:
		return repeatSets(ctx, base, *repeat, stdout, stderr)
	}
	set, err := runSet(ctx, base, true, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printSet(stdout, set)
	if err := writeJSON(filepath.Join(*outDir, "result.json"), &resultFile{Sets: []*resultSet{set}}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !set.Correct {
		return 1
	}
	return 0
}

// resultSet is one set: every workload end to end and, in a full set,
// traced, under one environment block. It ends with "claim": null — this harness
// measures; a change that claims a gain states it elsewhere.
type resultSet struct {
	Env        envBlock              `json:"env"`
	Seed       uint64                `json:"seed"`
	RunSeconds float64               `json:"run_seconds"`
	Correct    bool                  `json:"correct"`
	EndToEnd   map[string]*runOutput `json:"end_to_end"`
	PerLayer   map[string]*runOutput `json:"per_layer"`
	Bounds     map[string]float64    `json:"bounds"`
	Units      map[string]string     `json:"units"`
	Claim      *string               `json:"claim"`
}

func runSet(ctx context.Context, base runConfig, traced bool, progress io.Writer) (*resultSet, error) {
	set := &resultSet{Env: describeEnv("."), Seed: base.seed, RunSeconds: base.seconds, Correct: true,
		EndToEnd: map[string]*runOutput{}, PerLayer: map[string]*runOutput{},
		Bounds: map[string]float64{}, Units: map[string]string{}}
	for _, m := range endToEnd {
		set.Bounds[m.Name] = m.Bound
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		set.Units[m.Name] = m.Unit
	}
	passes := []bool{false}
	if traced {
		passes = append(passes, true)
	}
	for _, w := range workloadSpecs {
		for _, traced := range passes {
			cfg := base
			cfg.workload, cfg.trace = w.Name, traced
			fmt.Fprintf(progress, "benchmark: %s trace=%v ...\n", w.Name, traced)
			out, err := runOne(ctx, cfg)
			if err != nil {
				return nil, err
			}
			for _, p := range out.Problems {
				fmt.Fprintf(progress, "benchmark: %s: %s\n", w.Name, p)
			}
			if traced {
				set.PerLayer[w.Name] = out
			} else {
				set.EndToEnd[w.Name] = out
			}
			set.Correct = set.Correct && out.Correct
		}
	}
	return set, nil
}

// printSet prints every metric by name with its unit, one row per metric
// and one column per workload, then the JSON summary line.
func printSet(w io.Writer, set *resultSet) {
	names := workloadNames()
	fmt.Fprintf(w, "env: %s/%s cpus=%d GOMAXPROCS=%d %s commit=%s fs=%s load=%.2f\n",
		set.Env.GOOS, set.Env.GOARCH, set.Env.CPUs, set.Env.GOMAXPROCS, set.Env.GoVersion, set.Env.Commit, set.Env.Filesystem, set.Env.LoadAvg1)
	table := func(title string, specs []metricSpec, runs map[string]*runOutput) {
		fmt.Fprintf(w, "\n%s\n%-44s %-7s", title, "metric", "unit")
		for _, n := range names {
			fmt.Fprintf(w, " %15s", n)
		}
		fmt.Fprintln(w)
		for _, m := range specs {
			fmt.Fprintf(w, "%-44s %-7s", m.Name, m.Unit)
			for _, n := range names {
				fmt.Fprintf(w, " %15.4f", runs[n].Metrics[m.Name].Value)
			}
			fmt.Fprintln(w)
		}
		row := func(label string, f func(*runOutput) string) {
			fmt.Fprintf(w, "%-44s %-7s", label, "")
			for _, n := range names {
				fmt.Fprintf(w, " %15s", f(runs[n]))
			}
			fmt.Fprintln(w)
		}
		row("attempted", func(o *runOutput) string { return fmt.Sprint(o.Attempted) })
		row("failed", func(o *runOutput) string { return fmt.Sprint(o.Failed) })
		row("correct", func(o *runOutput) string { return fmt.Sprint(o.Correct) })
		row("input_sha256", func(o *runOutput) string { return o.InputSHA[:12] + ":" + o.InputLock })
		row("host cpu steal %", func(o *runOutput) string { return fmt.Sprintf("%.1f", o.StealPct) })
	}
	table("end-to-end (tracing off)", endToEnd, set.EndToEnd)
	for _, m := range endToEnd {
		fmt.Fprintf(w, "%-44s samples", m.Name)
		for _, n := range names {
			fmt.Fprintf(w, " %15d", set.EndToEnd[n].Samples[m.Name])
		}
		fmt.Fprintln(w)
	}
	table("per-layer (traced run)", perLayer, set.PerLayer)
	// One JSON line closes the report; "claim" is last and null: this harness
	// measures, and a change that claims a gain states it elsewhere.
	summary := struct {
		Correct  bool                          `json:"correct"`
		Seed     uint64                        `json:"seed"`
		EndToEnd map[string]map[string]float64 `json:"end_to_end"`
		Claim    *string                       `json:"claim"`
	}{Correct: set.Correct, Seed: set.Seed, EndToEnd: map[string]map[string]float64{}}
	for _, n := range names {
		summary.EndToEnd[n] = map[string]float64{}
		for _, m := range endToEnd {
			summary.EndToEnd[n][m.Name] = set.EndToEnd[n].Metrics[m.Name].Value
		}
	}
	line, _ := json.Marshal(summary) // plain data: cannot fail
	fmt.Fprintf(w, "\n%s\n", line)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeLock regenerates inputs.lock: the default seed's input fingerprint
// per workload on this architecture.
func writeLock(stdout, stderr io.Writer) int {
	lock, err := computeLock()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if err := writeJSON(filepath.Join("benchmark", "inputs.lock"), lock); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, "wrote benchmark/inputs.lock")
	return 0
}
