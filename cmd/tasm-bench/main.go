// Command tasm-bench regenerates the paper's evaluation: every table and
// figure of §5 (Table 1, Figures 6–12, Table 2), the §5.2.4 cheap-detection
// study, the cost-model fit, and the design-choice ablations.
//
// Usage:
//
//	tasm-bench -exp all                 # everything, full scale (minutes)
//	tasm-bench -exp fig6,fig7 -quick    # selected experiments, reduced scale
//	tasm-bench -exp fig11 -workloads W1,W5
//
// Results print as aligned text tables with the paper's reference values in
// the notes. System-level performance (scan, stream, serve, adapt, shard,
// load, live) is measured by `go run ./benchmark`, not here.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/tasm-repro/tasm/internal/bench"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "comma-separated experiments: table1,fig6,fig7,fig8,fig9,fig10,fig11,fig12,edge,costfit,alpha,eta,all")
		quick     = flag.Bool("quick", false, "reduced-scale run (smaller videos, fewer queries)")
		width     = flag.Int("w", 0, "video width (default 320; quick 256)")
		height    = flag.Int("h", 0, "video height (default 180; quick 144)")
		fps       = flag.Int("fps", 0, "frames per second (default 30; quick 15)")
		scale     = flag.Float64("scale", 0, "duration scale factor (default 1.0)")
		videos    = flag.Int("videos", 0, "max videos per experiment (0 = all)")
		queries   = flag.Int("queries", 0, "max queries per workload (0 = paper counts)")
		seed      = flag.Uint64("seed", 42, "random seed")
		workloads = flag.String("workloads", "", "comma-separated workloads for fig11 (default all six)")
		verbose   = flag.Bool("v", false, "progress output")
	)
	flag.Parse()

	// The same SIGINT/SIGTERM wiring tasmctl has, honored at experiment
	// boundaries: each experiment works in its own temp store, so the
	// first signal stops cleanly before the next one starts (the
	// experiments themselves run to completion — bench.Options carries
	// no context). A second signal kills the process the usual way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()

	opt := bench.Options{Seed: *seed, Verbose: *verbose, Out: os.Stderr}
	if *quick {
		opt = bench.Quick()
		opt.Seed = *seed
		opt.Verbose = *verbose
		opt.Out = os.Stderr
	}
	if *width > 0 {
		opt.Width = *width
	}
	if *height > 0 {
		opt.Height = *height
	}
	if *fps > 0 {
		opt.FPS = *fps
	}
	if *scale > 0 {
		opt.DurationScale = *scale
	}
	if *videos > 0 {
		opt.MaxVideos = *videos
	}
	if *queries > 0 {
		opt.QueryCap = *queries
	}

	var wlNames []string
	if *workloads != "" {
		wlNames = strings.Split(*workloads, ",")
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*exp, ",") {
		selected[strings.TrimSpace(e)] = true
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }

	start := time.Now()
	ran := 0
	run := func(name string, fn func() error) {
		if !want(name) {
			return
		}
		if err := ctx.Err(); err != nil {
			fmt.Fprintf(os.Stderr, "tasm-bench: interrupted before %s (completed experiments are already printed)\n", name)
			os.Exit(130)
		}
		ran++
		t0 := time.Now()
		if err := fn(); err != nil {
			fmt.Fprintf(os.Stderr, "tasm-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %s]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("table1", func() error {
		_, t, err := bench.RunTable1(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("fig6", func() error {
		_, qa, qb, err := bench.RunFigure6(opt)
		if err == nil {
			qa.Render(os.Stdout)
			qb.Render(os.Stdout)
		}
		return err
	})
	run("fig7", func() error {
		_, t, err := bench.RunFigure7(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("fig8", func() error {
		_, t, err := bench.RunFigure8(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("fig9", func() error {
		_, t, err := bench.RunFigure9(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("fig10", func() error {
		_, t, err := bench.RunFigure10(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("fig11", func() error {
		_, tables, t2, err := bench.RunFigure11(opt, wlNames)
		if err == nil {
			for _, t := range tables {
				t.Render(os.Stdout)
			}
			t2.Render(os.Stdout)
		}
		return err
	})
	run("fig12", func() error {
		_, t, err := bench.RunFigure12(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("edge", func() error {
		_, t, err := bench.RunEdgeDetection(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("costfit", func() error {
		_, t, err := bench.RunCostModelFit(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("alpha", func() error {
		_, t, err := bench.RunAblationAlpha(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	run("eta", func() error {
		_, t, err := bench.RunAblationEta(opt)
		if err == nil {
			t.Render(os.Stdout)
		}
		return err
	})
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "tasm-bench: no experiment matched %q\n", *exp)
		os.Exit(2)
	}
	fmt.Printf("\n%d experiment(s) in %s\n", ran, time.Since(start).Round(time.Millisecond))
}
