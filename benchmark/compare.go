package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// resultFile is what result.json and repeat.json hold: one or more full
// sets taken with the same code and settings.
type resultFile struct {
	Sets  []*resultSet `json:"sets"`
	Claim *string      `json:"claim"`
}

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &f, nil
}

// series gathers one metric's values on one workload across a file's sets.
func (f *resultFile) series(workload, metric string, traced bool) []float64 {
	var out []float64
	for _, s := range f.Sets {
		runs := s.EndToEnd
		if traced {
			runs = s.PerLayer
		}
		if r := runs[workload]; r != nil {
			if m, ok := r.Metrics[metric]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

// worseBy is how much new is worse than base as a share of base, signed:
// positive = worse in the metric's own direction.
func worseBy(m metricSpec, base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	d := (cur - base) / math.Abs(base)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

// repeatSets runs n end-to-end sets with the same seed and reports, per
// metric x workload, median, quartiles and whether the run-to-run spread
// stays within the metric's own bound. A metric whose spread does not is
// "unresolved": the benchmark cannot tell a change of that size from noise.
func repeatSets(ctx context.Context, base runConfig, n int, stdout, stderr io.Writer) int {
	file := &resultFile{}
	ok := true
	for i := 0; i < n; i++ {
		fmt.Fprintf(stderr, "benchmark: set %d/%d\n", i+1, n)
		set, err := runSet(ctx, base, false, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		file.Sets = append(file.Sets, set)
		ok = ok && set.Correct
	}
	if err := writeJSON(filepath.Join(base.outDir, "repeat.json"), file); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%-16s %-28s %12s %12s %12s %8s %6s  %s\n", "workload", "metric", "q1", "median", "q3", "spread", "bound", "verdict")
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			xs := file.series(w.Name, m.Name, false)
			q1, q2, q3 := quartiles(xs)
			sp := spread(xs)
			verdict := "steady"
			if sp > m.Bound {
				verdict, ok = "unresolved", false
			}
			fmt.Fprintf(stdout, "%-16s %-28s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", w.Name, m.Name, q1, q2, q3, sp, m.Bound, verdict)
		}
	}
	fmt.Fprintf(stdout, `{"sets":%d,"steady":%v,"claim":null}`+"\n", n, ok)
	if !ok {
		return 1
	}
	return 0
}

// verdict classifies one end-to-end pairing. Spread wider than the bound
// on either side is reported as unresolved, never as unchanged.
func verdict(m metricSpec, base, cur []float64) (string, float64) {
	d := worseBy(m, median(base), median(cur))
	switch {
	case len(base) >= 3 && spread(base) > m.Bound, len(cur) >= 3 && spread(cur) > m.Bound:
		return "unresolved", d
	case d > m.Bound:
		return "regressed", d
	case d < -m.Bound:
		return "improved", d
	}
	return "within bound", d
}

// mover is one per-layer metric's change between two files.
type mover struct {
	name      string
	base, cur float64
}

// movedMost ranks the per-layer metrics mapped to a workload (layerMap) by
// how far their medians moved (by ratio, either way) and returns the top n
// with base and new values: where to look first when an end-to-end metric
// changed. A layer the map does not give the workload is measured there
// too, but its movement says nothing about that workload's numbers.
func movedMost(base, cur *resultFile, workload string, n int) []mover {
	var ms []mover
	for _, m := range perLayer {
		if !mappedTo(workload, m.Name) {
			continue
		}
		bv, cv := median(base.series(workload, m.Name, true)), median(cur.series(workload, m.Name, true))
		if bv > 0 && cv > 0 {
			ms = append(ms, mover{m.Name, bv, cv})
		}
	}
	score := func(m mover) float64 { return math.Abs(math.Log(m.cur / m.base)) }
	sort.SliceStable(ms, func(a, b int) bool { return score(ms[a]) > score(ms[b]) })
	return ms[:min(n, len(ms))]
}

// compareFiles prints, per end-to-end metric x workload, base and new
// medians, the change and a verdict, and per workload the per-layer metric
// that moved most with its base value.
func compareFiles(basePath, curPath string, stdout, stderr io.Writer) int {
	base, err := loadResults(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cur, err := loadResults(curPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return compareResults(base, cur, stdout)
}

func compareResults(base, cur *resultFile, stdout io.Writer) int {
	fmt.Fprintf(stdout, "base: %d set(s), commit %s; new: %d set(s), commit %s\n",
		len(base.Sets), base.Sets[0].Env.Commit, len(cur.Sets), cur.Sets[0].Env.Commit)
	fmt.Fprintf(stdout, "%-16s %-28s %12s %12s %9s %6s  %s\n", "workload", "metric", "base", "new", "worse by", "bound", "verdict")
	regressed := false
	for _, w := range workloadSpecs {
		for _, m := range endToEnd {
			bs, cs := base.series(w.Name, m.Name, false), cur.series(w.Name, m.Name, false)
			if len(bs) == 0 || len(cs) == 0 {
				continue
			}
			v, d := verdict(m, bs, cs)
			regressed = regressed || v == "regressed"
			fmt.Fprintf(stdout, "%-16s %-28s %12.4f %12.4f %+8.1f%% %6.2f  %s\n", w.Name, m.Name, median(bs), median(cs), 100*d, m.Bound, v)
		}
	}
	for _, w := range workloadSpecs {
		for i, m := range movedMost(base, cur, w.Name, 3) {
			fmt.Fprintf(stdout, "%-16s per-layer moved most #%d: %s  base %.4f -> new %.4f (x%.2f)\n", w.Name, i+1, m.name, m.base, m.cur, m.cur/m.base)
		}
	}
	if regressed {
		return 1
	}
	return 0
}
