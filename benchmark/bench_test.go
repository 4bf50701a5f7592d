//go:build benchsmoke

// The benchmark's own smoke test: go test -tags benchsmoke ./benchmark.
//
// It is behind a build tag, so tier-1 `go test ./...` sees no test files
// here and its package set is exactly the seed commit's. Tier-1 has tests
// that assert on timing under concurrency (internal/bench
// TestRunCostModelFit, internal/core TestSingleflightDecodesOnce and
// TestInterleavedScanDeleteReingest) and already fail now and then on a busy
// two-core machine: 4 of 17 full runs of the seed commit while this was
// written. `go test` runs two packages at a time, so a package added here can
// only put more load beside them.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON mirrors ../BENCHMARK.json, the driver's contract file.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSpecMatchesBenchmarkJSON: the names, units, directions and bounds the
// harness emits are exactly the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if bj.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, harness RunSeconds %d", bj.RunSeconds, RunSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths %v, want [benchmark]", bj.Paths)
	}
	if fmt.Sprint(bj.Workloads) != fmt.Sprint(workloadSpecs) {
		t.Errorf("workloads differ:\n json %v\n code %v", bj.Workloads, workloadSpecs)
	}
	if fmt.Sprint(bj.EndToEnd) != fmt.Sprint(endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bj.EndToEnd, endToEnd)
	}
	if fmt.Sprint(bj.PerLayer) != fmt.Sprint(perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bj.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) {
			t.Errorf("metric name %q does not match %v", m.Name, nameRE)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
		if m.Unit == "" || len(m.Unit) > 16 {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, w := range workloadSpecs {
		if !nameRE.MatchString(w.Name) || seen[w.Name] || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
		seen[w.Name] = true
	}
	// The layer map names real workloads and leaves no layer's metric out.
	for _, e := range layerMap {
		for _, w := range e.workloads {
			if !seen[w] {
				t.Errorf("layerMap %q names unknown workload %q", e.prefix, w)
			}
		}
	}
	for _, m := range perLayer {
		mapped := false
		for _, w := range workloadSpecs {
			mapped = mapped || mappedTo(w.Name, m.Name)
		}
		describesRun := false
		for _, p := range []string{"go.", "host.", "trace.", "tail."} {
			describesRun = describesRun || strings.HasPrefix(m.Name, p)
		}
		if mapped == describesRun {
			t.Errorf("per-layer metric %s: mapped to a workload = %v, describes the run = %v", m.Name, mapped, describesRun)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloadSpecs) < 2 || len(workloadSpecs) > 8 {
		t.Errorf("counts outside the contract: %d per-layer, %d end-to-end, %d workloads", len(perLayer), len(endToEnd), len(workloadSpecs))
	}
}

// testConfig is a run on the reduced corpus, built once, on one core:
// procs 1 sets GOMAXPROCS(1) for this test process, so when it runs beside
// other packages' tests (go test -tags benchsmoke ./...) it loads the
// machine like any single-threaded package test.
func testConfig(t *testing.T, workload string, traced bool) runConfig {
	return runConfig{workload: workload, seed: DefaultSeed, seconds: 0.15, trace: traced, sc: testScale,
		procs: 1, tmpBase: t.TempDir(), outDir: t.TempDir(), setupRepeats: 1}
}

// checkEmitted asserts a run emitted exactly the given metrics, each with
// its unit, and that nothing but the run's own pacing was wrong.
func checkEmitted(t *testing.T, out *runOutput, want []metricSpec) {
	t.Helper()
	if len(out.Metrics) != len(want) {
		t.Errorf("%s: %d metrics emitted, want %d", out.Workload, len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s not emitted", out.Workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s unit %q, want %q", out.Workload, m.Name, got.Unit, m.Unit)
		}
	}
	if out.Attempted < 1 || out.Failed != 0 {
		t.Errorf("%s: attempted %d, failed %d", out.Workload, out.Attempted, out.Failed)
	}
	// A loaded test machine can make the open loop's generators late; that
	// invalidates a measurement, not the program.
	if len(out.Problems) != out.TimingProblems {
		t.Errorf("%s: problems: %v", out.Workload, out.Problems)
	}
}

// TestEveryWorkloadEndToEnd runs each workload for ~300 ms on the reduced
// corpus: every end-to-end name is emitted once with its unit, every answer
// checks out, and no end-to-end value is zero.
func TestEveryWorkloadEndToEnd(t *testing.T) {
	for _, w := range workloadSpecs {
		t.Run(w.Name, func(t *testing.T) {
			out, err := runOne(context.Background(), testConfig(t, w.Name, false))
			if err != nil {
				t.Fatal(err)
			}
			checkEmitted(t, out, endToEnd)
			for name, m := range out.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", w.Name, name, m.Value)
				}
			}
		})
	}
}

// TestTracedRun: a traced run emits every per-layer name once with its unit
// and writes a trace.json holding operation root spans.
func TestTracedRun(t *testing.T) {
	out, err := runOne(context.Background(), testConfig(t, "select-cold", true))
	if err != nil {
		t.Fatal(err)
	}
	checkEmitted(t, out, perLayer)
	raw, err := os.ReadFile(out.TraceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("trace.json: %v, %d spans", err, len(doc.Spans))
	}
	roots := 0
	for _, s := range doc.Spans {
		if s.Parent == 0 && strings.HasPrefix(s.Name, "op:") {
			roots++
		}
	}
	if roots == 0 {
		t.Error("trace.json holds no operation root span")
	}
}

// TestCompareNamesFsyncLayer: a delay planted in the counting FS wrapper's
// sync path makes -compare name tilestore.fsync_ms_per_commit, and the
// device counts repeat exactly between the two runs.
func TestCompareNamesFsyncLayer(t *testing.T) {
	device := func(delay time.Duration) *runOutput {
		e, err := newEnv(DefaultSeed, testScale, 1, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer e.close()
		e.fsyncDelay = delay
		clips, err := renderClips(e)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		lr := &replayer{root: tr.begin("layer-replay"), vals: map[string]float64{}}
		if err := lr.device(context.Background(), e, clips[0].cut(2*e.sc.GOP), layerInputs{}); err != nil {
			t.Fatal(err)
		}
		out := &runOutput{Workload: "ingest-retile", Metrics: map[string]metricValue{}}
		for name, v := range lr.vals {
			out.Metrics[name] = metricValue{Value: v}
		}
		return out
	}
	base, slow := device(0), device(2*time.Millisecond)
	for _, name := range []string{"tilestore.fsyncs_per_commit", "tilestore.bytes_written_per_user_byte"} {
		if a, b := base.Metrics[name].Value, slow.Metrics[name].Value; a != b || a == 0 {
			t.Errorf("count %s does not repeat: %v then %v", name, a, b)
		}
	}
	file := func(o *runOutput) *resultFile {
		return &resultFile{Sets: []*resultSet{{EndToEnd: map[string]*runOutput{}, PerLayer: map[string]*runOutput{o.Workload: o}}}}
	}
	var buf bytes.Buffer
	compareResults(file(base), file(slow), &buf)
	var named string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "ingest-retile") && strings.Contains(l, "moved most") {
			named += l
		}
	}
	if !strings.Contains(named, "tilestore.fsync_ms_per_commit") {
		t.Errorf("-compare did not name tilestore.fsync_ms_per_commit after a planted fsync delay:\n%s", buf.String())
	}
}

// TestQueryGeneratorBalanced: whatever the seed, a phase holds the same
// multiset of queries (only their order differs), every video is the hot
// one in turn, and the same seed repeats.
func TestQueryGeneratorBalanced(t *testing.T) {
	shape := func(seed uint64, phase int) string {
		ops := genSelectOps(seed, (phase+1)*driftPhase, 3, 10, 10, 1, 3)
		var keys []string
		for _, o := range ops[phase*driftPhase:] {
			keys = append(keys, fmt.Sprintf("%d/%s/%d-%d", o.vid, o.label, o.from, o.to))
		}
		sort.Strings(keys)
		return strings.Join(keys, " ")
	}
	for phase := 0; phase < 4; phase++ {
		if a, b := shape(1, phase), shape(99, phase); a != b {
			t.Errorf("phase %d: seeds 1 and 99 hold different queries:\n%s\n%s", phase, a, b)
		}
	}
	if shape(1, 0) == shape(1, 1) {
		t.Error("phases 0 and 1 hold the same queries: no drift")
	}
	hot := map[int]bool{}
	for phase := 0; phase < 3; phase++ {
		count := map[int]int{}
		for _, o := range genSelectOps(1, 3*driftPhase, 3, 10, 10, 1, 3)[phase*driftPhase : (phase+1)*driftPhase] {
			count[o.vid]++
		}
		for v, c := range count {
			if 2*c > driftPhase {
				hot[v] = true
			}
		}
	}
	if len(hot) != 3 {
		t.Errorf("videos hot over three phases: %v, want all three", hot)
	}
	a, b := genSelectOps(7, 64, 3, 10, 10, 1, 3), genSelectOps(7, 64, 3, 10, 10, 1, 3)
	c := genSelectOps(8, 64, 3, 10, 10, 1, 3)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Error("same seed, different sequence")
	}
	if fmt.Sprint(a) == fmt.Sprint(c) {
		t.Error("different seeds, same sequence")
	}
	for _, o := range a {
		if o.from < 0 || o.to > 100 || o.from >= o.to {
			t.Errorf("query window [%d,%d) outside the video", o.from, o.to)
		}
	}
}

// TestQuartilesMatchDriver pins quartiles to Python's
// statistics.quantiles(values, n=4), which the driver judges spread with.
func TestQuartilesMatchDriver(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// Two values, the acceptance run's -repeat 2: Python extrapolates the end
	// quartiles, so the spread is 1.5 x the distance, not 1 x.
	if q1, q2, q3 = quartiles([]float64{1, 3}); q1 != 0.5 || q2 != 2 || q3 != 3.5 {
		t.Errorf("quartiles(1,3) = %v %v %v, want 0.5 2 3.5", q1, q2, q3)
	}
	if q1, q2, q3 = quartiles([]float64{16, 1, 4, 2, 8}); q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1,2,4,8,16) = %v %v %v, want 1.5 4 12", q1, q2, q3)
	}
	if p := tailPercentile(250); p != 95 {
		t.Errorf("tailPercentile(250) = %v, want 95 (12 samples beyond)", p)
	}
	if p := tailPercentile(30); p != 50 {
		t.Errorf("tailPercentile(30) = %v, want 50", p)
	}
}

// TestUnknownWorkload: the driver form exits non-zero without printing a
// result line when it cannot run.
func TestUnknownWorkload(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := realMain([]string{"--workload", "no-such", "--seed", "1", "--seconds", "1", "--trace", "0"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q", code, stdout.String())
	}
}
