package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

// workload is one of the seven named workloads. The harness calls, in
// order: inputs (once, untimed: generate frames and the seeded operation
// sequence), setup (timed; SetupRepeats times in an end-to-end run, the
// last build is the one measured), run (once per pass), stored, teardown.
type workload interface {
	// inputs generates everything derived from the seed and folds it into
	// the fingerprint.
	inputs(e *env, fp *fingerprint) error
	// setup builds the workload's stores and servers from scratch under a
	// fresh directory, replacing any previous build.
	setup(ctx context.Context, e *env) error
	// run performs operations from the start of the seeded sequence until
	// the budget is spent, recording samples (and spans, when r.tr is set).
	run(ctx context.Context, e *env, r *rec, b budget)
	// stored returns the bytes the stores hold for the videos they keep
	// and those videos' raw pixel bytes.
	stored() (stored, raw int64, err error)
	// assert checks the interaction predictions that must hold on this
	// workload (hit ratio, frames decoded, ...) after a pass.
	assert(r *rec) error
	// layerInputs hands the layer replay a sample of this workload's own
	// inputs.
	layerInputs() layerInputs
	teardown()
}

// budget bounds one pass: closed loops stop at whichever of the two is
// set; the open loop and the replay read seconds (ops is their pass size
// in a traced run, where counts must repeat exactly).
type budget struct {
	seconds float64
	ops     int
	start   time.Time
}

func (b *budget) begin() { b.start = time.Now() }

// more reports whether another operation fits.
func (b *budget) more(done int) bool {
	if b.ops > 0 && done >= b.ops {
		return false
	}
	if b.seconds > 0 && time.Since(b.start).Seconds() >= b.seconds {
		return false
	}
	return true
}

// rec collects one pass's samples. Workloads decide which operations feed
// which series (README.md has the table); everything is safe for the
// open loop's concurrent drivers.
type rec struct {
	mu        sync.Mutex
	tr        *tracer
	attempted int
	failed    int
	firstErr  error
	opMS      []float64
	firstMS   []float64
	// batch* accumulate the open throughput batch; rates holds one MB/s
	// figure per closed batch (see endBatch).
	batchBytes int64
	batchBusy  time.Duration
	rates      []float64
	// scans accumulates ScanStats-derived walls for core.* (ms per op).
	scans scanAgg
	// native holds per-layer values the workload measured itself; they
	// override the layer replay's.
	native map[string]float64
}

func newRec(tr *tracer) *rec { return &rec{tr: tr, native: map[string]float64{}} }

func (r *rec) attempt() {
	r.mu.Lock()
	r.attempted++
	r.mu.Unlock()
}

// fail records a failed operation: an error, a refusal or a wrong answer.
func (r *rec) fail(err error) {
	r.mu.Lock()
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
	r.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func (r *rec) op(d time.Duration) {
	r.mu.Lock()
	r.opMS = append(r.opMS, ms(d))
	r.mu.Unlock()
}

func (r *rec) first(d time.Duration) {
	r.mu.Lock()
	r.firstMS = append(r.firstMS, ms(d))
	r.mu.Unlock()
}

// moved credits payload bytes delivered (or accepted) in d of operation
// wall to the throughput metric.
func (r *rec) moved(bytes int64, d time.Duration) {
	r.mu.Lock()
	r.batchBytes += bytes
	r.batchBusy += d
	r.mu.Unlock()
}

// endBatch closes a throughput batch. Workloads end a batch where the
// work inside is the same from batch to batch (one pass, one cycle, one
// replay, three query phases), and payload_mb_s is the median batch rate:
// one stall then costs one batch, not the run's figure. The open loop's
// batch is its whole measured window. A pass too short to complete a batch
// reports the partial one (runEndToEnd).
func (r *rec) endBatch() {
	r.mu.Lock()
	if r.batchBusy > 0 {
		r.rates = append(r.rates, float64(r.batchBytes)/1e6/r.batchBusy.Seconds())
	}
	r.batchBytes, r.batchBusy = 0, 0
	r.mu.Unlock()
}

// throughput is payload_mb_s: the median batch rate.
func (r *rec) throughput() float64 { return median(r.rates) }

func (r *rec) setNative(name string, v float64) {
	r.mu.Lock()
	r.native[name] = v
	r.mu.Unlock()
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOutput is what one (workload, seed, trace) run reports: the contract
// line's fields plus what the full-set report adds.
type runOutput struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Samples   map[string]int         `json:"samples"`
	InputSHA  string                 `json:"input_sha256"`
	InputLock string                 `json:"input_lock"` // "match", "mismatch", "unpinned"
	Problems  []string               `json:"problems,omitempty"`
	// TimingProblems counts the problems that are about the run's own
	// pacing (generator lateness, backlog), not about an answer.
	TimingProblems int    `json:"timing_problems,omitempty"`
	TraceFile      string `json:"trace_file,omitempty"`
	// StealPct is the share of CPU time the hypervisor withheld during an
	// end-to-end run's timed phase: the run's own noise indicator.
	StealPct float64 `json:"host_cpu_steal_pct"`
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "select-cold":
		return &selectWL{warm: false}, nil
	case "select-warm":
		return &selectWL{warm: true}, nil
	case "detect-fullscan":
		return &fullscanWL{}, nil
	case "ingest-retile":
		return &ingestWL{}, nil
	case "remote-stream":
		return &remoteWL{}, nil
	case "adaptive-replay":
		return &adaptiveWL{}, nil
	case "live-mixed":
		return &liveWL{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
}

// runConfig is one run's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	sc       scale
	procs    int    // 0 = procsForBench(); bench_test.go runs on one
	tmpBase  string // scratch root parent (inside the working directory)
	outDir   string // where trace-<workload>.json goes
	lock     map[string]string
	// setupRepeats overrides SetupRepeats (bench_test.go builds once).
	setupRepeats int
	// fsyncDelay is planted into the counting FS wrapper by the test that
	// checks -compare names the fsync layer.
	fsyncDelay time.Duration
}

// errTiming marks an assertion about the run's own pacing (generator
// lateness, backlog) rather than about an answer: the run is invalid, not
// the program wrong.
var errTiming = errors.New("timing")

// tracePassOps sizes a traced pass per workload at full scale: a fixed
// operation count (so counts repeat exactly) worth roughly a second, in
// whole throughput batches for the query workloads. live-mixed's pass is a
// fixed duration instead: its schedule fixes the counts.
var tracePassOps = map[string]int{
	"select-cold": 162, "select-warm": 4050, "detect-fullscan": 6,
	"ingest-retile": 3, "remote-stream": 648, "adaptive-replay": 1, "live-mixed": 0,
}

// runOne executes one workload once, end to end or traced.
func runOne(ctx context.Context, cfg runConfig) (*runOutput, error) {
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	e, err := newEnv(cfg.seed, cfg.sc, cfg.procs, cfg.tmpBase)
	if err != nil {
		return nil, err
	}
	defer e.close()
	e.fsyncDelay = cfg.fsyncDelay
	out := &runOutput{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace,
		Metrics: map[string]metricValue{}, Samples: map[string]int{}}

	fp := newFingerprint()
	fp.text(cfg.workload)
	if err := w.inputs(e, fp); err != nil {
		return nil, fmt.Errorf("%s inputs: %w", cfg.workload, err)
	}
	out.InputSHA = fp.sum()
	out.InputLock = checkLock(cfg, out.InputSHA)
	if out.InputLock == "mismatch" {
		out.problem("input_sha256 %s differs from inputs.lock: what is measured has changed", out.InputSHA)
	}
	defer w.teardown()

	repeats := SetupRepeats
	if cfg.setupRepeats > 0 {
		repeats = cfg.setupRepeats
	}
	if cfg.trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		if err := w.setup(ctx, e); err != nil {
			return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	if cfg.trace {
		err = runTraced(ctx, cfg, e, w, out)
	} else {
		err = runEndToEnd(ctx, cfg, e, w, out, setups)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	out.Correct = len(out.Problems) == 0
	return out, nil
}

func (out *runOutput) problem(format string, a ...any) {
	out.Problems = append(out.Problems, fmt.Sprintf(format, a...))
}

// runEndToEnd measures for cfg.seconds with tracing off and reports the
// end-to-end metrics.
func runEndToEnd(ctx context.Context, cfg runConfig, e *env, w workload, out *runOutput, setups []float64) error {
	r := newRec(nil)
	steal0, t0 := cpuStealSeconds(), time.Now()
	w.run(ctx, e, r, budget{seconds: cfg.seconds})
	if len(r.rates) == 0 {
		r.endBatch()
	}
	out.StealPct = 100 * (cpuStealSeconds() - steal0) / (time.Since(t0).Seconds() * float64(runtime.NumCPU()))
	finishPass(out, w, r)
	stored, raw, err := w.stored()
	if err != nil {
		return fmt.Errorf("stored bytes: %w", err)
	}
	if len(r.opMS) == 0 || len(r.firstMS) == 0 || len(r.rates) == 0 || raw <= 0 {
		out.problem("no samples: %d op, %d first-result, %d throughput batches", len(r.opMS), len(r.firstMS), len(r.rates))
		return nil
	}
	vals := map[string]float64{
		"setup_s":                   median(setups),
		"op_ms_p50":                 median(r.opMS),
		"first_result_ms_p50":       median(r.firstMS),
		"payload_mb_s":              r.throughput(),
		"stored_bytes_per_raw_byte": float64(stored) / float64(raw),
	}
	for _, m := range endToEnd {
		out.Metrics[m.Name] = metricValue{Value: vals[m.Name], Unit: m.Unit}
	}
	out.Samples["setup_s"] = len(setups)
	out.Samples["op_ms_p50"] = len(r.opMS)
	out.Samples["first_result_ms_p50"] = len(r.firstMS)
	out.Samples["payload_mb_s"] = len(r.rates)
	return nil
}

// runTraced replays the same fixed operation count untraced, traced, and
// untraced again (the traced pass's median against the two untraced ones
// is the tracing overhead), runs the layer replay, reports the per-layer
// metrics and writes trace.json.
func runTraced(ctx context.Context, cfg runConfig, e *env, w workload, out *runOutput) error {
	pb := budget{ops: tracePassOps[cfg.workload]}
	if cfg.sc != fullScale && pb.ops > 1 {
		pb.ops = max(2, pb.ops/8)
	}
	if pb.ops == 0 {
		pb.seconds = math.Max(1, cfg.seconds/4)
	}
	u1 := newRec(nil)
	w.run(ctx, e, u1, pb)
	tr := newTracer()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	cpu0, steal0, t0 := cpuSeconds(), cpuStealSeconds(), time.Now()
	tp := newRec(tr)
	w.run(ctx, e, tp, pb)
	wall, cpu1, steal1 := time.Since(t0), cpuSeconds(), cpuStealSeconds()
	runtime.ReadMemStats(&m1)
	u2 := newRec(nil)
	w.run(ctx, e, u2, pb)
	finishPass(out, w, tp)
	for _, u := range []*rec{u1, u2} {
		out.Attempted += u.attempted
		out.Failed += u.failed
		if u.firstErr != nil {
			out.problem("untraced pass: %v", u.firstErr)
		}
	}

	vals, err := layerReplay(ctx, e, tr, w.layerInputs())
	if err != nil {
		return fmt.Errorf("layer replay: %w", err)
	}
	ops := float64(max(1, tp.attempted))
	vals["go.alloc_kb_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops
	vals["go.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / ops
	vals["go.gc_pause_ms_total"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	vals["go.peak_heap_mb"] = float64(m1.HeapSys) / 1e6
	vals["go.cpu_util_pct"] = 100 * (cpu1 - cpu0) / (wall.Seconds() * float64(e.procs))
	vals["host.cpu_steal_pct"] = 100 * (steal1 - steal0) / (wall.Seconds() * float64(runtime.NumCPU()))
	if untraced := median(append(append([]float64(nil), u1.opMS...), u2.opMS...)); untraced > 0 {
		vals["trace.overhead_pct"] = 100 * (median(tp.opMS) - untraced) / untraced
	}
	vals["trace.child_coverage"], vals["trace.codec_self_share"] = tr.coverage("op:", spanDecode)
	p := tailPercentile(len(tp.opMS))
	vals["tail.percentile"] = p
	vals["tail.samples"] = float64(len(tp.opMS))
	vals["tail.op_ms"] = percentile(tp.opMS, p)
	vals["tail.first_result_ms"] = percentile(tp.firstMS, tailPercentile(len(tp.firstMS)))
	// What the workload measured itself overrides the layer replay's value.
	tp.scans.into(vals)
	for k, v := range tp.native {
		vals[k] = v
	}
	for _, m := range perLayer {
		v, ok := vals[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			out.problem("per-layer metric %s not measured", m.Name)
			v = 0
		}
		out.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	out.TraceFile = filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
	return tr.write(out.TraceFile, map[string]any{"workload": cfg.workload, "seed": cfg.seed,
		"input_sha256": out.InputSHA, "self_time_us": tr.selfTimes(), "env": describeEnv(e.root)})
}

// finishPass folds a measured pass into the output and applies the
// workload's own assertions.
func finishPass(out *runOutput, w workload, r *rec) {
	out.Attempted += r.attempted
	out.Failed += r.failed
	if r.attempted == 0 {
		out.problem("no operation attempted")
	}
	if r.firstErr != nil {
		out.problem("%d of %d operations failed, first: %v", r.failed, r.attempted, r.firstErr)
	}
	if err := w.assert(r); err != nil {
		if errors.Is(err, errTiming) {
			out.TimingProblems++
		}
		out.problem("%v", err)
	}
}

// checkLock compares a fingerprint with inputs.lock. Only the default
// seed at full scale on the architecture the lock was taken on is pinned:
// scene rendering goes through float math that other architectures may
// fuse differently.
func checkLock(cfg runConfig, sha string) string {
	if cfg.lock == nil || cfg.seed != DefaultSeed || cfg.sc != fullScale || cfg.lock["goarch"] != runtime.GOARCH {
		return "unpinned"
	}
	want, ok := cfg.lock[cfg.workload]
	if !ok {
		return "unpinned"
	}
	if want != sha {
		return "mismatch"
	}
	return "match"
}

// computeLock fingerprints the default seed's inputs for every workload.
func computeLock() (map[string]string, error) {
	lock := map[string]string{"goarch": runtime.GOARCH, "seed": fmt.Sprint(DefaultSeed)}
	e := &env{seed: DefaultSeed, sc: fullScale, procs: procsForBench()}
	for _, ws := range workloadSpecs {
		w, err := newWorkload(ws.Name)
		if err != nil {
			return nil, err
		}
		fp := newFingerprint()
		fp.text(ws.Name)
		if err := w.inputs(e, fp); err != nil {
			return nil, err
		}
		lock[ws.Name] = fp.sum()
	}
	return lock, nil
}
