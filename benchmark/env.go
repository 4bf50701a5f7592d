package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// scale sizes the corpus. fullScale is what the driver measures;
// testScale is bench_test.go's reduced corpus.
type scale struct {
	W, H, Frames int // corpus videos
	GOP          int // every store: corpus SOTs and camera GOPs alike
	CamW, CamH   int // live cameras cam-0..3
	CamSOTs      int // SOTs each camera is pre-filled to and retains (MaxAgeFrames = CamSOTs x GOP)
	ClipFrames   int // ingest-retile clip length
	ReplayOps    int // queries per adaptive replay (whole phases of the generator)
	SeqOps       int // pre-generated operations per workload sequence
	LadderLens   [3]int
}

// fullScale: the issue's 320x180/30 fps shape, cut to 100 frames and GOP 10
// (10 SOTs per video, as specified) so that three set-ups plus the timed
// phase of one workload fit the driver's per-run share of its time cap.
// The cameras hold the issue's 200 SOTs each, so every live append rewrites
// a 200-entry manifest and trims one SOT.
var fullScale = scale{
	W: 320, H: 180, Frames: 100, GOP: 10,
	CamW: 160, CamH: 96, CamSOTs: 200,
	ClipFrames: 30, ReplayOps: 3 * driftPhase, SeqOps: 4096,
	LadderLens: [3]int{10, 100, 1000},
}

var testScale = scale{
	W: 160, H: 96, Frames: 30, GOP: 10,
	CamW: 96, CamH: 64, CamSOTs: 6,
	ClipFrames: 20, ReplayOps: driftPhase, SeqOps: 256,
	LadderLens: [3]int{4, 16, 64},
}

// env is one run's context: seed, sizing, and a scratch root inside the
// working directory (the driver requires all writes to stay in the
// checkout, so os.TempDir is not used).
type env struct {
	seed  uint64
	sc    scale
	procs int
	root  string
	nDirs int
	// fsyncDelay is planted into the counting FS wrapper's SyncFile by the
	// regression test that checks -compare names the fsync layer.
	fsyncDelay time.Duration
}

// procsForBench is the sizing rule: GOMAXPROCS = min(nproc, 4), and no
// workload runs more driver goroutines or connections than that.
func procsForBench() int { return min(runtime.NumCPU(), 4) }

// newEnv makes a run's context. procs 0 takes the sizing rule; the smoke
// test passes 1, which also caps the test process at one core.
func newEnv(seed uint64, sc scale, procs int, base string) (*env, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	if procs <= 0 {
		procs = procsForBench()
	}
	runtime.GOMAXPROCS(procs)
	return &env{seed: seed, sc: sc, procs: procs, root: root}, nil
}

func (e *env) close() { os.RemoveAll(e.root) }

// dir returns a fresh scratch directory under the run root.
func (e *env) dir(tag string) string {
	e.nDirs++
	d := filepath.Join(e.root, fmt.Sprintf("%s-%d", tag, e.nDirs))
	if err := os.MkdirAll(d, 0o755); err != nil {
		panic(err) // the root was just created by this process
	}
	return d
}

// envBlock is written into every result file.
type envBlock struct {
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Filesystem string  `json:"filesystem"`
	LoadAvg1   float64 `json:"loadavg_1m_at_start"`
	Fsync      string  `json:"fsync"`
}

func describeEnv(dir string) envBlock {
	return envBlock{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		CPUs: runtime.NumCPU(), GOMAXPROCS: procsForBench(),
		GoVersion:  runtime.Version(),
		Commit:     gitCommit(),
		Filesystem: fsType(dir),
		LoadAvg1:   loadAvg1(),
		Fsync:      "store default (file fsync, dir fsync, rename, dir fsync)",
	}
}

func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}

func loadAvg1() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var v float64
	if _, err := fmt.Sscan(string(b), &v); err != nil {
		return -1
	}
	return v
}

// cpuStealSeconds is the time the hypervisor ran something else while this
// VM wanted a CPU, summed over CPUs (/proc/stat's steal column, in 10 ms
// ticks); 0 where there is no /proc. A run measured under steal is slower
// for reasons that are not the program's.
func cpuStealSeconds() float64 {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	var ticks float64
	if _, err := fmt.Sscan(f[8], &ticks); err != nil {
		return 0
	}
	return ticks / 100
}

// fsType names the filesystem holding dir from /proc/mounts (longest
// mount-point prefix); "unknown" where there is no /proc.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	if f, err := os.Open("/proc/mounts"); err == nil {
		defer f.Close()
		best, bestLen := "", -1
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 {
				continue
			}
			mp := fields[1]
			if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > bestLen {
				best, bestLen = fields[2], len(mp)
			}
		}
		if best != "" {
			return best
		}
	}
	return "unknown"
}
