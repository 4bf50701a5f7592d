package bench

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/policy"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/stats"
	"github.com/tasm-repro/tasm/internal/workload"
)

// Strategy names, in the paper's Figure 11 order.
const (
	StratNotTiled  = "not-tiled"
	StratAllObjs   = "all-objects"
	StratIncMore   = "inc-more"
	StratIncRegret = "inc-regret"
)

// Strategies lists the four §5.3 strategies.
func Strategies() []string {
	return []string{StratNotTiled, StratAllObjs, StratIncMore, StratIncRegret}
}

// WorkloadSeries is one cumulative-cost curve of Figure 11: a (workload,
// video, strategy) run. CumNorm[i] is the cumulative decode + re-tiling
// time through query i, normalized so the untiled strategy accrues exactly
// 1 per query.
type WorkloadSeries struct {
	Workload string
	Video    string
	Strategy string
	CumNorm  []float64
}

// Final returns the series' final cumulative value.
func (s WorkloadSeries) Final() float64 {
	if len(s.CumNorm) == 0 {
		return 0
	}
	return s.CumNorm[len(s.CumNorm)-1]
}

// workloadVideos maps each workload to its evaluation presets: W1–W4 run on
// Visual Road (sparse), W5–W6 on dense scenes (paper §5.3).
func workloadVideos(o Options, name string) []scene.Preset {
	switch name {
	case "W3":
		// The paper excludes the one 4K video with no traffic lights.
		return o.presets(func(p scene.Preset) bool {
			if p.Spec.Dataset != "VisualRoad" {
				return false
			}
			for _, c := range p.Spec.Classes {
				if c.Class == scene.TrafficLight {
					return true
				}
			}
			return false
		})
	case "W1", "W2", "W4":
		return o.presets(func(p scene.Preset) bool { return p.Spec.Dataset == "VisualRoad" })
	default:
		return o.presets(func(p scene.Preset) bool { return !p.SparseExpected })
	}
}

// templateDirFor ingests a video once and pre-populates its semantic index
// so per-strategy runs start from an identical on-disk state via copy.
func templateDirFor(o Options, m *micro, root string) (string, error) {
	dir := filepath.Join(root, "template-"+m.preset.Spec.Name)
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	mgr, err := core.Open(dir, managerConfig(o))
	if err != nil {
		return "", err
	}
	frames := m.video.Frames(0, m.numFrames)
	if _, err := mgr.IngestContext(context.Background(), m.preset.Spec.Name, frames, o.FPS); err != nil {
		mgr.Close()
		return "", err
	}
	// Figure 11 excludes detection cost: all strategies see the same
	// already-populated index (detections are a byproduct of query
	// processing either way).
	if err := mgr.AddDetections(m.preset.Spec.Name, m.detections()); err != nil {
		mgr.Close()
		return "", err
	}
	for _, label := range m.video.Classes() {
		if err := mgr.MarkDetected(m.preset.Spec.Name, label, 0, m.numFrames); err != nil {
			mgr.Close()
			return "", err
		}
	}
	if err := mgr.Close(); err != nil {
		return "", err
	}
	return dir, nil
}

func managerConfig(o Options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Codec = o.codecParams()
	cfg.MinTileW, cfg.MinTileH = o.MinTileW, o.MinTileH
	return cfg
}

// copyDir recursively copies a directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// strategyObserver abstracts the per-query policy hook of a strategy.
type strategyObserver func(mgr *core.Manager, q workload.Query) ([]policy.Action, error)

// runStrategy executes a workload under one strategy, returning per-query
// costs (decode + retile wall time) and any upfront cost (pre-tiling work
// the paper charges to the first query).
func runStrategy(o Options, m *micro, queries []workload.Query, strategy string, root string) ([]time.Duration, time.Duration, error) {
	tpl, err := templateDirFor(o, m, root)
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(root, fmt.Sprintf("%s-%s", m.preset.Spec.Name, strategy))
	if err := copyDir(tpl, dir); err != nil {
		return nil, 0, err
	}
	mgr, err := core.Open(dir, managerConfig(o))
	if err != nil {
		return nil, 0, err
	}
	defer mgr.Close()
	defer os.RemoveAll(dir)

	video := m.preset.Spec.Name
	var upfront time.Duration
	var observe strategyObserver
	switch strategy {
	case StratNotTiled:
		observe = nil
	case StratAllObjs:
		// Pre-tile around all detected objects; the paper charges this to
		// the first query.
		actions, err := policy.AllObjects(mgr, video, layout.Fine)
		if err != nil {
			return nil, 0, err
		}
		rs, err := policy.Apply(context.Background(), mgr, actions)
		if err != nil {
			return nil, 0, err
		}
		upfront = rs.DecodeWall + rs.EncodeWall
	case StratIncMore:
		im := policy.NewIncrementalMore()
		observe = func(mgr *core.Manager, q workload.Query) ([]policy.Action, error) {
			return im.ObserveQuery(mgr, q.ToQuery())
		}
	case StratIncRegret:
		rg := policy.NewRegret(mgr.Config().Model)
		observe = func(mgr *core.Manager, q workload.Query) ([]policy.Action, error) {
			return rg.ObserveQuery(mgr, q.ToQuery())
		}
	default:
		return nil, 0, fmt.Errorf("bench: unknown strategy %q", strategy)
	}

	costs := make([]time.Duration, len(queries))
	for i, q := range queries {
		_, st, err := mgr.ScanContext(context.Background(), q.ToQuery())
		if err != nil {
			return nil, 0, err
		}
		cost := st.DecodeWall
		if observe != nil {
			actions, err := observe(mgr, q)
			if err != nil {
				return nil, 0, err
			}
			if len(actions) > 0 {
				rs, err := policy.Apply(context.Background(), mgr, actions)
				if err != nil {
					return nil, 0, err
				}
				cost += rs.DecodeWall + rs.EncodeWall
			}
		}
		costs[i] = cost
	}
	return costs, upfront, nil
}

// normalizeSeries converts per-query costs into the paper's cumulative
// normalized curve: each query's cost is divided by the untiled baseline
// for that same query, and any upfront cost is charged to the first query
// normalized against the mean baseline (dividing it by one query's
// possibly-tiny baseline would explode the curve).
func normalizeSeries(costs []time.Duration, upfront time.Duration, baseCosts []time.Duration) []float64 {
	var meanBase time.Duration
	for _, b := range baseCosts {
		meanBase += b
	}
	if len(baseCosts) > 0 {
		meanBase /= time.Duration(len(baseCosts))
	}
	if meanBase <= 0 {
		meanBase = time.Microsecond
	}
	cum := make([]float64, len(costs))
	run := float64(upfront) / float64(meanBase)
	for i, c := range costs {
		base := baseCosts[i]
		if base <= 0 {
			base = time.Microsecond
		}
		run += float64(c) / float64(base)
		cum[i] = run
	}
	return cum
}

// RunFigure11 reproduces Figure 11 and Table 2 for the given workloads
// (nil = all six): the four strategies' cumulative decode + re-tiling time,
// normalized per-query to the untiled baseline.
func RunFigure11(o Options, names []string) ([]WorkloadSeries, []*Table, *Table, error) {
	o = o.withDefaults()
	if names == nil {
		names = workload.Names()
	}
	root, err := os.MkdirTemp("", "tasm-fig11-*")
	if err != nil {
		return nil, nil, nil, err
	}
	defer os.RemoveAll(root)

	var series []WorkloadSeries
	var tables []*Table
	finals := map[string]map[string][]float64{} // workload -> strategy -> finals per video

	for _, name := range names {
		gen, ok := workload.ByName(name)
		if !ok {
			return nil, nil, nil, fmt.Errorf("bench: unknown workload %q", name)
		}
		perStrategyCum := map[string][][]float64{}
		for _, p := range workloadVideos(o, name) {
			o.progressf("fig11 %s: %s\n", name, p.Spec.Name)
			m, err := prepare(o, p)
			if err != nil {
				return nil, nil, nil, err
			}
			defer m.cleanup()
			wl := gen(workload.Info(p), o.Seed)
			queries := wl.Queries
			if o.QueryCap > 0 && len(queries) > o.QueryCap {
				queries = queries[:o.QueryCap]
			}
			// Baseline first: per-query untiled decode times.
			baseCosts, _, err := runStrategy(o, m, queries, StratNotTiled, root)
			if err != nil {
				return nil, nil, nil, err
			}
			for _, strat := range Strategies() {
				costs, upfront := baseCosts, time.Duration(0)
				if strat != StratNotTiled {
					if costs, upfront, err = runStrategy(o, m, queries, strat, root); err != nil {
						return nil, nil, nil, err
					}
				}
				cum := normalizeSeries(costs, upfront, baseCosts)
				series = append(series, WorkloadSeries{
					Workload: name, Video: p.Spec.Name, Strategy: strat, CumNorm: cum,
				})
				perStrategyCum[strat] = append(perStrategyCum[strat], cum)
				if finals[name] == nil {
					finals[name] = map[string][]float64{}
				}
				finals[name][strat] = append(finals[name][strat], cum[len(cum)-1])
			}
			// Template no longer needed for this video.
			os.RemoveAll(filepath.Join(root, "template-"+p.Spec.Name))
		}
		tables = append(tables, fig11Table(name, perStrategyCum))
	}

	t2 := &Table{
		Title:   "Table 2: cumulative workload time (normalized; 25/50/75 percentiles)",
		Columns: []string{"workload", "strategy", "q25", "q50", "q75"},
	}
	for _, name := range names {
		for _, strat := range Strategies() {
			q := stats.ComputeQuartiles(finals[name][strat])
			t2.Rows = append(t2.Rows, []string{name, strat, fmtF(q.Q25), fmtF(q.Q50), fmtF(q.Q75)})
		}
	}
	t2.Notes = append(t2.Notes,
		"paper medians (W1..W6 x not-tiled/all/more/regret):",
		"W1: 100/65/69/91  W2: 100/67/50/53  W3: 100/64/82/57",
		"W4: 200/102/110/103  W5: 200/221/230/200  W6: 200/244/186/186")
	return series, tables, t2, nil
}

// fig11Table renders a workload's median cumulative curve at checkpoints.
func fig11Table(name string, perStrategy map[string][][]float64) *Table {
	t := &Table{
		Title:   fmt.Sprintf("Figure 11 (%s): median cumulative decode+retile time (normalized)", name),
		Columns: []string{"strategy", "q=1", "25%", "50%", "75%", "100%"},
	}
	for _, strat := range Strategies() {
		curves := perStrategy[strat]
		if len(curves) == 0 {
			continue
		}
		n := len(curves[0])
		checkpoint := func(idx int) string {
			var vals []float64
			for _, c := range curves {
				if idx < len(c) {
					vals = append(vals, c[idx])
				}
			}
			return fmtF(stats.Median(vals))
		}
		t.Rows = append(t.Rows, []string{
			strat,
			checkpoint(0),
			checkpoint(n / 4),
			checkpoint(n / 2),
			checkpoint(3 * n / 4),
			checkpoint(n - 1),
		})
	}
	return t
}

// Fig12 strategy names.
const (
	StratPreTileAll   = "pretile-all-objects"
	StratPreTileBgSub = "pretile-bgsub"
)

// RunFigure12 reproduces Figure 12: Workload 5 with upfront detection
// costs. Pre-tiling strategies pay simulated detector latency (YOLOv3 or
// KNN background subtraction over every frame) plus the initial tiling,
// then evolve with the regret policy; the pure incremental strategy pays
// nothing upfront.
func RunFigure12(o Options) ([]WorkloadSeries, *Table, error) {
	o = o.withDefaults()
	root, err := os.MkdirTemp("", "tasm-fig12-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)

	strategies := []string{StratNotTiled, StratPreTileAll, StratPreTileBgSub, StratIncRegret}
	perStrategyCum := map[string][][]float64{}
	var series []WorkloadSeries

	for _, p := range workloadVideos(o, "W5") {
		o.progressf("fig12: %s\n", p.Spec.Name)
		m, err := prepare(o, p)
		if err != nil {
			return nil, nil, err
		}
		defer m.cleanup()
		wl := workload.W5(workload.Info(p), o.Seed)
		queries := wl.Queries
		if o.QueryCap > 0 && len(queries) > o.QueryCap {
			queries = queries[:o.QueryCap]
		}
		baseCosts, _, err := runStrategy(o, m, queries, StratNotTiled, root)
		if err != nil {
			return nil, nil, err
		}
		for _, strat := range strategies {
			costs, upfront := baseCosts, time.Duration(0)
			switch strat {
			case StratNotTiled:
			case StratIncRegret:
				if costs, upfront, err = runStrategy(o, m, queries, StratIncRegret, root); err != nil {
					return nil, nil, err
				}
			default:
				if costs, upfront, err = runPreTile(o, m, queries, strat, root); err != nil {
					return nil, nil, err
				}
			}
			cum := normalizeSeries(costs, upfront, baseCosts)
			series = append(series, WorkloadSeries{Workload: "W5+detect", Video: p.Spec.Name, Strategy: strat, CumNorm: cum})
			perStrategyCum[strat] = append(perStrategyCum[strat], cum)
		}
		os.RemoveAll(filepath.Join(root, "template-"+p.Spec.Name))
	}

	t := &Table{
		Title:   "Figure 12: W5 cumulative cost including initial detection (median, normalized)",
		Columns: []string{"strategy", "q=1", "25%", "50%", "75%", "100%"},
	}
	for _, strat := range strategies {
		curves := perStrategyCum[strat]
		if len(curves) == 0 {
			continue
		}
		n := len(curves[0])
		cp := func(idx int) string {
			var vals []float64
			for _, c := range curves {
				if idx < len(c) {
					vals = append(vals, c[idx])
				}
			}
			return fmtF(stats.Median(vals))
		}
		t.Rows = append(t.Rows, []string{strat, cp(0), cp(n / 4), cp(n / 2), cp(3 * n / 4), cp(n - 1)})
	}
	t.Notes = append(t.Notes, "paper: upfront detection never amortizes within 200 queries; incremental-regret tracks not-tiled")
	return series, t, nil
}

// runPreTile executes the Figure 12 pre-tiling strategies: pay detection
// latency over every frame, tile around the detections, then continue with
// the regret policy.
func runPreTile(o Options, m *micro, queries []workload.Query, strat, root string) ([]time.Duration, time.Duration, error) {
	tpl, err := templateDirFor(o, m, root)
	if err != nil {
		return nil, 0, err
	}
	dir := filepath.Join(root, fmt.Sprintf("%s-%s", m.preset.Spec.Name, strat))
	if err := copyDir(tpl, dir); err != nil {
		return nil, 0, err
	}
	mgr, err := core.Open(dir, managerConfig(o))
	if err != nil {
		return nil, 0, err
	}
	defer mgr.Close()
	defer os.RemoveAll(dir)
	video := m.preset.Spec.Name

	// Upfront: run the detector over every frame (simulated latency) and
	// tile every SOT around its detections.
	var det detect.Detector
	if strat == StratPreTileBgSub {
		det = &detect.BackgroundSub{Lat: detect.DefaultLatencies(), Seed: o.Seed}
	} else {
		det = &detect.Oracle{Lat: detect.DefaultLatencies(), Seed: o.Seed}
	}
	ds, detLat := detect.Run(det, m.video, 0, m.numFrames)
	upfront := detLat

	// Build per-SOT layouts around the detections.
	boxesBySOT := map[int][]geom.Rect{}
	for _, d := range ds {
		boxesBySOT[d.Frame/m.gopLen] = append(boxesBySOT[d.Frame/m.gopLen], d.Box)
	}
	meta, err := mgr.Meta(video)
	if err != nil {
		return nil, 0, err
	}
	cons := mgr.Config().Constraints(meta.W, meta.H)
	for _, sot := range meta.SOTs {
		l, err := layout.Partition(boxesBySOT[sot.ID], layout.Fine, cons)
		if err != nil {
			return nil, 0, err
		}
		if l.IsSingle() {
			continue
		}
		rs, err := mgr.RetileSOTContext(context.Background(), video, sot.ID, l)
		if err != nil {
			return nil, 0, err
		}
		upfront += rs.DecodeWall + rs.EncodeWall
	}

	// Then evolve incrementally with regret, like the paper.
	rg := policy.NewRegret(mgr.Config().Model)
	costs := make([]time.Duration, len(queries))
	for i, q := range queries {
		_, st, err := mgr.ScanContext(context.Background(), q.ToQuery())
		if err != nil {
			return nil, 0, err
		}
		cost := st.DecodeWall
		actions, err := rg.ObserveQuery(mgr, q.ToQuery())
		if err != nil {
			return nil, 0, err
		}
		if len(actions) > 0 {
			rs, err := policy.Apply(context.Background(), mgr, actions)
			if err != nil {
				return nil, 0, err
			}
			cost += rs.DecodeWall + rs.EncodeWall
		}
		costs[i] = cost
	}
	return costs, upfront, nil
}
