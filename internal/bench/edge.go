package bench

import (
	"context"
	"fmt"
	"os"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/policy"
	"github.com/tasm-repro/tasm/internal/stats"
	"github.com/tasm-repro/tasm/internal/workload"
)

// EdgeResult aggregates §5.2.4: query-time improvement of layouts designed
// around each cheap detector's output, split by video density.
type EdgeResult struct {
	Detector string
	Sparse   bool
	Imps     []float64
}

// RunEdgeDetection reproduces §5.2.4: layouts built from background
// subtraction, YOLOv3-tiny, full YOLOv3 every five frames, and full YOLOv3
// every frame, measured against the untiled baseline.
func RunEdgeDetection(o Options) ([]EdgeResult, *Table, error) {
	o = o.withDefaults()
	detectors := []struct {
		name string
		make func() detect.Detector
	}{
		{"bgsub-knn", func() detect.Detector {
			return &detect.BackgroundSub{Lat: detect.EdgeLatencies(), Seed: o.Seed}
		}},
		{"yolov3-tiny", func() detect.Detector {
			return &detect.Tiny{Lat: detect.EdgeLatencies(), Seed: o.Seed}
		}},
		{"yolov3-every5", func() detect.Detector {
			return &detect.EveryN{Inner: &detect.Oracle{Lat: detect.EdgeLatencies(), Seed: o.Seed}, N: 5}
		}},
		{"yolov3-every1", func() detect.Detector {
			return &detect.Oracle{Lat: detect.EdgeLatencies(), Seed: o.Seed}
		}},
	}
	cells := map[string]*EdgeResult{}
	cell := func(name string, sparse bool) *EdgeResult {
		key := fmt.Sprintf("%s|%v", name, sparse)
		c := cells[key]
		if c == nil {
			c = &EdgeResult{Detector: name, Sparse: sparse}
			cells[key] = c
		}
		return c
	}
	for _, p := range o.presets(nil) {
		o.progressf("edge: %s\n", p.Spec.Name)
		m, err := prepare(o, p)
		if err != nil {
			return nil, nil, err
		}
		defer m.cleanup()
		sparse := m.video.Sparse()
		untiled, err := m.untiledPlan(o)
		if err != nil {
			return nil, nil, err
		}
		for _, d := range detectors {
			det := d.make()
			ds, _ := detect.Run(det, m.video, 0, m.numFrames)
			boxesBySOT := map[int][]geom.Rect{}
			for _, dd := range ds {
				boxesBySOT[dd.Frame/m.gopLen] = append(boxesBySOT[dd.Frame/m.gopLen], dd.Box)
			}
			layouts := make([]layout.Layout, m.numSOTs())
			for si := range layouts {
				l, err := layout.Partition(boxesBySOT[si], layout.Fine, o.constraints())
				if err != nil {
					return nil, nil, err
				}
				layouts[si] = l
			}
			pl, err := m.encodePlan(o, "edge-"+d.name, layouts)
			if err != nil {
				return nil, nil, err
			}
			for _, obj := range p.QueryClasses {
				base, err := m.measureQuery(untiled, obj)
				if err != nil {
					return nil, nil, err
				}
				if base.Pixels == 0 {
					continue
				}
				mn, err := m.measureQuery(pl, obj)
				if err != nil {
					return nil, nil, err
				}
				c := cell(d.name, sparse)
				c.Imps = append(c.Imps, improvementPct(base.Wall, mn.Wall))
			}
		}
	}
	var out []EdgeResult
	for _, d := range detectors {
		for _, sparse := range []bool{true, false} {
			if c := cells[fmt.Sprintf("%s|%v", d.name, sparse)]; c != nil {
				out = append(out, *c)
			}
		}
	}
	t := &Table{
		Title:   "§5.2.4: layouts from cheap detection (median [IQR] improvement vs untiled)",
		Columns: []string{"detector", "density", "median", "q25", "q75"},
	}
	for _, c := range out {
		q := stats.ComputeQuartiles(c.Imps)
		d := "dense"
		if c.Sparse {
			d = "sparse"
		}
		t.Rows = append(t.Rows, []string{c.Detector, d, fmtPct(q.Q50), fmtPct(q.Q25), fmtPct(q.Q75)})
	}
	t.Notes = append(t.Notes,
		"paper: bgsub ~3% worse than not tiling; tiny median 16%;",
		"full-every-5 within 5% (sparse) / 16% (dense) of every-frame")
	return out, t, nil
}

// FitResult reports the cost-model calibration (paper §4.1: R² = 0.996).
type FitResult struct {
	Model   costmodel.Model
	Report  costmodel.FitReport
	Samples []costmodel.Sample
}

// RunCostModelFit reproduces the paper's cost-model validation: measure
// decode times across many (video, object, layout) combinations and fit
// C = β·P + γ·T by least squares.
func RunCostModelFit(o Options) (FitResult, *Table, error) {
	o = o.withDefaults()
	var samples []costmodel.Sample
	presets := o.presets(nil)
	if len(presets) > 4 {
		presets = presets[:4]
	}
	for _, p := range presets {
		o.progressf("costfit: %s\n", p.Spec.Name)
		m, err := prepare(o, p)
		if err != nil {
			return FitResult{}, nil, err
		}
		defer m.cleanup()
		var plans []*plan
		if up, err := m.untiledPlan(o); err == nil {
			plans = append(plans, up)
		}
		for _, g := range [][2]int{{2, 2}, {3, 3}, {5, 5}} {
			if up, err := m.uniformPlan(o, g[0], g[1]); err == nil {
				plans = append(plans, up)
			}
		}
		for _, obj := range p.QueryClasses {
			if np, err := m.nonUniformPlan(o, "fit", []string{obj}, layout.Fine); err == nil {
				plans = append(plans, np)
			}
		}
		for _, pl := range plans {
			for _, obj := range p.QueryClasses {
				// Best-of-three timing to suppress scheduler noise on
				// sub-millisecond decodes.
				var best measurement
				for rep := 0; rep < 3; rep++ {
					mm, err := m.measureQuery(pl, obj)
					if err != nil {
						return FitResult{}, nil, err
					}
					if rep == 0 || mm.Wall < best.Wall {
						best = mm
					}
				}
				if best.Pixels == 0 {
					continue
				}
				samples = append(samples, costmodel.Sample{
					Pixels: best.Pixels, Tiles: best.Tiles, Elapsed: best.Wall,
				})
			}
		}
	}
	model, rep := costmodel.Default().Fit(samples)
	t := &Table{
		Title:   "Cost model calibration: decode time ~ beta*pixels + gamma*tiles",
		Columns: []string{"metric", "value"},
		Rows: [][]string{
			{"samples", fmt.Sprint(rep.Samples)},
			{"beta (s/pixel)", fmt.Sprintf("%.3g", model.Beta)},
			{"gamma (s/tile)", fmt.Sprintf("%.3g", model.Gamma)},
			{"R^2", fmt.Sprintf("%.4f", rep.R2)},
		},
		Notes: []string{"paper fits 1,400 combinations with R^2 = 0.996"},
	}
	return FitResult{Model: model, Report: rep, Samples: samples}, t, nil
}

// AlphaCell summarizes the decision rule at one α threshold.
type AlphaCell struct {
	Alpha       float64
	KeptBad     int     // tiled although slower
	SkippedGood int     // refused although faster
	MaxForgone  float64 // largest improvement refused
}

// RunAblationAlpha sweeps the do-not-tile threshold over the Figure 10
// point cloud, showing why the paper settles on α = 0.8.
func RunAblationAlpha(o Options) ([]AlphaCell, *Table, error) {
	points, _, err := RunFigure10(o)
	if err != nil {
		return nil, nil, err
	}
	alphas := []float64{0.5, 0.65, 0.8, 0.95}
	var out []AlphaCell
	t := &Table{
		Title:   "Ablation: alpha threshold for the do-not-tile rule",
		Columns: []string{"alpha", "kept-but-slower", "refused-but-faster", "max forgone imp"},
	}
	for _, a := range alphas {
		c := AlphaCell{Alpha: a}
		for _, pt := range points {
			kept := pt.PixelRatio < a
			good := pt.Improvement > 0
			if kept && !good {
				c.KeptBad++
			}
			if !kept && good {
				c.SkippedGood++
				if pt.Improvement > c.MaxForgone {
					c.MaxForgone = pt.Improvement
				}
			}
		}
		out = append(out, c)
		t.Rows = append(t.Rows, []string{
			fmtF(a), fmt.Sprint(c.KeptBad), fmt.Sprint(c.SkippedGood), fmtPct(c.MaxForgone),
		})
	}
	t.Notes = append(t.Notes, "paper: 0.8 blocks nearly all slowdowns while forgoing only small (<20%) wins")
	return out, t, nil
}

// EtaCell is one η setting's outcome on a workload.
type EtaCell struct {
	Eta     float64
	Finals  []float64 // final normalized cumulative cost per video
	Retiles int
}

// RunAblationEta sweeps the regret policy's η on workload W4 (the
// object-shift workload, where premature retiling is most costly).
func RunAblationEta(o Options) ([]EtaCell, *Table, error) {
	o = o.withDefaults()
	etas := []float64{0, 0.5, 1, 2}
	out := make([]EtaCell, len(etas))
	for i, e := range etas {
		out[i].Eta = e
	}
	root, err := os.MkdirTemp("", "tasm-eta-*")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(root)

	for _, p := range workloadVideos(o, "W4") {
		o.progressf("eta: %s\n", p.Spec.Name)
		m, err := prepare(o, p)
		if err != nil {
			return nil, nil, err
		}
		defer m.cleanup()
		wl := workload.W4(workload.Info(p), o.Seed)
		queries := wl.Queries
		if o.QueryCap > 0 && len(queries) > o.QueryCap {
			queries = queries[:o.QueryCap]
		}
		baseCosts, _, err := runStrategy(o, m, queries, StratNotTiled, root)
		if err != nil {
			return nil, nil, err
		}
		for i, eta := range etas {
			costs, retiles, err := runRegretWithEta(o, m, queries, eta, root)
			if err != nil {
				return nil, nil, err
			}
			run := 0.0
			for j, c := range costs {
				base := baseCosts[j]
				if base <= 0 {
					base = time.Microsecond
				}
				run += float64(c) / float64(base)
			}
			out[i].Finals = append(out[i].Finals, run)
			out[i].Retiles += retiles
		}
	}
	t := &Table{
		Title:   "Ablation: regret threshold eta on W4 (final normalized cost)",
		Columns: []string{"eta", "median final", "retiles"},
	}
	for _, c := range out {
		t.Rows = append(t.Rows, []string{fmtF(c.Eta), fmtF(stats.Median(c.Finals)), fmt.Sprint(c.Retiles)})
	}
	t.Notes = append(t.Notes, "paper: eta=0 risks wasted retiling; eta=1 (online-indexing rule) works well")
	return out, t, nil
}

func runRegretWithEta(o Options, m *micro, queries []workload.Query, eta float64, root string) ([]time.Duration, int, error) {
	tpl, err := templateDirFor(o, m, root)
	if err != nil {
		return nil, 0, err
	}
	dir := fmt.Sprintf("%s/%s-eta%.2f", root, m.preset.Spec.Name, eta)
	if err := copyDir(tpl, dir); err != nil {
		return nil, 0, err
	}
	mgr, err := core.Open(dir, managerConfig(o))
	if err != nil {
		return nil, 0, err
	}
	defer mgr.Close()
	defer os.RemoveAll(dir)

	rg := policy.NewRegret(mgr.Config().Model)
	rg.Eta = eta
	costs := make([]time.Duration, len(queries))
	retiles := 0
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
			retiles += len(actions)
			rs, err := policy.Apply(context.Background(), mgr, actions)
			if err != nil {
				return nil, 0, err
			}
			cost += rs.DecodeWall + rs.EncodeWall
		}
		costs[i] = cost
	}
	return costs, retiles, nil
}
