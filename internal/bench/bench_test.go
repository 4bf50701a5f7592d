package bench

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/workload"
)

// tiny returns options small enough for unit tests: 2 short, low-res
// videos and a handful of queries per workload.
func tiny() Options {
	return Options{
		Width: 160, Height: 96, FPS: 8,
		DurationScale: 0.1, // clamps to the 2s minimum
		MaxVideos:     2,
		QueryCap:      5,
		Seed:          1,
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"x", "y"}, {"wide-cell", "z"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	tab.Render(&buf)
	out := buf.String()
	for _, want := range []string{"demo", "long-column", "wide-cell", "a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestRunTable1(t *testing.T) {
	rows, tab, err := RunTable1(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want MaxVideos=2", len(rows))
	}
	if len(tab.Rows) != len(rows) {
		t.Error("table/row mismatch")
	}
	for _, r := range rows {
		if r.Coverage <= 0 || r.Coverage >= 1 {
			t.Errorf("%s coverage %.3f", r.Name, r.Coverage)
		}
	}
}

func TestRunFigure6(t *testing.T) {
	results, qa, qb, err := RunFigure6(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	if len(qa.Rows) != 2 || len(qb.Rows) != 3 {
		t.Errorf("table shapes: %d, %d", len(qa.Rows), len(qb.Rows))
	}
	for _, r := range results {
		if r.UniformPSNR < 20 || r.NonUniformPSNR < 20 || r.ReencodePSNR < 20 {
			t.Errorf("%s/%s: implausible PSNRs %+v", r.Video, r.Object, r)
		}
		// Sparse videos should benefit from tiling.
		if r.BestNonUniformImp < -100 {
			t.Errorf("%s/%s: non-uniform improvement %f", r.Video, r.Object, r.BestNonUniformImp)
		}
	}
}

func TestRunFigure7(t *testing.T) {
	results, tab, err := RunFigure7(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(uniformGrids()) {
		t.Fatalf("results = %d grids", len(results))
	}
	if len(tab.Rows) != len(results) {
		t.Error("table mismatch")
	}
	for _, r := range results {
		if len(r.Imps) == 0 {
			t.Errorf("grid %s has no samples", r.Grid)
		}
	}
}

func TestRunFigure8(t *testing.T) {
	cells, tab, err := RunFigure8(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) == 0 {
		t.Fatal("no cells")
	}
	targets := map[string]bool{}
	for _, c := range cells {
		targets[c.Target] = true
		if c.Granularity != "fine" && c.Granularity != "coarse" {
			t.Errorf("granularity %q", c.Granularity)
		}
	}
	for _, want := range []string{"same", "all"} {
		if !targets[want] {
			t.Errorf("missing target %q (have %v)", want, targets)
		}
	}
	if len(tab.Rows) != len(cells) {
		t.Error("table mismatch")
	}
}

func TestRunFigure9(t *testing.T) {
	results, tab, err := RunFigure9(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("durations = %d", len(results))
	}
	if len(tab.Rows) != 4 {
		t.Error("table mismatch")
	}
	for _, r := range results {
		if len(r.Imps) == 0 || len(r.StorageRel) == 0 {
			t.Errorf("duration %ds has no samples", r.DurationSec)
		}
		for _, s := range r.StorageRel {
			if s <= 0 || s > 3 {
				t.Errorf("storage ratio %f implausible", s)
			}
		}
	}
}

func TestRunFigure10(t *testing.T) {
	points, tab, err := RunFigure10(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) == 0 {
		t.Fatal("no points")
	}
	for _, p := range points {
		if p.PixelRatio < 0 || p.PixelRatio > 1.01 {
			t.Errorf("%s/%s/%s ratio %f", p.Video, p.Object, p.Layout, p.PixelRatio)
		}
	}
	if len(tab.Rows) != 4 {
		t.Errorf("quadrant rows = %d", len(tab.Rows))
	}
}

func TestRunFigure11SingleWorkload(t *testing.T) {
	series, tables, t2, err := RunFigure11(tiny(), []string{"W1"})
	if err != nil {
		t.Fatal(err)
	}
	// 2 videos x 4 strategies.
	if len(series) != 8 {
		t.Fatalf("series = %d, want 8", len(series))
	}
	if len(tables) != 1 {
		t.Fatalf("tables = %d", len(tables))
	}
	if len(t2.Rows) != 4 {
		t.Errorf("table2 rows = %d", len(t2.Rows))
	}
	for _, s := range series {
		if len(s.CumNorm) != 5 {
			t.Fatalf("series %s/%s has %d points", s.Strategy, s.Video, len(s.CumNorm))
		}
		// Cumulative must be non-decreasing and positive.
		prev := 0.0
		for _, v := range s.CumNorm {
			if v < prev {
				t.Errorf("%s: cumulative decreased", s.Strategy)
			}
			prev = v
		}
		if s.Strategy == StratNotTiled {
			// Untiled normalizes to ~1 per query.
			if f := s.Final(); f < 4.9 || f > 5.1 {
				t.Errorf("untiled final = %f, want ~5", f)
			}
		}
	}
}

func TestRunFigure12(t *testing.T) {
	series, tab, err := RunFigure12(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(series) == 0 {
		t.Fatal("no series")
	}
	strategies := map[string]bool{}
	for _, s := range series {
		strategies[s.Strategy] = true
	}
	for _, want := range []string{StratNotTiled, StratPreTileAll, StratPreTileBgSub, StratIncRegret} {
		if !strategies[want] {
			t.Errorf("missing strategy %s", want)
		}
	}
	if len(tab.Rows) != 4 {
		t.Errorf("table rows = %d", len(tab.Rows))
	}
	// Pre-tiling strategies must show large upfront cost at query 1
	// relative to not-tiled.
	firstOf := map[string]float64{}
	for _, s := range series {
		firstOf[s.Strategy] += s.CumNorm[0]
	}
	if firstOf[StratPreTileAll] <= firstOf[StratNotTiled] {
		t.Errorf("pre-tile upfront cost %f not above baseline %f",
			firstOf[StratPreTileAll], firstOf[StratNotTiled])
	}
}

func TestRunEdgeDetection(t *testing.T) {
	results, tab, err := RunEdgeDetection(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("no results")
	}
	names := map[string]bool{}
	for _, r := range results {
		names[r.Detector] = true
	}
	for _, want := range []string{"bgsub-knn", "yolov3-tiny", "yolov3-every5", "yolov3-every1"} {
		if !names[want] {
			t.Errorf("missing detector %s", want)
		}
	}
	if len(tab.Rows) != len(results) {
		t.Error("table mismatch")
	}
}

// TestRunCostModelFit checks what is countable about the calibration: the
// experiment gathers enough (pixels, tiles) combinations to identify both
// coefficients, and the fit recovers a planted model from exactly those
// combinations. How well measured walls fit (R², paper: 0.996) depends on
// what else the machine is running, so that threshold is checked by CI's
// bench job (`tasm-bench -exp costfit`, run alone), not here.
func TestRunCostModelFit(t *testing.T) {
	fit, tab, err := RunCostModelFit(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(fit.Samples) < 10 || fit.Report.Samples != len(fit.Samples) {
		t.Fatalf("%d samples gathered, %d fitted; want the same, >= 10", len(fit.Samples), fit.Report.Samples)
	}
	// β and γ are identifiable only if tile counts vary independently of a
	// wide pixel range.
	tiles := map[int]bool{}
	minPx, maxPx := fit.Samples[0].Pixels, fit.Samples[0].Pixels
	for _, s := range fit.Samples {
		tiles[s.Tiles] = true
		minPx, maxPx = min(minPx, s.Pixels), max(maxPx, s.Pixels)
	}
	if len(tiles) < 3 {
		t.Errorf("samples cover %d distinct tile counts, want >= 3", len(tiles))
	}
	if maxPx < 3*minPx {
		t.Errorf("pixel range %d..%d spans less than 3x", minPx, maxPx)
	}
	const beta, gamma = 2e-9, 5e-5 // s/pixel, s/tile
	planted := make([]costmodel.Sample, len(fit.Samples))
	for i, s := range fit.Samples {
		secs := beta*float64(s.Pixels) + gamma*float64(s.Tiles)
		planted[i] = costmodel.Sample{Pixels: s.Pixels, Tiles: s.Tiles, Elapsed: time.Duration(secs * float64(time.Second))}
	}
	got, rep := costmodel.Default().Fit(planted)
	if math.Abs(got.Beta-beta) > 0.01*beta || math.Abs(got.Gamma-gamma) > 0.01*gamma {
		t.Errorf("planted beta %g gamma %g, fitted beta %g gamma %g", beta, gamma, got.Beta, got.Gamma)
	}
	if rep.R2 < 0.9999 {
		t.Errorf("R2 = %f on walls synthesised from the model itself", rep.R2)
	}
	if len(tab.Rows) != 4 {
		t.Error("table shape")
	}
}

func TestRunAblationAlpha(t *testing.T) {
	cells, tab, err := RunAblationAlpha(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	if len(tab.Rows) != 4 {
		t.Error("table shape")
	}
	// Stricter alpha admits fewer bad layouts (monotone in KeptBad).
	for i := 1; i < len(cells); i++ {
		if cells[i].KeptBad < cells[i-1].KeptBad {
			t.Errorf("KeptBad not monotone: %+v", cells)
			break
		}
	}
}

func TestRunAblationEta(t *testing.T) {
	cells, tab, err := RunAblationEta(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("cells = %d", len(cells))
	}
	if len(tab.Rows) != 4 {
		t.Error("table shape")
	}
	for _, c := range cells {
		if len(c.Finals) == 0 {
			t.Errorf("eta %.1f has no finals", c.Eta)
		}
	}
}

func TestWorkloadVideosRouting(t *testing.T) {
	o := tiny().withDefaults()
	for _, name := range []string{"W1", "W4"} {
		for _, p := range workloadVideos(o, name) {
			if p.Spec.Dataset != "VisualRoad" {
				t.Errorf("%s routed to %s", name, p.Spec.Dataset)
			}
		}
	}
	for _, name := range []string{"W5", "W6"} {
		for _, p := range workloadVideos(o, name) {
			if p.SparseExpected {
				t.Errorf("%s routed to sparse video %s", name, p.Spec.Name)
			}
		}
	}
}

func TestQuickOptions(t *testing.T) {
	q := Quick().withDefaults()
	if q.Width == 0 || q.QueryCap == 0 {
		t.Error("Quick options incomplete")
	}
}

func TestPrepare(t *testing.T) {
	o := tiny().withDefaults()
	p := scene.Presets(o.sceneOptions())[0]
	m, err := prepare(o, p)
	if err != nil {
		t.Fatal(err)
	}
	if m.numSOTs() != (m.numFrames+o.FPS-1)/o.FPS {
		t.Errorf("numSOTs = %d", m.numSOTs())
	}
	if len(m.boxes) == 0 {
		t.Error("no detections")
	}
	from, to := m.sotRange(0)
	if from != 0 || to != min(o.FPS, m.numFrames) {
		t.Errorf("sotRange(0) = [%d,%d)", from, to)
	}
	ds := m.detections()
	if len(ds) == 0 {
		t.Error("detections() empty")
	}
	_ = workload.Names()
}
