package core

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/semindex"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Codec.GOPLength = 10
	cfg.MinTileW, cfg.MinTileH = 32, 32
	return cfg
}

// newManager builds a manager over a small synthetic video with ground
// truth indexed for cars and people.
func newManager(t *testing.T) (*Manager, *scene.Video) {
	t.Helper()
	ctx := context.Background()
	m, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 3,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.3},
		},
		Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := v.Frames(0, v.Spec.NumFrames())
	if _, err := m.IngestContext(ctx, "traffic", frames, v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, v
}

func TestIngestCreatesSOTsPerGOP(t *testing.T) {
	m, _ := newManager(t)
	meta, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if meta.FrameCount != 30 {
		t.Errorf("FrameCount = %d", meta.FrameCount)
	}
	if len(meta.SOTs) != 3 {
		t.Fatalf("SOTs = %d, want 3 (one per 10-frame GOP)", len(meta.SOTs))
	}
	for i, sot := range meta.SOTs {
		if !sot.L.IsSingle() {
			t.Errorf("SOT %d not untiled after ingest", i)
		}
		if sot.From != i*10 || sot.To != i*10+10 {
			t.Errorf("SOT %d range [%d,%d)", i, sot.From, sot.To)
		}
	}
}

func TestIngestValidation(t *testing.T) {
	ctx := context.Background()
	m, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.IngestContext(ctx, "v", nil, 30); err == nil {
		t.Error("empty ingest succeeded")
	}
	frames := []*frame.Frame{frame.New(64, 64)}
	if _, err := m.IngestTiledContext(ctx, "v", frames, 30, nil); err == nil {
		t.Error("layout count mismatch accepted")
	}
	bad := layout.Layout{RowHeights: []int{10, 54}, ColWidths: []int{64}}
	if _, err := m.IngestTiledContext(ctx, "v", frames, 30, []layout.Layout{bad}); err == nil {
		t.Error("invalid layout accepted")
	}
}

func TestScanReturnsQueriedPixels(t *testing.T) {
	ctx := context.Background()
	m, v := newManager(t)
	q, err := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 10")
	if err != nil {
		t.Fatal(err)
	}
	results, st, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) == 0 {
		t.Fatal("scan returned nothing")
	}
	if st.RegionsReturned != len(results) {
		t.Errorf("RegionsReturned = %d, len = %d", st.RegionsReturned, len(results))
	}
	if st.PixelsDecoded <= 0 || st.TilesDecoded <= 0 || st.DecodeWall <= 0 {
		t.Errorf("stats not populated: %+v", st)
	}
	// Every returned region matches a ground-truth car box on that frame,
	// and the pixels match the source within codec loss.
	for _, r := range results {
		if r.Frame < 0 || r.Frame >= 10 {
			t.Errorf("result frame %d outside query range", r.Frame)
		}
		matched := false
		for _, tr := range v.GroundTruth(r.Frame) {
			if tr.Label == scene.Car && r.Region.Contains(tr.Box.Intersect(r.Region)) && tr.Box.Intersects(r.Region) {
				matched = true
			}
		}
		if !matched {
			t.Errorf("region %v@%d matches no car", r.Region, r.Frame)
		}
		src := v.Frame(r.Frame).Crop(r.Region)
		if psnr := frame.PSNR(src, r.Pixels); psnr < 26 {
			t.Errorf("region %v@%d PSNR = %.1f", r.Region, r.Frame, psnr)
		}
	}
}

func TestScanDecodesFewerPixelsAfterTiling(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q, _ := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 10")
	_, before, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}

	// Retile SOT 0 around the cars.
	boxes, err := m.Index().LookupBoxes("traffic", "car", 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	meta, _ := m.Meta("traffic")
	l, err := layout.Partition(boxes, layout.Fine, m.Config().Constraints(meta.W, meta.H))
	if err != nil {
		t.Fatal(err)
	}
	if l.IsSingle() {
		t.Fatal("partition produced no tiling; test video too dense")
	}
	if _, err := m.RetileSOTContext(ctx, "traffic", 0, l); err != nil {
		t.Fatal(err)
	}

	_, after, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if after.PixelsDecoded >= before.PixelsDecoded {
		t.Errorf("tiling did not reduce pixels: %d -> %d", before.PixelsDecoded, after.PixelsDecoded)
	}
	// Results must still be correct.
	results, _, _ := m.ScanContext(ctx, q)
	if len(results) == 0 {
		t.Error("no results after retile")
	}
}

func TestScanEmptyAndMissing(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q, _ := query.Parse("SELECT bird FROM traffic")
	results, st, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 0 || st.PixelsDecoded != 0 {
		t.Errorf("absent label scan: %d results, %d pixels", len(results), st.PixelsDecoded)
	}
	q2, _ := query.Parse("SELECT car FROM nothere")
	if _, _, err := m.ScanContext(ctx, q2); err == nil {
		t.Error("missing video scan succeeded")
	}
	// Inverted/degenerate ranges are errors under the shared
	// clamp-then-validate semantics (see TestRangeSemantics).
	q3, _ := query.Parse("SELECT car FROM traffic WHERE 20 <= t < 20")
	if _, _, err := m.ScanContext(ctx, q3); err == nil {
		t.Error("degenerate range scan succeeded")
	}
}

func TestScanConjunctivePredicate(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	// Add a synthetic "red" attribute overlapping the first car on frame 0.
	cars, _ := m.Index().LookupBoxes("traffic", "car", 0, 1)
	if len(cars) == 0 {
		t.Fatal("no car on frame 0")
	}
	red := cars[0].Inset(2)
	if red.Empty() {
		red = cars[0]
	}
	m.AddMetadata("traffic", 0, "red", red.X0, red.Y0, red.X1, red.Y1)

	q, _ := query.Parse("SELECT car AND red FROM traffic WHERE t < 1")
	results, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("conjunction returned %d regions", len(results))
	}
	want := snapEven(cars[0].Intersect(red))
	if results[0].Region != want.Clamp(geom.R(0, 0, 192, 96)) {
		t.Errorf("region = %v, want %v", results[0].Region, want)
	}
}

func TestQueryDemand(t *testing.T) {
	m, _ := newManager(t)
	q, _ := query.Parse("SELECT car FROM traffic WHERE 5 <= t < 15")
	demands, sots, err := m.QueryDemand(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(demands) == 0 {
		t.Fatal("no demand")
	}
	for id, qf := range demands {
		sot := sots[id]
		if sot.From > 14 || sot.To <= 5 {
			t.Errorf("irrelevant SOT %d in demand", id)
		}
		for off := range qf {
			f := sot.From + off
			if f < 5 || f >= 15 {
				t.Errorf("demand frame %d outside window", f)
			}
		}
	}
}

func TestDecodeFramesReassembles(t *testing.T) {
	ctx := context.Background()
	m, v := newManager(t)
	frames, st, err := m.DecodeFramesContext(ctx, "traffic", 5, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 7 {
		t.Fatalf("got %d frames", len(frames))
	}
	if st.SOTsTouched != 2 {
		t.Errorf("SOTsTouched = %d, want 2", st.SOTsTouched)
	}
	for i, f := range frames {
		src := v.Frame(5 + i)
		if psnr := frame.PSNR(src, f); psnr < 28 {
			t.Errorf("frame %d PSNR = %.1f", 5+i, psnr)
		}
	}
	if _, _, err := m.DecodeFramesContext(ctx, "traffic", 20, 10); err == nil {
		t.Error("inverted range accepted")
	}
}

func TestRetileSOTStoresLayout(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	boxes, _ := m.Index().LookupBoxes("traffic", "car", 0, 10)
	meta, _ := m.Meta("traffic")
	l, _ := layout.Partition(boxes, layout.Fine, m.Config().Constraints(meta.W, meta.H))
	if _, err := m.RetileSOTContext(ctx, "traffic", 0, l); err != nil {
		t.Fatal(err)
	}
	meta, _ = m.Meta("traffic")
	if !meta.SOTs[0].L.Equal(l) {
		t.Error("layout not stored")
	}
	// Retiling to the same layout is a no-op.
	rs, err := m.RetileSOTContext(ctx, "traffic", 0, l)
	if err != nil {
		t.Fatal(err)
	}
	if rs.EncodeWall != 0 {
		t.Error("same-layout retile re-encoded")
	}
	if _, err := m.RetileSOTContext(ctx, "traffic", 99, l); err == nil {
		t.Error("absent SOT retile succeeded")
	}
}

func TestStitchSOT(t *testing.T) {
	ctx := context.Background()
	m, v := newManager(t)
	// Tile SOT 1 first so stitching is non-trivial.
	boxes, _ := m.Index().LookupBoxes("traffic", "person", 10, 20)
	meta, _ := m.Meta("traffic")
	l, _ := layout.Partition(boxes, layout.Fine, m.Config().Constraints(meta.W, meta.H))
	m.RetileSOTContext(ctx, "traffic", 1, l)

	s, err := m.StitchSOTContext(ctx, "traffic", 1)
	if err != nil {
		t.Fatal(err)
	}
	frames, _, err := s.DecodeRange(0, s.FrameCount())
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range frames {
		if psnr := frame.PSNR(v.Frame(10+i), f); psnr < 26 {
			t.Errorf("stitched frame %d PSNR %.1f", 10+i, psnr)
		}
	}
	if _, err := m.StitchSOTContext(ctx, "traffic", 12); err == nil {
		t.Error("absent SOT stitch succeeded")
	}
}

func TestAddDetectionsBatch(t *testing.T) {
	m, _ := newManager(t)
	ds := []semindex.Detection{
		{Frame: 0, Label: "boat", Box: geom.R(0, 0, 10, 10)},
		{Frame: 1, Label: "boat", Box: geom.R(5, 5, 15, 15)},
	}
	if err := m.AddDetections("traffic", ds); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Index().LookupBoxes("traffic", "boat", 0, 5)
	if len(got) != 2 {
		t.Errorf("batch add stored %d", len(got))
	}
}

func TestVideoBytesPositive(t *testing.T) {
	m, _ := newManager(t)
	n, err := m.VideoBytes("traffic")
	if err != nil || n <= 0 {
		t.Errorf("VideoBytes = %d, %v", n, err)
	}
}

func TestParallelDecodeMatchesSequential(t *testing.T) {
	ctx := context.Background()
	// The parallel-decode extension must return identical regions and
	// identical work statistics (wall time aside) to sequential decode.
	cfgPar := testConfig()
	cfgPar.Parallelism = 4

	build := func(cfg Config) (*Manager, func()) {
		dir := t.TempDir()
		m, err := Open(dir, cfg)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := scene.Generate(scene.Spec{
			Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 2,
			Classes: []scene.ClassMix{
				{Class: scene.Car, Count: 3, SizeFrac: 0.14},
			},
			Seed: 2,
		})
		if _, err := m.IngestContext(ctx, "traffic", v.Frames(0, 20), 10); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 20; f++ {
			for _, tr := range v.GroundTruth(f) {
				m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1)
			}
		}
		// Tile around cars so scans touch multiple tiles.
		boxes, _ := m.Index().LookupBoxes("traffic", "car", 0, 10)
		l, _ := layout.Partition(boxes, layout.Fine, m.Config().Constraints(192, 96))
		if !l.IsSingle() {
			m.RetileSOTContext(ctx, "traffic", 0, l)
		}
		return m, func() { m.Close() }
	}

	mSeq, closeSeq := build(testConfig())
	defer closeSeq()
	mPar, closePar := build(cfgPar)
	defer closePar()

	q, _ := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 20")
	resSeq, stSeq, err := mSeq.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	resPar, stPar, err := mPar.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if stSeq.PixelsDecoded != stPar.PixelsDecoded || stSeq.TilesDecoded != stPar.TilesDecoded {
		t.Errorf("work stats differ: seq %+v vs par %+v", stSeq, stPar)
	}
	if len(resSeq) != len(resPar) {
		t.Fatalf("result counts differ: %d vs %d", len(resSeq), len(resPar))
	}
	// Results arrive per SOT in map order; compare as sets of (frame, region).
	type key struct {
		f int
		r geom.Rect
	}
	seen := map[key]bool{}
	for _, r := range resSeq {
		seen[key{r.Frame, r.Region}] = true
	}
	for _, r := range resPar {
		if !seen[key{r.Frame, r.Region}] {
			t.Errorf("parallel-only region %v@%d", r.Region, r.Frame)
		}
	}
}

func TestScanErrorOnCorruptTile(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	meta, _ := m.Meta("traffic")
	// Corrupt the first SOT's tile file on disk.
	dir := filepath.Join(m.Store().Root(), "traffic", "frames_0-9")
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no tile files: %v", err)
	}
	path := filepath.Join(dir, entries[0].Name())
	if err := os.WriteFile(path, []byte("corrupted!"), 0o644); err != nil {
		t.Fatal(err)
	}
	q, _ := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 10")
	if _, _, err := m.ScanContext(ctx, q); err == nil {
		t.Error("scan of corrupt tile succeeded")
	}
	_ = meta
}
