package tasm

import (
	"context"
	"testing"

	"github.com/tasm-repro/tasm/internal/scene"
)

// makeVideo renders a small traffic scene and returns it with ground truth.
func makeVideo(t *testing.T) *scene.Video {
	t.Helper()
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 3,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.16},
			{Class: scene.Person, Count: 1, SizeFrac: 0.25},
		},
		Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func openManager(t *testing.T, opts ...Option) (*StorageManager, *scene.Video) {
	t.Helper()
	ctx := context.Background()
	opts = append([]Option{WithGOPLength(10), WithMinTileSize(32, 32)}, opts...)
	sm, err := Open(t.TempDir(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	v := makeVideo(t)
	if _, err := sm.IngestContext(ctx, "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := sm.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sm, v
}

func TestEndToEndScan(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t)
	res, st, err := sm.ScanSQLContext(ctx, "SELECT car FROM traffic WHERE 0 <= t < 10")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if st.PixelsDecoded == 0 || st.DecodeWall == 0 {
		t.Errorf("stats = %+v", st)
	}
	for _, r := range res {
		if r.Pixels == nil || r.Region.Empty() {
			t.Error("malformed region result")
		}
	}
}

func TestScanSQLParseError(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t)
	if _, _, err := sm.ScanSQLContext(ctx, "garbage"); err == nil {
		t.Error("bad SQL accepted")
	}
}

func TestDesignAndRetile(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t)
	l, err := sm.DesignLayout("traffic", 0, []string{"car"})
	if err != nil {
		t.Fatal(err)
	}
	if l.IsSingle() {
		t.Fatal("expected a tiled layout for sparse video")
	}
	_, before, _ := sm.ScanSQLContext(ctx, "SELECT car FROM traffic WHERE 0 <= t < 10")
	if _, err := sm.RetileSOTContext(ctx, "traffic", 0, l); err != nil {
		t.Fatal(err)
	}
	_, after, _ := sm.ScanSQLContext(ctx, "SELECT car FROM traffic WHERE 0 <= t < 10")
	if after.PixelsDecoded >= before.PixelsDecoded {
		t.Errorf("retile did not reduce pixels: %d -> %d", before.PixelsDecoded, after.PixelsDecoded)
	}
	if _, err := sm.DesignLayout("traffic", 99, []string{"car"}); err == nil {
		t.Error("absent SOT accepted")
	}
}

func TestPlanKQKO(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t)
	q, err := ParseQuery("SELECT car FROM traffic WHERE 0 <= t < 20")
	if err != nil {
		t.Fatal(err)
	}
	n, err := sm.PlanKQKOContext(ctx, "traffic", []Query{q})
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Error("KQKO planned nothing")
	}
	meta, _ := sm.Meta("traffic")
	if meta.SOTs[0].L.IsSingle() {
		t.Error("SOT 0 still untiled after KQKO")
	}
}

func TestPretileAllObjects(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t)
	n, err := sm.PretileAllObjectsContext(ctx, "traffic")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("retiled %d SOTs, want 3", n)
	}
}

func TestAdaptiveTiling(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t, WithAdaptiveTiling(), WithEta(0))
	// With η=0, the first query is evidence enough to retile the touched
	// SOT; Kick runs the background decision cycle synchronously.
	if _, _, err := sm.ScanSQLContext(ctx, "SELECT car FROM traffic WHERE 0 <= t < 10"); err != nil {
		t.Fatal(err)
	}
	if n, err := sm.AutotileKick(context.Background()); err != nil {
		t.Fatal(err)
	} else if n == 0 {
		t.Fatal("AutotileKick applied nothing with eta=0")
	}
	meta, _ := sm.Meta("traffic")
	if meta.SOTs[0].L.IsSingle() {
		t.Error("adaptive tiling did not retile after query with eta=0")
	}
	if meta.SOTs[2].L.IsSingle() == false {
		t.Error("adaptive tiling touched an unqueried SOT")
	}
}

func TestStitchExportRoundTrip(t *testing.T) {
	ctx := context.Background()
	sm, v := openManager(t)
	l, _ := sm.DesignLayout("traffic", 0, []string{"car", "person"})
	sm.RetileSOTContext(ctx, "traffic", 0, l)
	data, err := sm.ExportStitchedContext(ctx, "traffic", 0)
	if err != nil {
		t.Fatal(err)
	}
	frames, err := DecodeStitched(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 10 {
		t.Fatalf("decoded %d frames", len(frames))
	}
	if psnr := PSNR(v.Frame(0), frames[0]); psnr < 26 {
		t.Errorf("stitched PSNR = %.1f", psnr)
	}
}

func TestMetaAndListing(t *testing.T) {
	sm, _ := openManager(t)
	videos, err := sm.Videos()
	if err != nil || len(videos) != 1 || videos[0] != "traffic" {
		t.Errorf("Videos = %v, %v", videos, err)
	}
	labels, err := sm.Labels("traffic")
	if err != nil || len(labels) != 2 {
		t.Errorf("Labels = %v, %v", labels, err)
	}
	n, err := sm.VideoBytes("traffic")
	if err != nil || n <= 0 {
		t.Errorf("VideoBytes = %d, %v", n, err)
	}
	// Two cars over 30 frames = 60 detections.
	ds, err := sm.LookupDetections("traffic", "car", 0, 30)
	if err != nil || len(ds) != 60 {
		t.Errorf("LookupDetections = %d, %v", len(ds), err)
	}
}

func TestUniformLayoutHelper(t *testing.T) {
	sm, _ := openManager(t)
	l, err := sm.UniformLayout("traffic", 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Rows() != 2 || l.Cols() != 3 {
		t.Errorf("layout = %dx%d", l.Rows(), l.Cols())
	}
}

func TestMarkDetectedRoundTrip(t *testing.T) {
	sm, _ := openManager(t)
	if err := sm.MarkDetected("traffic", "car", 0, 30); err != nil {
		t.Fatal(err)
	}
}

func TestIngestTiledAPI(t *testing.T) {
	ctx := context.Background()
	sm, err := Open(t.TempDir(), WithGOPLength(10), WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	v := makeVideo(t)
	frames := v.Frames(0, 20)
	layouts := make([]Layout, 2)
	for i := range layouts {
		layouts[i] = Layout{RowHeights: []int{96}, ColWidths: []int{96, 96}}
	}
	if _, err := sm.IngestTiledContext(ctx, "cam", frames, 10, layouts); err != nil {
		t.Fatal(err)
	}
	meta, _ := sm.Meta("cam")
	if meta.SOTs[0].L.NumTiles() != 2 {
		t.Errorf("tiles = %d", meta.SOTs[0].L.NumTiles())
	}
}

func TestCacheBudgetAPI(t *testing.T) {
	ctx := context.Background()
	sm, _ := openManager(t, WithCacheBudget(64<<20), WithParallelism(2))
	const sql = "SELECT car FROM traffic WHERE 0 <= t < 30"
	cold, cs, err := sm.ScanSQLContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CacheMisses == 0 || cs.CacheHits != 0 {
		t.Errorf("cold scan stats = %+v", cs)
	}
	warm, ws, err := sm.ScanSQLContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if ws.CacheHits == 0 || ws.TilesDecoded != 0 {
		t.Errorf("warm scan stats = %+v", ws)
	}
	if len(warm) != len(cold) {
		t.Fatalf("warm returned %d regions, cold %d", len(warm), len(cold))
	}
	g := sm.CacheStats()
	if g.Hits == 0 || g.Entries == 0 || g.BytesCached == 0 {
		t.Errorf("global cache stats = %+v", g)
	}
	if err := sm.DeleteVideo("traffic"); err != nil {
		t.Fatal(err)
	}
	if g := sm.CacheStats(); g.Entries != 0 {
		t.Errorf("cache not emptied by DeleteVideo: %+v", g)
	}
	if _, _, err := sm.ScanSQLContext(ctx, sql); err == nil {
		t.Fatal("scan of deleted video succeeded")
	}
}
