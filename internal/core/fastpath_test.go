package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// newCachedManager builds the standard test manager with the decoded-tile
// cache enabled and the given scan parallelism.
func newCachedManager(t *testing.T, budget int64, parallelism int) *Manager {
	t.Helper()
	ctx := context.Background()
	cfg := testConfig()
	cfg.CacheBudget = budget
	cfg.Parallelism = parallelism
	m, err := Open(t.TempDir(), cfg)
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
	return m
}

func mustQuery(t *testing.T, s string) query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// sameResults asserts two scans returned identical regions with
// byte-identical pixels, in the same order.
func sameResults(t *testing.T, a, b []RegionResult) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("result counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Frame != b[i].Frame || a[i].Region != b[i].Region {
			t.Fatalf("result %d differs: frame %d %v vs frame %d %v",
				i, a[i].Frame, a[i].Region, b[i].Frame, b[i].Region)
		}
		pa, pb := a[i].Pixels, b[i].Pixels
		if !bytes.Equal(pa.Y, pb.Y) || !bytes.Equal(pa.Cb, pb.Cb) || !bytes.Equal(pa.Cr, pb.Cr) {
			t.Fatalf("result %d pixels differ at frame %d %v", i, a[i].Frame, a[i].Region)
		}
	}
}

// TestScanStableFrameOrder asserts Scan returns results in ascending frame
// order, and that repeated scans return the identical sequence (the seed
// iterated a map of frame offsets, so order varied run to run).
func TestScanStableFrameOrder(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	ref, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no results")
	}
	for i := 1; i < len(ref); i++ {
		if ref[i].Frame < ref[i-1].Frame {
			t.Fatalf("results out of frame order: %d after %d", ref[i].Frame, ref[i-1].Frame)
		}
	}
	for rep := 0; rep < 5; rep++ {
		res, _, err := m.ScanContext(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameResults(t, ref, res)
	}
}

// TestParallelScanMatchesSequential asserts the fan-out pipeline produces
// exactly the sequential results.
func TestParallelScanMatchesSequential(t *testing.T) {
	ctx := context.Background()
	seq, _ := newManager(t)
	par := newCachedManager(t, 0, 4)
	q := mustQuery(t, "SELECT car OR person FROM traffic WHERE 0 <= t < 30")
	a, _, err := seq.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	b, sb, err := par.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, a, b)
	if sb.TilesDecoded == 0 {
		t.Fatal("parallel scan decoded nothing")
	}
}

// TestWarmScanMatchesCold asserts a cache-served scan returns byte-identical
// results to the cold scan that populated the cache, and that the second
// scan actually hit.
func TestWarmScanMatchesCold(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 64<<20, 2)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	cold, cs, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if cs.CacheHits != 0 || cs.CacheMisses == 0 || cs.TilesDecoded == 0 {
		t.Fatalf("cold scan stats: %+v", cs)
	}
	warm, ws, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ws.CacheHits == 0 || ws.TilesDecoded != 0 {
		t.Fatalf("warm scan was not served from cache: %+v", ws)
	}
	sameResults(t, cold, warm)

	// Global counters surface through CacheStats.
	if g := m.CacheStats(); g.Hits != int64(ws.CacheHits) || g.Misses != int64(cs.CacheMisses) || g.Entries == 0 {
		t.Fatalf("global cache stats: %+v", g)
	}
}

// TestWarmScanMatchesUncachedManager cross-checks the cache against a
// manager with caching disabled over an identically generated store.
func TestWarmScanMatchesUncachedManager(t *testing.T) {
	ctx := context.Background()
	cached := newCachedManager(t, 64<<20, 1)
	plain, _ := newManager(t)
	q := mustQuery(t, "SELECT person FROM traffic WHERE 5 <= t < 25")
	if _, _, err := cached.ScanContext(ctx, q); err != nil { // populate
		t.Fatal(err)
	}
	warm, _, err := cached.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := plain.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, warm)
}

// TestCacheInvalidationOnRetile asserts a cached decode of the old layout
// is never served after RetileSOT: the next scan decodes fresh tiles, and
// repeated scans then agree with it.
func TestCacheInvalidationOnRetile(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 64<<20, 2)
	// Query confined to SOT 1 (frames 10..20).
	q := mustQuery(t, "SELECT car FROM traffic WHERE 10 <= t < 20")
	if _, _, err := m.ScanContext(ctx, q); err != nil { // cache old-layout decodes
		t.Fatal(err)
	}
	meta, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.Uniform(2, 2, m.Config().Constraints(meta.W, meta.H))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.RetileSOTContext(ctx, "traffic", 1, l); err != nil {
		t.Fatal(err)
	}

	first, fs, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if fs.CacheHits != 0 {
		t.Fatalf("scan after retile served %d stale cache hits", fs.CacheHits)
	}
	if fs.TilesDecoded == 0 {
		t.Fatal("scan after retile decoded nothing")
	}
	second, ss, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if ss.CacheHits == 0 {
		t.Fatal("second scan after retile did not warm")
	}
	sameResults(t, first, second)
}

// TestDeleteVideoDropsCache asserts DeleteVideo removes both the files and
// the cached decodes.
func TestDeleteVideoDropsCache(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 64<<20, 1)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 20")
	if _, _, err := m.ScanContext(ctx, q); err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Entries == 0 {
		t.Fatal("scan did not populate cache")
	}
	if err := m.DeleteVideo("traffic"); err != nil {
		t.Fatal(err)
	}
	if st := m.CacheStats(); st.Entries != 0 {
		t.Fatalf("cache still holds %d entries after DeleteVideo", st.Entries)
	}
	if _, _, err := m.ScanContext(ctx, q); err == nil {
		t.Fatal("scan of deleted video succeeded")
	}
	// The semantic index is cleaned too: a re-ingest under the same name
	// must not be scanned with the deleted video's detections.
	if labels, err := m.Index().Labels("traffic"); err != nil || len(labels) != 0 {
		t.Fatalf("labels after delete = %v, %v", labels, err)
	}
	fresh := make([]*frame.Frame, 10)
	for i := range fresh {
		fresh[i] = frame.New(192, 96)
	}
	if _, err := m.IngestContext(ctx, "traffic", fresh, 10); err != nil {
		t.Fatal(err)
	}
	res, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("re-ingested video served %d stale regions", len(res))
	}
}

// TestIndexWritesNeedAStoredVideo: the three index-write entry points
// refuse a name the catalog does not hold. Accepted, such rows could
// never be removed (DeleteVideo refuses the name too) and the next
// ingest under that name would be scanned with them.
func TestIndexWritesNeedAStoredVideo(t *testing.T) {
	ctx := context.Background()
	m, err := Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	det := semindex.Detection{Frame: 1, Label: "car", Box: geom.R(10, 10, 40, 40)}
	for name, err := range map[string]error{
		"AddMetadata":   m.AddMetadata("ghost", 1, "car", 10, 10, 40, 40),
		"AddDetections": m.AddDetections("ghost", []semindex.Detection{det}),
		"MarkDetected":  m.MarkDetected("ghost", "car", 0, 5),
	} {
		if !errors.Is(err, tasmerr.ErrVideoNotFound) {
			t.Errorf("%s on a video never ingested: %v, want ErrVideoNotFound", name, err)
		}
	}
	if err := m.DeleteVideo("ghost"); !errors.Is(err, tasmerr.ErrVideoNotFound) {
		t.Fatalf("DeleteVideo(ghost) = %v", err)
	}
	fresh := make([]*frame.Frame, 10)
	for i := range fresh {
		fresh[i] = frame.New(192, 96)
	}
	if _, err := m.IngestContext(ctx, "ghost", fresh, 10); err != nil {
		t.Fatal(err)
	}
	res, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM ghost"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Fatalf("a fresh ingest inherited %d regions from pre-ingest detections", len(res))
	}
	if ok, err := m.Index().DetectedAll("ghost", "car", 0, 5); err != nil || ok {
		t.Fatalf("a fresh ingest inherited detector coverage (%v, %v)", ok, err)
	}
	if err := m.AddDetections("ghost", []semindex.Detection{det}); err != nil {
		t.Fatalf("AddDetections on the ingested video: %v", err)
	}
}

// TestCachedDecodeFramesMatchesUncached asserts the whole-frame decode path
// (detector input) is identical with and without the cache, warm and cold.
func TestCachedDecodeFramesMatchesUncached(t *testing.T) {
	ctx := context.Background()
	cached := newCachedManager(t, 64<<20, 2)
	plain, _ := newManager(t)
	ref, _, err := plain.DecodeFramesContext(ctx, "traffic", 3, 27)
	if err != nil {
		t.Fatal(err)
	}
	for pass := 0; pass < 2; pass++ {
		got, st, err := cached.DecodeFramesContext(ctx, "traffic", 3, 27)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(ref) {
			t.Fatalf("pass %d: %d frames, want %d", pass, len(got), len(ref))
		}
		for i := range got {
			if !bytes.Equal(got[i].Y, ref[i].Y) || !bytes.Equal(got[i].Cb, ref[i].Cb) || !bytes.Equal(got[i].Cr, ref[i].Cr) {
				t.Fatalf("pass %d: frame %d differs", pass, i)
			}
		}
		if pass == 1 && st.CacheHits == 0 {
			t.Fatalf("second DecodeFrames did not hit cache: %+v", st)
		}
	}
}

// TestConcurrentCachedScans hammers the cached, parallel scan path from
// many goroutines while a re-tile commits concurrently — no phase
// serialization; run with -race. Each scan pins its catalog snapshot with
// a store lease (MVCC version dirs), so every result must be
// byte-identical to either the pre-retile or the post-retile
// single-threaded reference.
func TestConcurrentCachedScans(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 32<<20, 4)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")

	ref0, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref0) == 0 {
		t.Fatal("no reference results")
	}
	meta, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	l, err := layout.Uniform(1, 2, m.Config().Constraints(meta.W, meta.H))
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	var mu sync.Mutex
	var results [][]RegionResult
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				res, _, err := m.ScanContext(ctx, q)
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				results = append(results, res)
				mu.Unlock()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := m.RetileSOTContext(ctx, "traffic", 0, l); err != nil {
			errs <- err
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// The post-retile reference is computable after the fact: decoding is
	// deterministic and the cache is keyed by (SOT, retile count).
	ref1, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	refs := [][]RegionResult{ref0, ref1}
	for i, res := range results {
		if !matchesAnyResult(res, refs) {
			t.Fatalf("concurrent scan %d (%d regions) matches neither the pre- nor post-retile reference", i, len(res))
		}
	}
}
