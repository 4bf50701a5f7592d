package core

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// encodeScene renders the 192x96, 10 fps clip the encode tests write; at
// 3 seconds it is three 10-frame SOTs under testConfig.
func encodeScene(tb testing.TB, seconds int) *scene.Video {
	tb.Helper()
	v, err := scene.Generate(scene.Spec{
		Name: "enc", W: 192, H: 96, FPS: 10, DurationSec: seconds,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.3},
		},
		Seed: 77,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return v
}

// tiledLayouts gives each of the clip's three SOTs a different layout:
// non-uniform 2x3, untiled, and uniform 2x2.
func tiledLayouts() []layout.Layout {
	return []layout.Layout{
		{RowHeights: []int{32, 64}, ColWidths: []int{48, 64, 80}},
		layout.Single(192, 96),
		{RowHeights: []int{48, 48}, ColWidths: []int{96, 96}},
	}
}

func indexTruth(t *testing.T, m *Manager, video string, v *scene.Video, n int) {
	t.Helper()
	for f := 0; f < n; f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata(video, f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// storedVideo is what a video's encode produced: a hash over every tile's
// bytes, its stored size, and a hash over a car scan's answer.
type storedVideo struct {
	tiles string
	bytes int64
	scan  string
}

func digestVideo(t *testing.T, m *Manager, video string) storedVideo {
	t.Helper()
	ctx := context.Background()
	meta, lease, err := m.Store().Snapshot(video)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	th := sha256.New()
	for _, sot := range meta.SOTs {
		tiles, err := lease.ReadAllTiles(ctx, sot)
		if err != nil {
			t.Fatal(err)
		}
		for _, tv := range tiles {
			th.Write(tv.Bytes())
		}
	}
	n, err := m.VideoBytes(video)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM "+video))
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatalf("%s: car scan returned nothing", video)
	}
	sh := sha256.New()
	for _, r := range res {
		fmt.Fprintf(sh, "%d %v\n", r.Frame, r.Region)
		sh.Write(r.Pixels.Y)
		sh.Write(r.Pixels.Cb)
		sh.Write(r.Pixels.Cr)
	}
	return storedVideo{tiles: fmt.Sprintf("%x", th.Sum(nil)), bytes: n, scan: fmt.Sprintf("%x", sh.Sum(nil))}
}

// TestParallelEncodeByteIdentical is the fan-out's correctness guard:
// untiled ingest, tiled ingest, a KQKO re-tile and a multi-GOP append
// store the same bytes and answer scans identically at every
// parallelism, on more than one CPU.
func TestParallelEncodeByteIdentical(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	ctx := context.Background()
	v := encodeScene(t, 3)
	frames := v.Frames(0, v.Spec.NumFrames())

	run := func(parallelism int) map[string]storedVideo {
		cfg := testConfig()
		cfg.Parallelism = parallelism
		m, err := Open(t.TempDir(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		if _, err := m.IngestContext(ctx, "plain", frames, 10); err != nil {
			t.Fatal(err)
		}
		if _, err := m.IngestTiledContext(ctx, "tiled", frames, 10, tiledLayouts()); err != nil {
			t.Fatal(err)
		}
		if err := m.CreateLiveVideo("cam", 192, 96, 10, nil); err != nil {
			t.Fatal(err)
		}
		if st, err := m.AppendGOPContext(ctx, "cam", frames[:25]); err != nil || st.SOTs != 3 {
			t.Fatalf("append: %+v, %v", st, err)
		}
		for _, name := range []string{"plain", "tiled", "cam"} {
			indexTruth(t, m, name, v, 25)
		}
		boxes, err := m.Index().LookupBoxes("plain", "car", 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		kqko, err := layout.Partition(boxes, layout.Fine, cfg.Constraints(192, 96))
		if err != nil || kqko.NumTiles() < 2 {
			t.Fatalf("KQKO layout %v (err %v) is not multi-tile", kqko, err)
		}
		if _, err := m.RetileSOTContext(ctx, "plain", 0, kqko); err != nil {
			t.Fatal(err)
		}
		out := map[string]storedVideo{}
		for _, name := range []string{"plain", "tiled", "cam"} {
			out[name] = digestVideo(t, m, name)
		}
		return out
	}

	ref := run(1)
	for _, p := range []int{2, 4} {
		got := run(p)
		for name, want := range ref {
			if got[name] != want {
				t.Errorf("Parallelism %d: %s stored %+v, Parallelism 1 stored %+v", p, name, got[name], want)
			}
		}
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// n+1st call on, so a cancellation lands at the same point of the work
// however the jobs are scheduled.
type cancelAfter struct {
	context.Context
	left atomic.Int64
}

func newCancelAfter(n int64) *cancelAfter {
	c := &cancelAfter{Context: context.Background()}
	c.left.Store(n)
	return c
}

func (c *cancelAfter) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// errCalls counts the Err calls op makes on a context that never ends.
func errCalls(op func(ctx context.Context) error) (int64, error) {
	const budget = 1 << 40
	c := newCancelAfter(budget)
	err := op(c)
	return budget - c.left.Load(), err
}

// settleGoroutines waits for the goroutine count to return to base.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after cancelled fan-out, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelEncodeCancel is the cancellation contract under fan-out: at
// every cancellation point an ingest stores nothing and a re-tile commits
// nothing, the error wraps context.Canceled, the store stays consistent
// and no worker outlives the call.
func TestParallelEncodeCancel(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	cfg := testConfig()
	cfg.Parallelism = 4
	m, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	// The twin store counts the re-tile's checks, so the probe video on m
	// keeps its layout.
	twin, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer twin.Close()
	v := encodeScene(t, 3)
	frames := v.Frames(0, v.Spec.NumFrames())
	if _, err := twin.IngestTiledContext(context.Background(), "probe", frames, 10, tiledLayouts()); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()

	ingest := func(name string) func(ctx context.Context) error {
		return func(ctx context.Context) error {
			_, err := m.IngestTiledContext(ctx, name, frames, 10, tiledLayouts())
			return err
		}
	}
	total, err := errCalls(ingest("probe"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int64{0, 1, total / 3, total / 2, total - 2, total - 1} {
		name := fmt.Sprintf("cancelled-%d", n)
		if err := ingest(name)(newCancelAfter(n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("ingest cancelled after %d of %d checks: %v, want context.Canceled", n, total, err)
		}
		if _, err := m.Meta(name); !errors.Is(err, tasmerr.ErrVideoNotFound) {
			t.Fatalf("ingest cancelled after %d checks left a catalog entry (err %v)", n, err)
		}
		settleGoroutines(t, base)
	}
	if rep, err := m.Store().GC(); err != nil || len(rep.Removed) != 0 {
		t.Fatalf("cancelled ingests left debris: %v (err %v)", rep.Removed, err)
	}

	before, err := m.Meta("probe")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := layout.Uniform(2, 2, cfg.Constraints(192, 96))
	if err != nil {
		t.Fatal(err)
	}
	retile := func(ctx context.Context) error {
		_, err := m.RetileSOTContext(ctx, "probe", 1, l2)
		return err
	}
	total, err = errCalls(func(ctx context.Context) error {
		_, err := twin.RetileSOTContext(ctx, "probe", 1, l2)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// The encode runs last, so the final checks cancel it mid-fan-out.
	for _, n := range []int64{0, total / 2, total - 8, total - 2, total - 1} {
		if err := retile(newCancelAfter(n)); !errors.Is(err, context.Canceled) {
			t.Fatalf("retile cancelled after %d of %d checks: %v, want context.Canceled", n, total, err)
		}
		after, err := m.Meta("probe")
		if err != nil {
			t.Fatal(err)
		}
		if !after.SOTs[1].L.Equal(before.SOTs[1].L) || after.SOTs[1].Retiles != before.SOTs[1].Retiles {
			t.Fatalf("retile cancelled after %d checks changed the live layout", n)
		}
		settleGoroutines(t, base)
	}
	fr, err := m.Store().FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK() || fr.Leases != 0 {
		t.Fatalf("store inconsistent after cancelled encodes: %+v", fr)
	}
}

// TestEncodeSOTsLowestIndexError asserts that when several jobs fail the
// reported error is the lowest (SOT, tile) index's, even when a later job
// fails first: SOT 2's layout mismatch fails at once, SOT 1 only at its
// sixth frame.
func TestEncodeSOTsLowestIndexError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(4, runtime.GOMAXPROCS(0))))
	cfg := testConfig()
	cfg.Parallelism = 4
	m, err := Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	frames := encodeScene(t, 3).Frames(0, 30)
	bad := append([]*frame.Frame(nil), frames[10:20]...)
	bad[5] = frame.New(96, 96)
	chunks := [][]*frame.Frame{frames[:10], bad, frames[20:]}
	layouts := []layout.Layout{
		tiledLayouts()[0],
		layout.Single(192, 96),
		{RowHeights: []int{48, 48}, ColWidths: []int{64, 64}},
	}
	for i := 0; i < 5; i++ {
		_, err := m.encodeSOTs(context.Background(), chunks, layouts, 10)
		if err == nil || !strings.Contains(err.Error(), "SOT 1: container: tile 0 frame 5") {
			t.Fatalf("err = %v, want SOT 1 tile 0's frame-5 failure", err)
		}
	}
}

// BenchmarkIngest measures an untiled ingest of a 12-SOT clip, whose SOT
// encodes fan out over Parallelism.
func BenchmarkIngest(b *testing.B) {
	ctx := context.Background()
	frames := encodeScene(b, 6).Frames(0, 60)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := testConfig()
			cfg.Codec.GOPLength = 5
			cfg.Parallelism = p
			m, err := Open(b.TempDir(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.IngestContext(ctx, "v", frames, 10); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if err := m.DeleteVideo("v"); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRetileSOT measures re-tiling one 10-frame SOT, alternating
// between two multi-tile layouts so every iteration decodes and encodes.
func BenchmarkRetileSOT(b *testing.B) {
	ctx := context.Background()
	frames := encodeScene(b, 3).Frames(0, 30)
	for _, p := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			cfg := testConfig()
			cfg.Parallelism = p
			m, err := Open(b.TempDir(), cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer m.Close()
			if _, err := m.IngestContext(ctx, "v", frames, 10); err != nil {
				b.Fatal(err)
			}
			ls := tiledLayouts()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.RetileSOTContext(ctx, "v", 0, ls[2*(i%2)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
