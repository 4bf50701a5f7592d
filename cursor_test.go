package tasm_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/scene"
)

func newAPIManager(t *testing.T) *tasm.StorageManager {
	t.Helper()
	sm, err := tasm.Open(t.TempDir(), tasm.WithGOPLength(10), tasm.WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 3,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.18}},
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.IngestContext(context.Background(), "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := sm.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return sm
}

// TestPublicCursorStreamsScan drives the exported streaming API end to
// end: ScanSQLCursor yields the exact regions ScanSQL materializes, in
// the same order, with working Close-after-drain semantics.
func TestPublicCursorStreamsScan(t *testing.T) {
	ctx := context.Background()
	sm := newAPIManager(t)
	const sql = "SELECT car FROM traffic WHERE 0 <= t < 30"
	ref, _, err := sm.ScanSQLContext(ctx, sql)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no reference results")
	}
	cur, err := sm.ScanSQLCursor(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	i := 0
	for cur.Next() {
		r := cur.Result()
		if i >= len(ref) {
			t.Fatalf("cursor yielded more than %d regions", len(ref))
		}
		if r.Frame != ref[i].Frame || r.Region != ref[i].Region || !bytes.Equal(r.Pixels.Y, ref[i].Pixels.Y) {
			t.Fatalf("region %d differs from ScanSQL", i)
		}
		i++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("cursor yielded %d regions, ScanSQL returned %d", i, len(ref))
	}
	if st := cur.Stats(); st.RegionsReturned != len(ref) {
		t.Fatalf("cursor stats RegionsReturned = %d, want %d", st.RegionsReturned, len(ref))
	}
}

// TestPublicFrameCursor streams whole frames through the exported API.
func TestPublicFrameCursor(t *testing.T) {
	ctx := context.Background()
	sm := newAPIManager(t)
	ref, _, err := sm.DecodeFramesContext(ctx, "traffic", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := sm.DecodeFramesCursor(context.Background(), "traffic", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	n := 0
	for cur.Next() {
		fr := cur.Result()
		if fr.Index != n || !bytes.Equal(fr.Pixels.Y, ref[n].Y) {
			t.Fatalf("streamed frame %d (index %d) differs", n, fr.Index)
		}
		n++
	}
	if err := cur.Err(); err != nil || n != len(ref) {
		t.Fatalf("drained %d frames (err %v), want %d", n, err, len(ref))
	}
}

// TestPublicErrorTaxonomy asserts the exported sentinels classify
// failures surfaced through the public API.
func TestPublicErrorTaxonomy(t *testing.T) {
	sm := newAPIManager(t)
	if _, _, err := sm.ScanSQLContext(context.Background(), "SELECT car FROM nosuch"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Errorf("missing video: %v, want tasm.ErrVideoNotFound", err)
	}
	if _, _, err := sm.ScanSQLContext(context.Background(), "SELECT car FROM traffic WHERE 50 <= t < 60"); !errors.Is(err, tasm.ErrInvalidRange) {
		t.Errorf("bad range: %v, want tasm.ErrInvalidRange", err)
	}
	if _, err := sm.DesignLayout("traffic", 99, []string{"car"}); !errors.Is(err, tasm.ErrSOTNotFound) {
		t.Errorf("missing SOT: %v, want tasm.ErrSOTNotFound", err)
	}
	if _, err := sm.IngestContext(context.Background(), "traffic", nil, 10); !errors.Is(err, tasm.ErrNoFrames) {
		t.Errorf("empty ingest: %v, want tasm.ErrNoFrames", err)
	}
	if err := sm.DeleteVideo("nosuch"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Errorf("missing delete: %v, want tasm.ErrVideoNotFound", err)
	}

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := sm.DecodeFramesContext(ctx, "traffic", 0, 30); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: %v, want context.DeadlineExceeded", err)
	}
}

// TestPublicCursorCancel cancels a streaming scan mid-flight through the
// public API and asserts the GC sees no lingering leases.
func TestPublicCursorCancel(t *testing.T) {
	sm := newAPIManager(t)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := sm.ScanSQLCursor(ctx, "SELECT car FROM traffic WHERE 0 <= t < 30")
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first result: %v", cur.Err())
	}
	cancel()
	for cur.Next() {
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", err)
	}
	rep, err := sm.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 0 {
		t.Fatalf("GC defers after cancelled cursor: %v", rep.Deferred)
	}
}
