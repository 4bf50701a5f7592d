package tasm

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/scene"
)

// TestLifecycleAcrossRestart exercises the full storage-manager lifecycle —
// ingest, detect, query, adapt, restart, query again — verifying that tile
// layouts, the semantic index, and detection coverage all persist.
func TestLifecycleAcrossRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v, err := scene.Generate(scene.Spec{
		Name: "cam", W: 192, H: 96, FPS: 10, DurationSec: 4,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.15},
			{Class: scene.Person, Count: 2, SizeFrac: 0.2},
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := v.Spec.NumFrames()

	// Session 1: ingest, detect, query, adapt.
	sm, err := Open(dir, WithGOPLength(10), WithMinTileSize(32, 32), WithAdaptiveTiling(), WithEta(0))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sm.IngestContext(ctx, "cam", v.Frames(0, n), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	det := &detect.Oracle{Lat: detect.DefaultLatencies()}
	ds, _ := detect.Run(det, v, 0, n)
	if err := sm.AddDetections("cam", ds); err != nil {
		t.Fatal(err)
	}
	if err := sm.MarkDetected("cam", scene.Car, 0, n); err != nil {
		t.Fatal(err)
	}
	res1, st1, err := sm.ScanSQLContext(ctx, "SELECT car FROM cam WHERE 0 <= t < 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res1) == 0 {
		t.Fatal("no results in session 1")
	}
	if _, err := sm.AutotileKick(context.Background()); err != nil {
		t.Fatal(err)
	}
	meta, _ := sm.Meta("cam")
	tiledBefore := 0
	for _, sot := range meta.SOTs {
		if !sot.L.IsSingle() {
			tiledBefore++
		}
	}
	if tiledBefore == 0 {
		t.Fatal("adaptive tiling (eta=0) did not tile anything")
	}
	if err := sm.Close(); err != nil {
		t.Fatal(err)
	}

	// Session 2: reopen, verify everything survived.
	sm2, err := Open(dir, WithGOPLength(10), WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer sm2.Close()
	meta2, err := sm2.Meta("cam")
	if err != nil {
		t.Fatal(err)
	}
	tiledAfter := 0
	for i, sot := range meta2.SOTs {
		if !sot.L.Equal(meta.SOTs[i].L) {
			t.Errorf("SOT %d layout changed across restart", i)
		}
		if !sot.L.IsSingle() {
			tiledAfter++
		}
	}
	if tiledAfter != tiledBefore {
		t.Errorf("tiled SOTs %d -> %d across restart", tiledBefore, tiledAfter)
	}
	covered, err := sm2.Detected("cam", scene.Car, 0, n)
	if err != nil || !covered {
		t.Errorf("detection coverage lost: %v %v", covered, err)
	}
	cars, err := sm2.LookupDetections("cam", "car", 0, n)
	if err != nil || len(cars) == 0 {
		t.Errorf("detections lost: %d %v", len(cars), err)
	}
	res2, st2, err := sm2.ScanSQLContext(ctx, "SELECT car FROM cam WHERE 0 <= t < 20")
	if err != nil {
		t.Fatal(err)
	}
	if len(res2) != len(res1) {
		t.Errorf("results differ across restart: %d vs %d", len(res2), len(res1))
	}
	// The reopened store answers from the tiled layout: no more pixels
	// than the adapted session needed.
	if st2.PixelsDecoded > st1.PixelsDecoded {
		t.Errorf("restart lost tiling benefit: %d > %d pixels", st2.PixelsDecoded, st1.PixelsDecoded)
	}
}

// TestUncleanExitKeepsDetections: index writes acknowledged by a storage
// manager that is never closed — a killed process — are all there when
// the directory is opened again.
func TestUncleanExitKeepsDetections(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	v, err := scene.Generate(scene.Spec{
		Name: "cam", W: 96, H: 64, FPS: 10, DurationSec: 2,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.2}},
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := v.Spec.NumFrames()
	sm, err := Open(dir, WithGOPLength(10))
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close() // only after the second open has checked everything
	if _, err := sm.IngestContext(ctx, "cam", v.Frames(0, n), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	ds, _ := detect.Run(&detect.Oracle{Lat: detect.DefaultLatencies()}, v, 0, n)
	if err := sm.AddDetections("cam", ds); err != nil {
		t.Fatal(err)
	}
	if err := sm.MarkDetected("cam", scene.Car, 0, n/2); err != nil {
		t.Fatal(err)
	}
	acked, err := sm.LookupDetections("cam", scene.Car, 0, n)
	if err != nil || len(acked) == 0 {
		t.Fatalf("acknowledged detections: %d, %v", len(acked), err)
	}

	sm2, err := Open(dir, WithGOPLength(10), WithForceOpen())
	if err != nil {
		t.Fatal(err)
	}
	defer sm2.Close()
	got, err := sm2.LookupDetections("cam", scene.Car, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(acked) {
		t.Fatalf("reopened without Close: %d detections, want the %d acknowledged", len(got), len(acked))
	}
	for i := range got {
		if got[i] != acked[i] {
			t.Fatalf("detection %d: %+v, want %+v", i, got[i], acked[i])
		}
	}
	for _, r := range []struct {
		from, to int
		want     bool
	}{{0, n / 2, true}, {0, n, false}} {
		if ok, err := sm2.Detected("cam", scene.Car, r.from, r.to); err != nil || ok != r.want {
			t.Errorf("Detected [%d, %d) = %v, %v; want %v", r.from, r.to, ok, err, r.want)
		}
	}
}

// TestTwoVideosIndependent verifies per-video isolation of layouts, index
// entries, and storage.
func TestTwoVideosIndependent(t *testing.T) {
	ctx := context.Background()
	sm, err := Open(t.TempDir(), WithGOPLength(10), WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	for i, name := range []string{"east", "west"} {
		v, _ := scene.Generate(scene.Spec{
			Name: name, W: 192, H: 96, FPS: 10, DurationSec: 2,
			Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.15}},
			Seed:    uint64(i + 10),
		})
		if _, err := sm.IngestContext(ctx, name, v.Frames(0, 20), 10); err != nil {
			t.Fatal(err)
		}
		for f := 0; f < 20; f++ {
			for _, tr := range v.GroundTruth(f) {
				sm.AddMetadata(name, f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1)
			}
		}
	}
	// Retile only east.
	l, err := sm.DesignLayout("east", 0, []string{"car"})
	if err != nil {
		t.Fatal(err)
	}
	if !l.IsSingle() {
		if _, err := sm.RetileSOTContext(ctx, "east", 0, l); err != nil {
			t.Fatal(err)
		}
	}
	westMeta, _ := sm.Meta("west")
	for _, sot := range westMeta.SOTs {
		if !sot.L.IsSingle() {
			t.Error("west was retiled by east's operation")
		}
	}
	videos, _ := sm.Videos()
	if len(videos) != 2 {
		t.Errorf("videos = %v", videos)
	}
}

// TestManifestCorruptionSurfaces verifies that a corrupted catalog is
// reported as an error rather than silently misread.
func TestManifestCorruptionSurfaces(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	sm, err := Open(dir, WithGOPLength(10), WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	v, _ := scene.Generate(scene.Spec{
		Name: "cam", W: 192, H: 96, FPS: 10, DurationSec: 1,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 1, SizeFrac: 0.15}},
		Seed:    4,
	})
	if _, err := sm.IngestContext(ctx, "cam", v.Frames(0, 10), 10); err != nil {
		t.Fatal(err)
	}
	sm.Close()

	manifest := filepath.Join(dir, "tiles", "cam", "manifest.json")
	if err := os.WriteFile(manifest, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	sm2, err := Open(dir, WithGOPLength(10), WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	defer sm2.Close()
	if _, err := sm2.Meta("cam"); err == nil {
		t.Error("corrupt manifest read without error")
	}
	if _, _, err := sm2.ScanSQLContext(ctx, "SELECT car FROM cam"); err == nil {
		t.Error("scan over corrupt manifest succeeded")
	}
}
