package tilestore

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

func makeFrames(w, h, n, shift int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		f := frame.New(w, h)
		f.Fill(byte(40+i), 128, 128)
		f.FillRect(geom.R(shift+2*i, 8, shift+2*i+20, 28), 220, 90, 170)
		out[i] = f
	}
	return out
}

func cons(w, h int) layout.Constraints {
	return layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
}

func params() vcodec.Params {
	p := vcodec.DefaultParams()
	p.GOPLength = 10
	return p
}

// buildVideo creates a 2-SOT test video: SOT 0 untiled, SOT 1 with a 2x2
// layout.
func buildVideo(t *testing.T, s *Store, name string) VideoMeta {
	t.Helper()
	w, h := 128, 96
	l22, err := layout.Uniform(2, 2, cons(w, h))
	if err != nil {
		t.Fatal(err)
	}
	meta := VideoMeta{
		Name: name, W: w, H: h, FPS: 10, GOPLength: 10, FrameCount: 20,
		SOTs: []SOTMeta{
			{ID: 0, From: 0, To: 10, L: layout.Single(w, h)},
			{ID: 1, From: 10, To: 20, L: l22},
		},
	}
	f0 := makeFrames(w, h, 10, 0)
	f1 := makeFrames(w, h, 10, 30)
	t0, err := container.EncodeTiled(f0, meta.SOTs[0].L, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	t1, err := container.EncodeTiled(f1, meta.SOTs[1].L, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateVideo(meta, [][]*container.Video{t0, t1}); err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestCreateAndMeta(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := buildVideo(t, s, "traffic")
	got, err := s.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "traffic" || got.FrameCount != 20 || len(got.SOTs) != 2 {
		t.Errorf("meta = %+v", got)
	}
	if !got.SOTs[1].L.Equal(meta.SOTs[1].L) {
		t.Error("layout did not round trip through manifest")
	}
	// Directory naming matches the paper's frames_a-b convention.
	if _, err := os.Stat(filepath.Join(s.Root(), "traffic", "frames_0-9", "tile0.tsv")); err != nil {
		t.Errorf("expected frames_0-9/tile0.tsv: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "traffic", "frames_10-19", "tile3.tsv")); err != nil {
		t.Errorf("expected frames_10-19/tile3.tsv: %v", err)
	}
}

func TestCreateDuplicateFails(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	w, h := 128, 96
	meta := VideoMeta{Name: "v", W: w, H: h, FPS: 10, GOPLength: 10, FrameCount: 10,
		SOTs: []SOTMeta{{ID: 0, From: 0, To: 10, L: layout.Single(w, h)}}}
	tiles, _ := container.EncodeTiled(makeFrames(w, h, 10, 0), meta.SOTs[0].L, 10, params())
	if err := s.CreateVideo(meta, [][]*container.Video{tiles}); err == nil {
		t.Error("duplicate create succeeded")
	}
}

func TestValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	if err := s.CreateVideo(VideoMeta{Name: "../evil"}, nil); err == nil {
		t.Error("path traversal accepted")
	}
	if err := s.CreateVideo(VideoMeta{Name: ""}, nil); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := s.Meta("absent"); err == nil {
		t.Error("absent video Meta succeeded")
	}
	if err := s.DeleteVideo("absent"); err == nil {
		t.Error("absent video Delete succeeded")
	}
}

func TestSOTLookups(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	if sot, ok := meta.SOTForFrame(5); !ok || sot.ID != 0 {
		t.Errorf("SOTForFrame(5) = %+v %v", sot, ok)
	}
	if sot, ok := meta.SOTForFrame(15); !ok || sot.ID != 1 {
		t.Errorf("SOTForFrame(15) = %+v %v", sot, ok)
	}
	if _, ok := meta.SOTForFrame(25); ok {
		t.Error("SOTForFrame past end succeeded")
	}
	if got := meta.SOTsInRange(5, 15); len(got) != 2 {
		t.Errorf("SOTsInRange(5,15) = %d SOTs", len(got))
	}
	if got := meta.SOTsInRange(0, 10); len(got) != 1 || got[0].ID != 0 {
		t.Errorf("SOTsInRange(0,10) = %+v", got)
	}
	if got := meta.SOTsInRange(20, 30); len(got) != 0 {
		t.Errorf("SOTsInRange past end = %+v", got)
	}
}

func TestReadTileAndDecode(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	sot := meta.SOTs[1]
	tv, err := s.ReadTile("v", sot, 0)
	if err != nil {
		t.Fatal(err)
	}
	r := sot.L.TileRectByIndex(0)
	if tv.W != r.Width() || tv.H != r.Height() {
		t.Errorf("tile dims %dx%d, want %dx%d", tv.W, tv.H, r.Width(), r.Height())
	}
	frames, _, err := tv.DecodeRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 5 {
		t.Errorf("decoded %d frames", len(frames))
	}
	if _, err := s.ReadTile("v", sot, 99); err == nil {
		t.Error("out-of-range tile read succeeded")
	}
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	all, err := lease.ReadAllTiles(context.Background(), sot)
	if err != nil || len(all) != 4 {
		t.Fatalf("ReadAllTiles: %d, %v", len(all), err)
	}
}

func TestReplaceSOT(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	w, h := meta.W, meta.H

	// Retile SOT 0 from ω to 2x2.
	l22, _ := layout.Uniform(2, 2, cons(w, h))
	newTiles, err := container.EncodeTiled(makeFrames(w, h, 10, 0), l22, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSOT("v", 0, l22, newTiles); err != nil {
		t.Fatal(err)
	}
	got, _ := s.Meta("v")
	if !got.SOTs[0].L.Equal(l22) {
		t.Error("manifest layout not updated")
	}
	if got.SOTs[0].Retiles != 1 {
		t.Errorf("Retiles = %d, want 1", got.SOTs[0].Retiles)
	}
	// New tiles readable from the new version dir; old version dir reaped
	// (no reader held a lease on it).
	if _, err := s.ReadTile("v", got.SOTs[0], 3); err != nil {
		t.Errorf("new tile unreadable: %v", err)
	}
	dir := filepath.Join(s.Root(), "v", "frames_0-9.r1")
	entries, _ := os.ReadDir(dir)
	tsv := 0
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tsv" {
			tsv++
		}
	}
	if tsv != 4 {
		t.Errorf("SOT version dir has %d tile files, want 4", tsv)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "v", "frames_0-9")); !os.IsNotExist(err) {
		t.Errorf("superseded version dir not reaped: %v", err)
	}
	if err := s.ReplaceSOT("v", 42, l22, newTiles); err == nil {
		t.Error("replace of absent SOT succeeded")
	}
	// Frame-count mismatch rejected.
	short, _ := container.EncodeTiled(makeFrames(w, h, 5, 0), l22, 10, params())
	if err := s.ReplaceSOT("v", 0, l22, short); err == nil {
		t.Error("short tiles accepted")
	}
}

func TestVideoBytes(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	n, err := s.VideoBytes("v")
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Errorf("VideoBytes = %d", n)
	}
	// Sum of individual files matches.
	var manual int64
	filepath.Walk(filepath.Join(s.Root(), "v"), func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && filepath.Ext(path) == ".tsv" {
			manual += info.Size()
		}
		return nil
	})
	if n != manual {
		t.Errorf("VideoBytes = %d, manual sum = %d", n, manual)
	}
}

func TestListAndDelete(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "b-video")
	buildVideo(t, s, "a-video")
	got, err := s.ListVideos()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a-video" || got[1] != "b-video" {
		t.Errorf("ListVideos = %v", got)
	}
	if err := s.DeleteVideo("a-video"); err != nil {
		t.Fatal(err)
	}
	got, _ = s.ListVideos()
	if len(got) != 1 || got[0] != "b-video" {
		t.Errorf("after delete: %v", got)
	}
}

func TestTileCountMismatchRejected(t *testing.T) {
	s, _ := Open(t.TempDir())
	w, h := 128, 96
	meta := VideoMeta{Name: "v", W: w, H: h, FPS: 10, GOPLength: 10, FrameCount: 10,
		SOTs: []SOTMeta{{ID: 0, From: 0, To: 10, L: layout.Single(w, h)}}}
	l22, _ := layout.Uniform(2, 2, cons(w, h))
	tiles, _ := container.EncodeTiled(makeFrames(w, h, 10, 0), l22, 10, params())
	// 4 tiles offered for a 1-tile layout.
	if err := s.CreateVideo(meta, [][]*container.Video{tiles}); err == nil {
		t.Error("tile count mismatch accepted")
	}
}
