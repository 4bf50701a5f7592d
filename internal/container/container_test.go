package container

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

// makeFrames builds n deterministic frames with a moving bright square.
func makeFrames(w, h, n int) []*frame.Frame {
	out := make([]*frame.Frame, n)
	for i := range out {
		f := frame.New(w, h)
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				f.Y[y*w+x] = byte((x + y + i) % 180)
			}
		}
		for j := range f.Cb {
			f.Cb[j] = 120
			f.Cr[j] = 130
		}
		f.FillRect(geom.R(4+2*i, 4+i, 4+2*i+16, 4+i+16), 250, 60, 200)
		out[i] = f
	}
	return out
}

func testParams() vcodec.Params {
	p := vcodec.DefaultParams()
	p.GOPLength = 5
	return p
}

func TestEncodeParseRoundTrip(t *testing.T) {
	frames := makeFrames(64, 48, 12)
	v, err := EncodeVideo(frames, 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if v.FrameCount() != 12 {
		t.Fatalf("FrameCount = %d", v.FrameCount())
	}
	data := v.Bytes()
	if int64(len(data)) != v.SizeBytes() {
		t.Errorf("SizeBytes = %d, serialized = %d", v.SizeBytes(), len(data))
	}
	got, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 64 || got.H != 48 || got.FPS != 30 || got.GOPLength != 5 || got.FrameCount() != 12 {
		t.Errorf("parsed header mismatch: %+v", got)
	}
	for i := 0; i < 12; i++ {
		if got.IsKey(i) != (i%5 == 0) {
			t.Errorf("frame %d key flag wrong", i)
		}
		a, b := v.Packet(i), got.Packet(i)
		if len(a) != len(b) {
			t.Fatalf("packet %d length mismatch", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("packet %d byte mismatch", i)
			}
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	if _, err := Parse([]byte("not a video")); err == nil {
		t.Error("garbage parsed")
	}
	if _, err := Parse(nil); err == nil {
		t.Error("nil parsed")
	}
	v, _ := EncodeVideo(makeFrames(32, 32, 3), 30, testParams())
	data := v.Bytes()
	if _, err := Parse(data[:25]); err == nil {
		t.Error("truncated stream parsed")
	}
}

func TestKeyframeBefore(t *testing.T) {
	v, _ := EncodeVideo(makeFrames(32, 32, 12), 30, testParams())
	cases := []struct{ in, want int }{{0, 0}, {3, 0}, {5, 5}, {7, 5}, {11, 10}}
	for _, tc := range cases {
		if got := v.KeyframeBefore(tc.in); got != tc.want {
			t.Errorf("KeyframeBefore(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestDecodeRange(t *testing.T) {
	frames := makeFrames(64, 48, 12)
	v, _ := EncodeVideo(frames, 30, testParams())
	got, st, err := v.DecodeRange(6, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("got %d frames, want 3", len(got))
	}
	// Warm-up from keyframe 5: frames 5..8 decoded = 4.
	if st.FramesDecoded != 4 {
		t.Errorf("FramesDecoded = %d, want 4 (keyframe warm-up)", st.FramesDecoded)
	}
	for i, f := range got {
		if psnr := frame.PSNR(frames[6+i], f); psnr < 30 {
			t.Errorf("frame %d PSNR = %.1f", 6+i, psnr)
		}
	}
	if _, _, err := v.DecodeRange(9, 6); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := v.DecodeRange(0, 100); err == nil {
		t.Error("overlong range accepted")
	}
}

func TestSaveOpen(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "v.tsv")
	v, _ := EncodeVideo(makeFrames(32, 32, 4), 30, testParams())
	if err := v.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.FrameCount() != 4 {
		t.Errorf("FrameCount = %d", got.FrameCount())
	}
	if _, err := Open(filepath.Join(dir, "missing.tsv")); err == nil {
		t.Error("missing file opened")
	}
	if err := os.WriteFile(path, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Error("corrupt file opened")
	}
}

func TestEncodeTiledDimsAndDecode(t *testing.T) {
	w, h := 128, 96
	frames := makeFrames(w, h, 6)
	c := layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
	l, err := layout.Uniform(2, 2, c)
	if err != nil {
		t.Fatal(err)
	}
	tiles, err := EncodeTiled(frames, l, 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(tiles) != 4 {
		t.Fatalf("got %d tiles", len(tiles))
	}
	for i, tv := range tiles {
		r := l.TileRectByIndex(i)
		if tv.W != r.Width() || tv.H != r.Height() {
			t.Errorf("tile %d dims %dx%d, want %dx%d", i, tv.W, tv.H, r.Width(), r.Height())
		}
		if tv.FrameCount() != 6 {
			t.Errorf("tile %d frames = %d", i, tv.FrameCount())
		}
		// Each tile decodes independently and matches the cropped source.
		got, _, err := tv.DecodeRange(0, 6)
		if err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
		for fi, f := range got {
			src := frames[fi].Crop(r)
			if psnr := frame.PSNR(src, f); psnr < 28 {
				t.Errorf("tile %d frame %d PSNR = %.1f", i, fi, psnr)
			}
		}
	}
}

func TestEncodeTiledValidation(t *testing.T) {
	if _, err := EncodeTiled(nil, layout.Single(64, 64), 30, testParams()); err == nil {
		t.Error("no frames accepted")
	}
	frames := makeFrames(64, 48, 2)
	if _, err := EncodeTiled(frames, layout.Single(128, 128), 30, testParams()); err == nil {
		t.Error("mismatched layout accepted")
	}
}

// TestEncodeGolden pins the encoded bytes of an untiled and a non-uniform
// tiled encode, so the shared per-tile loop cannot drift the bitstream.
func TestEncodeGolden(t *testing.T) {
	v, err := EncodeVideo(makeFrames(64, 48, 12), 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(v.Bytes())); got != "69e2226f1c7154238f1eac5dae481614870024e1dfccffb786c456f4e616f2aa" {
		t.Errorf("EncodeVideo sha256 = %s", got)
	}
	l := layout.Layout{RowHeights: []int{32, 64}, ColWidths: []int{48, 32, 48}}
	tiles, err := EncodeTiled(makeFrames(128, 96, 7), l, 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, tv := range tiles {
		h.Write(tv.Bytes())
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != "05ca4d62101c4c8c8397282d384b39685f83cee26cd9bc5f35a8765490953e27" {
		t.Errorf("EncodeTiled sha256 = %s", got)
	}
}

// TestEncodeTiledIsEncodeTilePerTile asserts the serial tiled encode is
// exactly EncodeTile applied to each tile, and that EncodeTile stops on a
// cancelled context with an error wrapping it.
func TestEncodeTiledIsEncodeTilePerTile(t *testing.T) {
	ctx := context.Background()
	frames := makeFrames(128, 96, 7)
	l := layout.Layout{RowHeights: []int{32, 64}, ColWidths: []int{48, 32, 48}}
	tiles, err := EncodeTiledContext(ctx, frames, l, 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	for ti, tv := range tiles {
		one, err := EncodeTile(ctx, frames, l, ti, 30, testParams())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(one.Bytes(), tv.Bytes()) {
			t.Errorf("tile %d: EncodeTile bytes differ from EncodeTiledContext", ti)
		}
	}
	cctx, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := EncodeTile(cctx, frames, l, 0, 30, testParams()); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled EncodeTile: %v, want context.Canceled", err)
	}
}

func TestStitchRoundTrip(t *testing.T) {
	w, h := 128, 96
	frames := makeFrames(w, h, 6)
	c := layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
	l, _ := layout.Uniform(2, 2, c)
	tiles, err := EncodeTiled(frames, l, 30, testParams())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Stitch(l, tiles)
	if err != nil {
		t.Fatal(err)
	}
	if s.FrameCount() != 6 {
		t.Errorf("FrameCount = %d", s.FrameCount())
	}
	// Serialize / reparse: homomorphic — tile bitstreams unchanged.
	got, err := ParseStitched(s.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Layout.Equal(l) {
		t.Error("layout did not round trip")
	}
	for i := range tiles {
		a, b := tiles[i].Bytes(), got.Tiles[i].Bytes()
		if len(a) != len(b) {
			t.Fatalf("tile %d bitstream length changed: %d vs %d", i, len(a), len(b))
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("tile %d bitstream modified at byte %d", i, j)
			}
		}
	}
	// Decoded stitched frames reassemble the full picture.
	full, st, err := got.DecodeRange(0, 6)
	if err != nil {
		t.Fatal(err)
	}
	if st.FramesDecoded != 24 { // 4 tiles x 6 frames
		t.Errorf("FramesDecoded = %d, want 24", st.FramesDecoded)
	}
	for i, f := range full {
		if f.W != w || f.H != h {
			t.Fatalf("stitched frame dims %dx%d", f.W, f.H)
		}
		if psnr := frame.PSNR(frames[i], f); psnr < 28 {
			t.Errorf("stitched frame %d PSNR = %.1f", i, psnr)
		}
	}
}

func TestStitchValidation(t *testing.T) {
	w, h := 128, 96
	frames := makeFrames(w, h, 4)
	c := layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
	l, _ := layout.Uniform(2, 2, c)
	tiles, _ := EncodeTiled(frames, l, 30, testParams())
	if _, err := Stitch(l, tiles[:3]); err == nil {
		t.Error("wrong tile count accepted")
	}
	// Swap two tiles of different sizes if dims differ; otherwise corrupt one.
	bad := make([]*Video, 4)
	copy(bad, tiles)
	bad[0] = tiles[3]
	wrong, _ := EncodeVideo(makeFrames(32, 32, 4), 30, testParams())
	bad[0] = wrong
	if _, err := Stitch(l, bad); err == nil {
		t.Error("mismatched tile dims accepted")
	}
	short, _ := EncodeVideo(makeFrames(tiles[0].W, tiles[0].H, 2), 30, testParams())
	bad[0] = short
	if _, err := Stitch(l, bad); err == nil {
		t.Error("mismatched frame count accepted")
	}
}

func TestParseStitchedRejectsGarbage(t *testing.T) {
	if _, err := ParseStitched([]byte("nope")); err == nil {
		t.Error("garbage parsed as stitched")
	}
	w, h := 128, 96
	frames := makeFrames(w, h, 2)
	c := layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
	l, _ := layout.Uniform(2, 2, c)
	tiles, _ := EncodeTiled(frames, l, 30, testParams())
	s, _ := Stitch(l, tiles)
	data := s.Bytes()
	if _, err := ParseStitched(data[:len(data)/2]); err == nil {
		t.Error("truncated stitched parsed")
	}
}

func TestTiledSmallerQueryDecode(t *testing.T) {
	// Decoding one tile should report ~1/4 the pixels of the full frame:
	// the mechanism behind every speedup in the paper.
	w, h := 128, 128
	frames := makeFrames(w, h, 5)
	c := layout.Constraints{FrameW: w, FrameH: h, Align: 16, MinWidth: 32, MinHeight: 32}
	l, _ := layout.Uniform(2, 2, c)
	tiles, _ := EncodeTiled(frames, l, 30, testParams())
	_, stTile, err := tiles[0].DecodeRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := EncodeVideo(frames, 30, testParams())
	_, stFull, err := full.DecodeRange(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if stTile.PixelsDecoded*4 != stFull.PixelsDecoded {
		t.Errorf("tile pixels %d * 4 != full pixels %d", stTile.PixelsDecoded, stFull.PixelsDecoded)
	}
}
