package main

import (
	"fmt"
	"sort"

	"github.com/tasm-repro/tasm"
)

// Answer checking. Every timed operation is followed (outside its timed
// span) by a comparison against the scene's ground truth: which frames
// answer, which rectangles, and whether the pixels are the source's.
// A mismatch is a failed operation.

type wantRegion struct {
	frame int
	rect  tasm.Rect
}

// snapEven is the store's 4:2:0 rule restated independently: a returned
// region is the detection box grown outward to even coordinates.
func snapEven(r tasm.Rect) tasm.Rect {
	r.X0 &^= 1
	r.Y0 &^= 1
	r.X1 += r.X1 & 1
	r.Y1 += r.Y1 & 1
	return r
}

func rectLess(a, b tasm.Rect) bool {
	if a.X0 != b.X0 {
		return a.X0 < b.X0
	}
	if a.Y0 != b.Y0 {
		return a.Y0 < b.Y0
	}
	if a.X1 != b.X1 {
		return a.X1 < b.X1
	}
	return a.Y1 < b.Y1
}

// expected lists the regions a single-label query over [from,to) must
// return, in frame order and rect order within a frame: the label's
// ground-truth boxes, minus empties and boxes contained in another (the
// query layer's dedupe rule), snapped to even coordinates and clamped.
func (v *srcVideo) expected(label string, from, to int) []wantRegion {
	bounds := tasm.R(0, 0, v.spec.W, v.spec.H)
	var out []wantRegion
	for f := from; f < to; f++ {
		boxes := v.truth[label][f]
		var keep []tasm.Rect
		for i, r := range boxes {
			if r.Empty() {
				continue
			}
			contained := false
			for j, s := range boxes {
				if i != j && !s.Empty() && s.Contains(r) && (s != r || j < i) {
					contained = true
					break
				}
			}
			if !contained {
				if sr := snapEven(r).Clamp(bounds); !sr.Empty() {
					keep = append(keep, sr)
				}
			}
		}
		sort.Slice(keep, func(a, b int) bool { return rectLess(keep[a], keep[b]) })
		for _, r := range keep {
			out = append(out, wantRegion{f, r})
		}
	}
	return out
}

// checkRegions verifies a scan answer against ground truth: same count,
// same (frame, rect) multiset in frame order, and every region's pixels
// within MinPSNR of the source crop. It returns the payload bytes checked.
func checkRegions(v *srcVideo, label string, from, to int, got []tasm.RegionResult) (int64, error) {
	want := v.expected(label, from, to)
	if len(got) != len(want) {
		return 0, fmt.Errorf("%s %s [%d,%d): %d regions, want %d", v.name, label, from, to, len(got), len(want))
	}
	sorted := append([]tasm.RegionResult(nil), got...)
	for i := 1; i < len(sorted); i++ {
		if sorted[i].Frame < sorted[i-1].Frame {
			return 0, fmt.Errorf("%s %s: regions out of frame order at %d", v.name, label, i)
		}
	}
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Frame != sorted[b].Frame {
			return sorted[a].Frame < sorted[b].Frame
		}
		return rectLess(sorted[a].Region, sorted[b].Region)
	})
	var bytes int64
	for i, w := range want {
		g := sorted[i]
		if g.Frame != w.frame || g.Region != w.rect {
			return 0, fmt.Errorf("%s %s: region %d is frame %d %v, want frame %d %v", v.name, label, i, g.Frame, g.Region, w.frame, w.rect)
		}
		if g.Pixels == nil || g.Pixels.W != w.rect.Width() || g.Pixels.H != w.rect.Height() {
			return 0, fmt.Errorf("%s %s: region %d pixels do not match its rect %v", v.name, label, i, w.rect)
		}
		if p := tasm.PSNR(g.Pixels, v.frames[w.frame].Crop(w.rect)); p < MinPSNR {
			return 0, fmt.Errorf("%s %s: frame %d %v PSNR %.1f dB < %.0f", v.name, label, w.frame, w.rect, p, MinPSNR)
		}
		bytes += frameBytes(g.Pixels)
	}
	return bytes, nil
}

// checkFrame verifies one whole decoded frame against its source.
func checkFrame(v *srcVideo, idx int, got *tasm.Frame) error {
	if idx < 0 || idx >= len(v.frames) {
		return fmt.Errorf("%s: frame index %d out of range", v.name, idx)
	}
	src := v.frames[idx]
	if got == nil || got.W != src.W || got.H != src.H {
		return fmt.Errorf("%s: frame %d has wrong dimensions", v.name, idx)
	}
	if p := tasm.PSNR(got, src); p < MinPSNR {
		return fmt.Errorf("%s: frame %d PSNR %.1f dB < %.0f", v.name, idx, p, MinPSNR)
	}
	return nil
}

// sameRegions reports whether two answers are byte-identical: same frames,
// rects and pixel planes in the same order (remote vs in-process, tiled
// vs untiled rect coverage).
func sameRegions(a, b []tasm.RegionResult, pixels bool) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d regions vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Frame != b[i].Frame || a[i].Region != b[i].Region {
			return fmt.Errorf("region %d: frame %d %v vs frame %d %v", i, a[i].Frame, a[i].Region, b[i].Frame, b[i].Region)
		}
		if pixels && !sameFrame(a[i].Pixels, b[i].Pixels) {
			return fmt.Errorf("region %d: pixels differ", i)
		}
	}
	return nil
}

func sameFrame(a, b *tasm.Frame) bool {
	return a != nil && b != nil && a.W == b.W && a.H == b.H &&
		string(a.Y) == string(b.Y) && string(a.Cb) == string(b.Cb) && string(a.Cr) == string(b.Cr)
}

func frameBytes(f *tasm.Frame) int64 { return int64(len(f.Y) + len(f.Cb) + len(f.Cr)) }
