// Package geom provides the rectangle and interval arithmetic shared by the
// layout generator, the semantic index, and the query engine.
//
// All coordinates are integer pixel coordinates. A Rect is half-open:
// it covers x in [X0, X1) and y in [Y0, Y1). This matches how frames are
// sliced into tiles, so adjacent tiles share boundaries without overlapping.
package geom

import (
	"fmt"
	"sort"
)

// Rect is an axis-aligned rectangle covering [X0,X1) x [Y0,Y1).
type Rect struct {
	X0 int `json:"x0"`
	Y0 int `json:"y0"`
	X1 int `json:"x1"`
	Y1 int `json:"y1"`
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{X0: x0, Y0: y0, X1: x1, Y1: y1} }

// Width returns the horizontal extent of r (0 if empty).
func (r Rect) Width() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// Height returns the vertical extent of r (0 if empty).
func (r Rect) Height() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns Width*Height.
func (r Rect) Area() int64 { return int64(r.Width()) * int64(r.Height()) }

// Empty reports whether r covers no pixels.
func (r Rect) Empty() bool { return r.X1 <= r.X0 || r.Y1 <= r.Y0 }

// String implements fmt.Stringer.
func (r Rect) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// Intersect returns the intersection of r and s (possibly empty).
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// Intersects reports whether r and s share at least one pixel.
func (r Rect) Intersects(s Rect) bool {
	return r.X0 < s.X1 && s.X0 < r.X1 && r.Y0 < s.Y1 && s.Y0 < r.Y1
}

// Union returns the smallest rectangle containing both r and s. An empty
// rectangle is the identity element.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0), Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1), Y1: max(r.Y1, s.Y1),
	}
}

// Contains reports whether s lies entirely inside r.
func (r Rect) Contains(s Rect) bool {
	if s.Empty() {
		return true
	}
	return r.X0 <= s.X0 && r.Y0 <= s.Y0 && s.X1 <= r.X1 && s.Y1 <= r.Y1
}

// ContainsPoint reports whether (x,y) lies inside r.
func (r Rect) ContainsPoint(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Translate returns r shifted by (dx, dy).
func (r Rect) Translate(dx, dy int) Rect {
	return Rect{X0: r.X0 + dx, Y0: r.Y0 + dy, X1: r.X1 + dx, Y1: r.Y1 + dy}
}

// Clamp returns r clipped to bounds.
func (r Rect) Clamp(bounds Rect) Rect { return r.Intersect(bounds) }

// Inset shrinks r by d on every side. Negative d grows the rectangle.
func (r Rect) Inset(d int) Rect {
	out := Rect{X0: r.X0 + d, Y0: r.Y0 + d, X1: r.X1 - d, Y1: r.Y1 - d}
	if out.Empty() {
		return Rect{}
	}
	return out
}

// BoundingBox returns the union of all boxes (empty if none).
func BoundingBox(boxes []Rect) Rect {
	var out Rect
	for _, b := range boxes {
		out = out.Union(b)
	}
	return out
}

// TotalArea returns the area of the union of the boxes, counting overlapping
// pixels once. It sweeps x-events and merges y-intervals per slab.
func TotalArea(boxes []Rect) int64 {
	type event struct{ x int }
	xs := make([]int, 0, len(boxes)*2)
	for _, b := range boxes {
		if b.Empty() {
			continue
		}
		xs = append(xs, b.X0, b.X1)
	}
	if len(xs) == 0 {
		return 0
	}
	sort.Ints(xs)
	xs = dedupInts(xs)
	var total int64
	for i := 0; i+1 < len(xs); i++ {
		x0, x1 := xs[i], xs[i+1]
		var spans []Interval
		for _, b := range boxes {
			if b.Empty() || b.X0 >= x1 || b.X1 <= x0 {
				continue
			}
			spans = append(spans, Interval{b.Y0, b.Y1})
		}
		covered := MergeIntervals(spans)
		var h int64
		for _, iv := range covered {
			h += int64(iv.Hi - iv.Lo)
		}
		total += h * int64(x1-x0)
	}
	return total
}

func dedupInts(xs []int) []int {
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

// Interval is a half-open integer interval [Lo, Hi).
type Interval struct {
	Lo, Hi int
}

// Empty reports whether the interval covers nothing.
func (iv Interval) Empty() bool { return iv.Hi <= iv.Lo }

// Len returns Hi-Lo (0 if empty).
func (iv Interval) Len() int {
	if iv.Empty() {
		return 0
	}
	return iv.Hi - iv.Lo
}

// Intersects reports whether two intervals overlap.
func (iv Interval) Intersects(o Interval) bool { return iv.Lo < o.Hi && o.Lo < iv.Hi }

// MergeIntervals returns the sorted union of the intervals, coalescing any
// overlapping or touching pairs. Empty intervals are dropped. The input is
// not modified.
func MergeIntervals(ivs []Interval) []Interval {
	work := make([]Interval, 0, len(ivs))
	for _, iv := range ivs {
		if !iv.Empty() {
			work = append(work, iv)
		}
	}
	if len(work) == 0 {
		return nil
	}
	sort.Slice(work, func(i, j int) bool {
		if work[i].Lo != work[j].Lo {
			return work[i].Lo < work[j].Lo
		}
		return work[i].Hi < work[j].Hi
	})
	out := work[:1]
	for _, iv := range work[1:] {
		last := &out[len(out)-1]
		if iv.Lo <= last.Hi { // overlapping or touching
			if iv.Hi > last.Hi {
				last.Hi = iv.Hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// Gaps returns the maximal intervals inside bounds not covered by the merged
// input intervals. The input need not be merged or sorted.
func Gaps(ivs []Interval, bounds Interval) []Interval {
	merged := MergeIntervals(ivs)
	var out []Interval
	cur := bounds.Lo
	for _, iv := range merged {
		if iv.Hi <= bounds.Lo || iv.Lo >= bounds.Hi {
			continue
		}
		lo, hi := max(iv.Lo, bounds.Lo), min(iv.Hi, bounds.Hi)
		if lo > cur {
			out = append(out, Interval{cur, lo})
		}
		if hi > cur {
			cur = hi
		}
	}
	if cur < bounds.Hi {
		out = append(out, Interval{cur, bounds.Hi})
	}
	return out
}
