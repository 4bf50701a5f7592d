// Package semindex implements TASM's semantic index (paper §3.2): labeled
// bounding boxes clustered on (video, label, time), stored in a B-tree.
// Leaves carry the bounding box and, when the storage manager has computed
// it, a pointer to the tile(s) the box intersects under the current layout.
//
// The index also tracks detection coverage — which (video, label, frame)
// combinations an object detector has fully processed — which is what the
// lazy and incremental tiling policies consult to decide whether object
// locations are "known" (paper §4.3).
package semindex

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"

	"github.com/tasm-repro/tasm/internal/btree"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// Detection is one labeled object instance on one frame.
type Detection struct {
	Frame int       `json:"frame"`
	Label string    `json:"label"`
	Box   geom.Rect `json:"box"`
}

// TilePointer locates the tiles containing a box: the SOT the frame belongs
// to and the row-major tile indexes within that SOT's layout.
type TilePointer struct {
	SOT   uint32
	Tiles []uint16
}

// Entry is a stored detection plus its (optional) tile pointer.
type Entry struct {
	Detection
	Pointer *TilePointer // nil if the mapping has not been materialized
}

// Index is the semantic index. All methods are safe for concurrent use
// (the underlying tree serializes access), and a lookup running beside
// DeleteVideo sees all of the video's detections or none of them.
type Index struct {
	tree *btree.Tree
	// mu makes DeleteVideo (exclusive) all-or-nothing for Lookup,
	// LookupBoxes and Labels (shared): the tree serializes single
	// operations only, and a lookup between two of DeleteVideo's
	// tree.Delete calls would return a proper subset of a video's
	// detections as if it were the answer.
	mu sync.RWMutex
}

// Open opens or creates a persistent index at path.
func Open(path string) (*Index, error) {
	t, err := btree.Open(path)
	if err != nil {
		return nil, err
	}
	return &Index{tree: t}, nil
}

// OpenMemory returns an in-memory index.
func OpenMemory() *Index { return &Index{tree: btree.OpenMemory()} }

// Close flushes and closes the index.
func (ix *Index) Close() error { return ix.tree.Close() }

// Sync flushes dirty pages to disk.
func (ix *Index) Sync() error { return ix.tree.Sync() }

// Len returns the total number of stored records (detections + coverage
// markers).
func (ix *Index) Len() int { return ix.tree.Len() }

const (
	prefixDetection = 'd'
	prefixCoverage  = 'c'
)

func validName(s string) error {
	if s == "" {
		return fmt.Errorf("semindex: empty name: %w", tasmerr.ErrInvalidName)
	}
	if strings.ContainsRune(s, 0) {
		return fmt.Errorf("semindex: name %q contains NUL: %w", s, tasmerr.ErrInvalidName)
	}
	return nil
}

// detKey builds the clustered key: d video \0 label \0 frame box-coords.
// Big-endian fixed-width integers preserve ordering, so a range scan over
// (video, label, [from,to)) is a contiguous key range — exactly the access
// path Scan(v, L, T) needs.
func detKey(video, label string, frame int, box geom.Rect) []byte {
	k := make([]byte, 0, len(video)+len(label)+3+20)
	k = append(k, prefixDetection)
	k = append(k, video...)
	k = append(k, 0)
	k = append(k, label...)
	k = append(k, 0)
	k = appendBE32(k, uint32(frame))
	k = appendBE32(k, uint32(box.X0))
	k = appendBE32(k, uint32(box.Y0))
	k = appendBE32(k, uint32(box.X1))
	k = appendBE32(k, uint32(box.Y1))
	return k
}

// detPrefix returns the key prefix for (video, label) up to the frame field.
func detPrefix(video, label string) []byte {
	k := make([]byte, 0, len(video)+len(label)+3)
	k = append(k, prefixDetection)
	k = append(k, video...)
	k = append(k, 0)
	k = append(k, label...)
	k = append(k, 0)
	return k
}

func covKey(video, label string, frame int) []byte {
	k := make([]byte, 0, len(video)+len(label)+7)
	k = append(k, prefixCoverage)
	k = append(k, video...)
	k = append(k, 0)
	k = append(k, label...)
	k = append(k, 0)
	k = appendBE32(k, uint32(frame))
	return k
}

func appendBE32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.BigEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func encodePointer(p *TilePointer) []byte {
	if p == nil {
		return []byte{0}
	}
	out := make([]byte, 0, 6+2*len(p.Tiles))
	out = append(out, 1)
	out = appendBE32(out, p.SOT)
	out = append(out, byte(len(p.Tiles)))
	for _, t := range p.Tiles {
		var tmp [2]byte
		binary.BigEndian.PutUint16(tmp[:], t)
		out = append(out, tmp[:]...)
	}
	return out
}

func decodePointer(v []byte) *TilePointer {
	if len(v) < 1 || v[0] == 0 || len(v) < 6 {
		return nil
	}
	p := &TilePointer{SOT: binary.BigEndian.Uint32(v[1:])}
	n := int(v[5])
	for i := 0; i < n && 6+2*i+2 <= len(v); i++ {
		p.Tiles = append(p.Tiles, binary.BigEndian.Uint16(v[6+2*i:]))
	}
	return p
}

// validate rejects a detection the index cannot key: the caller's
// mistake, classified with the 400-class sentinels.
func (d Detection) validate() error {
	if err := validName(d.Label); err != nil {
		return err
	}
	if d.Frame < 0 {
		return fmt.Errorf("semindex: negative frame %d: %w", d.Frame, tasmerr.ErrInvalidRange)
	}
	if d.Box.Empty() {
		return fmt.Errorf("semindex: empty box for %s@%d: %w", d.Label, d.Frame, tasmerr.ErrInvalidRange)
	}
	return nil
}

// Add records a detection (the paper's AddMetadata). Duplicate detections
// (same video, label, frame, box) coalesce into one entry.
func (ix *Index) Add(video string, d Detection) error {
	return ix.AddBatch(video, []Detection{d})
}

// AddBatch records multiple detections. The whole batch is validated
// first, so a malformed detection rejects it with nothing written.
func (ix *Index) AddBatch(video string, ds []Detection) error {
	if err := validName(video); err != nil {
		return err
	}
	for _, d := range ds {
		if err := d.validate(); err != nil {
			return err
		}
	}
	for _, d := range ds {
		if err := ix.tree.Put(detKey(video, d.Label, d.Frame, d.Box), encodePointer(nil)); err != nil {
			return err
		}
	}
	return nil
}

// SetPointer materializes the box→tile mapping for one stored detection.
func (ix *Index) SetPointer(video string, d Detection, p TilePointer) error {
	return ix.tree.Put(detKey(video, d.Label, d.Frame, d.Box), encodePointer(&p))
}

// Lookup returns all detections for (video, label) with Frame in
// [fromFrame, toFrame), ordered by frame.
func (ix *Index) Lookup(video, label string, fromFrame, toFrame int) ([]Entry, error) {
	if toFrame <= fromFrame {
		return nil, nil
	}
	start := detKey(video, label, fromFrame, geom.Rect{})[:len(detPrefix(video, label))+4]
	end := detKey(video, label, toFrame, geom.Rect{})[:len(detPrefix(video, label))+4]
	var out []Entry
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	err := ix.tree.Scan(start, end, func(k, v []byte) bool {
		e, ok := parseDetKey(k, video, label)
		if !ok {
			return true
		}
		e.Pointer = decodePointer(v)
		out = append(out, e)
		return true
	})
	return out, err
}

// LookupBoxes is Lookup returning just the bounding boxes.
func (ix *Index) LookupBoxes(video, label string, fromFrame, toFrame int) ([]geom.Rect, error) {
	entries, err := ix.Lookup(video, label, fromFrame, toFrame)
	if err != nil {
		return nil, err
	}
	boxes := make([]geom.Rect, len(entries))
	for i, e := range entries {
		boxes[i] = e.Box
	}
	return boxes, nil
}

func parseDetKey(k []byte, video, label string) (Entry, bool) {
	prefix := detPrefix(video, label)
	if len(k) != len(prefix)+20 {
		return Entry{}, false
	}
	body := k[len(prefix):]
	e := Entry{Detection: Detection{
		Frame: int(binary.BigEndian.Uint32(body[0:])),
		Label: label,
		Box: geom.R(
			int(binary.BigEndian.Uint32(body[4:])),
			int(binary.BigEndian.Uint32(body[8:])),
			int(binary.BigEndian.Uint32(body[12:])),
			int(binary.BigEndian.Uint32(body[16:])),
		),
	}}
	return e, true
}

// Labels returns the distinct labels stored for video, in sorted order.
func (ix *Index) Labels(video string) ([]string, error) {
	if err := validName(video); err != nil {
		return nil, err
	}
	prefix := append([]byte{prefixDetection}, video...)
	prefix = append(prefix, 0)
	var labels []string
	var last string
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	err := ix.tree.Scan(prefix, upperBound(prefix), func(k, v []byte) bool {
		rest := k[len(prefix):]
		i := 0
		for i < len(rest) && rest[i] != 0 {
			i++
		}
		label := string(rest[:i])
		if label != last {
			labels = append(labels, label)
			last = label
		}
		return true
	})
	return labels, err
}

// upperBound returns the smallest key greater than every key with the given
// prefix (nil if the prefix is all 0xFF).
func upperBound(prefix []byte) []byte {
	out := append([]byte(nil), prefix...)
	for i := len(out) - 1; i >= 0; i-- {
		if out[i] != 0xFF {
			out[i]++
			return out[:i+1]
		}
	}
	return nil
}

// DeleteVideo removes every record stored for a video: detections (with
// their tile pointers) and coverage markers. The storage manager calls
// this when a video's tiles are deleted, so a later re-ingest under the
// same name starts with a clean index instead of inheriting the deleted
// video's object locations.
func (ix *Index) DeleteVideo(video string) error {
	if err := validName(video); err != nil {
		return err
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, kind := range []byte{prefixDetection, prefixCoverage} {
		prefix := append(append([]byte{kind}, video...), 0)
		// Collect first, then delete: Delete rebalances leaves, which
		// must not happen under a live Scan.
		var keys [][]byte
		if err := ix.tree.Scan(prefix, upperBound(prefix), func(k, v []byte) bool {
			keys = append(keys, append([]byte(nil), k...))
			return true
		}); err != nil {
			return err
		}
		for _, k := range keys {
			if _, err := ix.tree.Delete(k); err != nil {
				return err
			}
		}
	}
	return nil
}

// MarkDetected records that a detector has fully processed frames
// [fromFrame, toFrame) of video for the given label, meaning the absence of
// index entries there is definitive.
func (ix *Index) MarkDetected(video, label string, fromFrame, toFrame int) error {
	if err := validName(video); err != nil {
		return err
	}
	if err := validName(label); err != nil {
		return err
	}
	for f := fromFrame; f < toFrame; f++ {
		if err := ix.tree.Put(covKey(video, label, f), []byte{1}); err != nil {
			return err
		}
	}
	return nil
}

// DetectedAll reports whether every frame in [fromFrame, toFrame) has been
// processed for label.
func (ix *Index) DetectedAll(video, label string, fromFrame, toFrame int) (bool, error) {
	if toFrame <= fromFrame {
		return true, nil
	}
	count := 0
	err := ix.tree.Scan(covKey(video, label, fromFrame), covKey(video, label, toFrame), func(k, v []byte) bool {
		count++
		return true
	})
	return count == toFrame-fromFrame, err
}

// DetectedFrames returns how many frames in [fromFrame, toFrame) have been
// processed for label.
func (ix *Index) DetectedFrames(video, label string, fromFrame, toFrame int) (int, error) {
	count := 0
	err := ix.tree.Scan(covKey(video, label, fromFrame), covKey(video, label, toFrame), func(k, v []byte) bool {
		count++
		return true
	})
	return count, err
}
