// Package semindex implements TASM's semantic index (paper §3.2): labeled
// bounding boxes clustered on (video, label, time). The index is
// resident: each (video, label) keeps its detections in one slice sorted
// by (frame, X0, Y0, X1, Y1), so a lookup over a frame range is a binary
// search and one contiguous copy. The paper's leaf→tile pointers are not
// kept: a scan derives a box's tiles from the live layout (box ∩ layout),
// so pointers would be a second structure rewritten on every re-tile.
//
// The index also tracks detection coverage — which (video, label, frame)
// combinations an object detector has fully processed — which is what the
// lazy and incremental tiling policies consult to decide whether object
// locations are "known" (paper §4.3). Coverage is a list of disjoint
// half-open frame intervals per (video, label).
//
// Durability: every write (AddBatch, MarkDetected, DeleteVideo) is one
// length-prefixed, CRC-32C record appended to a single log and fsync'd
// before it is applied in memory and acknowledged. Open replays the log.
// A torn final record — a crash mid-append — is dropped; damage before
// the final record fails Open with tasmerr.ErrTileCorrupt, so an
// acknowledged write is never lost silently. When the log carries more
// than twice the live state it is rewritten as a checkpoint of live
// records: write, sync, rename over the log, sync the directory.
package semindex

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"github.com/tasm-repro/tasm/internal/fsio"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// Detection is one labeled object instance on one frame.
type Detection struct {
	Frame int       `json:"frame"`
	Label string    `json:"label"`
	Box   geom.Rect `json:"box"`
}

// span is a half-open frame interval [from, to).
type span struct{ from, to int }

// labelIndex is one (video, label): its detections sorted by
// compareDetections with duplicates coalesced, and its coverage as
// disjoint, non-adjacent spans in frame order.
type labelIndex struct {
	label string // shared by every stored Detection's Label
	dets  []Detection
	cov   []span
}

// Index is the semantic index. All methods are safe for concurrent use,
// and a lookup running beside DeleteVideo sees all of the video's
// detections or none of them.
type Index struct {
	fs   fsio.FS
	path string

	// wmu serializes writers, so records reach the log and memory in
	// one order, and guards the log accounting below. Only writers
	// mutate the resident state, so a holder of wmu may read it
	// without mu.
	wmu      sync.Mutex
	logBytes int  // bytes in the log file
	logItems int  // detections and coverage marks its records carry
	rewrite  bool // an append or checkpoint failed: checkpoint before appending
	closed   bool

	// mu guards the resident state. A writer takes it exclusively only
	// to apply a record that is already durable, never across I/O, so
	// lookups wait on memory operations alone.
	mu     sync.RWMutex
	videos map[string]map[string]*labelIndex
	items  int // live detections + coverage spans
}

// checkpointBytes is the log size below which the log is never
// rewritten: a small log is cheaper to replay than to checkpoint.
const checkpointBytes = 64 << 10

// Record framing: payload length, CRC-32C of the length bytes, CRC-32C
// of the payload. The header checksum tells a damaged length — which
// would otherwise read as a torn tail and drop every later record —
// from a record cut short by a crash.
const headerLen = 12

// Record payloads start with their op byte; strings are
// uvarint-length-prefixed and integers are uvarints.
const (
	opAdd    = 'a' // video, then per detection: label, frame, x0, y0, x1, y1
	opMark   = 'm' // video, label, from, to
	opDelete = 'd' // video
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Open opens or creates the index whose log is the file at path.
func Open(path string) (*Index, error) { return open(fsio.OS{}, path) }

func open(fs fsio.FS, path string) (*Index, error) {
	ix := &Index{fs: fs, path: path, videos: map[string]map[string]*labelIndex{}}
	data, err := fs.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	missing := err != nil
	if err := ix.replay(data); err != nil {
		return nil, err
	}
	// A new log must exist durably before an append to it is
	// acknowledged, and a torn tail must go before a record lands
	// behind it.
	if missing || ix.logBytes < len(data) {
		if err := ix.checkpoint(); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// Close closes the index. Every acknowledged write is already durable;
// writes after Close fail.
func (ix *Index) Close() error {
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	ix.closed = true
	return nil
}

func validName(s string) error {
	if s == "" {
		return fmt.Errorf("semindex: empty name: %w", tasmerr.ErrInvalidName)
	}
	if strings.ContainsRune(s, 0) {
		return fmt.Errorf("semindex: name %q contains NUL: %w", s, tasmerr.ErrInvalidName)
	}
	return nil
}

// validate rejects a detection the index cannot store: the caller's
// mistake, classified with the 400-class sentinels.
func (d Detection) validate() error {
	if err := validName(d.Label); err != nil {
		return err
	}
	if d.Frame < 0 {
		return fmt.Errorf("semindex: negative frame %d: %w", d.Frame, tasmerr.ErrInvalidRange)
	}
	if d.Box.X0 < 0 || d.Box.Y0 < 0 { // with a non-empty box, X1 and Y1 are positive too
		return fmt.Errorf("semindex: negative coordinate in %v for %s@%d: %w", d.Box, d.Label, d.Frame, tasmerr.ErrInvalidRange)
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

// AddBatch records multiple detections as one durable write. The whole
// batch is validated first, so a malformed detection rejects it with
// nothing written.
func (ix *Index) AddBatch(video string, ds []Detection) error {
	if err := validName(video); err != nil {
		return err
	}
	for _, d := range ds {
		if err := d.validate(); err != nil {
			return err
		}
	}
	if len(ds) == 0 {
		return nil
	}
	rec := appendString([]byte{opAdd}, video)
	for _, d := range ds {
		rec = appendDetection(rec, d)
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.commit(rec)
}

// MarkDetected records that a detector has fully processed frames
// [fromFrame, toFrame) of video for the given label, meaning the absence
// of index entries there is definitive. The mark is one record whatever
// the range's length; an empty range is a no-op.
func (ix *Index) MarkDetected(video, label string, fromFrame, toFrame int) error {
	if err := validName(video); err != nil {
		return err
	}
	if err := validName(label); err != nil {
		return err
	}
	if fromFrame < 0 || toFrame < fromFrame {
		return fmt.Errorf("semindex: mark [%d, %d): %w", fromFrame, toFrame, tasmerr.ErrInvalidRange)
	}
	if toFrame == fromFrame {
		return nil
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	return ix.commit(markRecord(video, label, span{fromFrame, toFrame}))
}

// DeleteVideo removes every record stored for a video: detections and
// coverage. The storage manager calls this when a video's tiles are
// deleted, so a later re-ingest under the same name starts with a clean
// index instead of inheriting the deleted video's object locations.
func (ix *Index) DeleteVideo(video string) error {
	if err := validName(video); err != nil {
		return err
	}
	ix.wmu.Lock()
	defer ix.wmu.Unlock()
	if _, ok := ix.videos[video]; !ok {
		return nil // memory is the log's replay: nothing to delete
	}
	return ix.commit(appendString([]byte{opDelete}, video))
}

// commit makes one record durable, then applies it. The caller holds wmu.
func (ix *Index) commit(rec []byte) error {
	if ix.closed {
		return fmt.Errorf("semindex: %s: write after Close", ix.path)
	}
	if ix.rewrite {
		if err := ix.checkpoint(); err != nil {
			return err
		}
	}
	framed := appendFrame(nil, rec)
	if err := ix.fs.AppendFile(ix.path, framed, 0o644); err != nil {
		ix.rewrite = true
		return fmt.Errorf("semindex: append: %w", err)
	}
	if err := ix.fs.SyncFile(ix.path); err != nil {
		ix.rewrite = true
		return fmt.Errorf("semindex: sync: %w", err)
	}
	ix.mu.Lock()
	n, err := ix.apply(rec)
	ix.mu.Unlock()
	if err != nil {
		return err
	}
	ix.logBytes += len(framed)
	ix.logItems += n
	if ix.logBytes > checkpointBytes && ix.logItems > 2*ix.items {
		// The write is durable in the log either way; a failed
		// checkpoint is retried before the next append.
		_ = ix.checkpoint()
	}
	return nil
}

// checkpoint rewrites the log as the records of the live state. It runs
// under wmu, so it reads the resident state without mu and lookups never
// wait on its I/O.
func (ix *Index) checkpoint() error {
	var img []byte
	items := 0
	for video, labels := range ix.videos {
		add, dets := appendString([]byte{opAdd}, video), 0
		for label, li := range labels {
			for _, d := range li.dets {
				add = appendDetection(add, d)
			}
			for _, s := range li.cov {
				img = appendFrame(img, markRecord(video, label, s))
			}
			dets += len(li.dets)
			items += len(li.dets) + len(li.cov)
		}
		if dets > 0 {
			img = appendFrame(img, add)
		}
	}
	// Until the rename is durable an append could land in a file a crash
	// discards, so a failed checkpoint is redone before the next append.
	ix.rewrite = true
	tmp := ix.path + ".tmp"
	if err := ix.fs.WriteFile(tmp, img, 0o644); err != nil {
		return fmt.Errorf("semindex: checkpoint: %w", err)
	}
	if err := ix.fs.SyncFile(tmp); err != nil {
		return fmt.Errorf("semindex: checkpoint: %w", err)
	}
	if err := ix.fs.Rename(tmp, ix.path); err != nil {
		return fmt.Errorf("semindex: checkpoint: %w", err)
	}
	if err := ix.fs.SyncDir(filepath.Dir(ix.path)); err != nil {
		return fmt.Errorf("semindex: checkpoint: %w", err)
	}
	ix.logBytes, ix.logItems, ix.rewrite = len(img), items, false
	return nil
}

// replay applies the log's records in order and sets logBytes to the
// length of its intact prefix.
func (ix *Index) replay(data []byte) error {
	off := 0
	for off < len(data) {
		rest := data[off:]
		if len(rest) < headerLen {
			break // torn header
		}
		n := binary.LittleEndian.Uint32(rest)
		if crc32.Checksum(rest[:4], castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			if len(bytes.Trim(rest, "\x00")) == 0 {
				break // a torn append the filesystem zero-filled
			}
			return ix.corrupt(off, "damaged record header")
		}
		if uint64(n) > uint64(len(rest)-headerLen) {
			break // torn payload
		}
		end := off + headerLen + int(n)
		rec := rest[headerLen : headerLen+int(n)]
		if crc32.Checksum(rec, castagnoli) != binary.LittleEndian.Uint32(rest[8:]) {
			if end == len(data) {
				break // torn final record
			}
			return ix.corrupt(off, "record checksum mismatch")
		}
		items, err := ix.apply(rec)
		if err != nil {
			return ix.corrupt(off, err.Error())
		}
		ix.logItems += items
		off = end
	}
	ix.logBytes = off
	return nil
}

func (ix *Index) corrupt(off int, what string) error {
	return fmt.Errorf("semindex: %s: %s at offset %d: %w", ix.path, what, off, tasmerr.ErrTileCorrupt)
}

// appendFrame appends one framed record to b.
func appendFrame(b, rec []byte) []byte {
	var hdr [headerLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(rec)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(hdr[:4], castagnoli))
	binary.LittleEndian.PutUint32(hdr[8:], crc32.Checksum(rec, castagnoli))
	return append(append(b, hdr[:]...), rec...)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendDetection appends one detection of an opAdd record.
func appendDetection(b []byte, d Detection) []byte {
	b = appendString(b, d.Label)
	for _, v := range [...]int{d.Frame, d.Box.X0, d.Box.Y0, d.Box.X1, d.Box.Y1} {
		b = binary.AppendUvarint(b, uint64(v))
	}
	return b
}

func markRecord(video, label string, s span) []byte {
	rec := appendString(appendString([]byte{opMark}, video), label)
	return binary.AppendUvarint(binary.AppendUvarint(rec, uint64(s.from)), uint64(s.to))
}

// decoder reads a record payload; the first malformed field sets err
// and zeroes every later read.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) int() int {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || v > math.MaxInt {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *decoder) bytes() []byte {
	n := d.int()
	if n > len(d.b) {
		d.fail()
		return nil
	}
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("malformed record")
	}
	d.b = nil
}

// apply applies one record to the resident state and returns the number
// of detections and coverage marks it carries. Writers hold mu.
func (ix *Index) apply(rec []byte) (int, error) {
	if len(rec) == 0 {
		return 0, errors.New("empty record")
	}
	d := decoder{b: rec[1:]}
	video := d.bytes()
	switch rec[0] {
	case opAdd:
		n := 0
		for len(d.b) > 0 {
			label := d.bytes()
			det := Detection{Frame: d.int(), Box: geom.Rect{X0: d.int(), Y0: d.int(), X1: d.int(), Y1: d.int()}}
			if d.err != nil {
				break
			}
			li := ix.label(video, label)
			det.Label = li.label
			if i, found := slices.BinarySearchFunc(li.dets, det, compareDetections); !found {
				li.dets = slices.Insert(li.dets, i, det)
				ix.items++
			}
			n++
		}
		return n, d.err
	case opMark:
		label := d.bytes()
		s := span{d.int(), d.int()}
		if d.err != nil {
			return 0, d.err
		}
		li := ix.label(video, label)
		// Merge s with every span it overlaps or touches.
		i, _ := slices.BinarySearchFunc(li.cov, s.from, func(c span, f int) int { return cmp.Compare(c.to, f) })
		j := i
		for ; j < len(li.cov) && li.cov[j].from <= s.to; j++ {
			s = span{min(s.from, li.cov[j].from), max(s.to, li.cov[j].to)}
		}
		li.cov = slices.Replace(li.cov, i, j, s)
		ix.items += 1 - (j - i)
		return 1, nil
	case opDelete:
		if d.err != nil {
			return 0, d.err
		}
		for _, li := range ix.videos[string(video)] {
			ix.items -= len(li.dets) + len(li.cov)
		}
		delete(ix.videos, string(video))
		return 1, nil
	}
	return 0, fmt.Errorf("unknown record op %q", rec[0])
}

// label returns the (video, label) entry, creating it if absent.
func (ix *Index) label(video, label []byte) *labelIndex {
	labels := ix.videos[string(video)]
	if labels == nil {
		labels = map[string]*labelIndex{}
		ix.videos[string(video)] = labels
	}
	li := labels[string(label)]
	if li == nil {
		li = &labelIndex{label: string(label)}
		labels[li.label] = li
	}
	return li
}

// compareDetections orders detections by frame, then box corners: the
// index's clustering within one (video, label).
func compareDetections(a, b Detection) int {
	return cmp.Or(
		cmp.Compare(a.Frame, b.Frame),
		cmp.Compare(a.Box.X0, b.Box.X0), cmp.Compare(a.Box.Y0, b.Box.Y0),
		cmp.Compare(a.Box.X1, b.Box.X1), cmp.Compare(a.Box.Y1, b.Box.Y1),
	)
}

// Lookup returns all detections for (video, label) with Frame in
// [fromFrame, toFrame), ordered by frame, then box corners.
func (ix *Index) Lookup(video, label string, fromFrame, toFrame int) ([]Detection, error) {
	if toFrame <= fromFrame {
		return nil, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	li := ix.videos[video][label]
	if li == nil {
		return nil, nil
	}
	byFrame := func(d Detection, f int) int { return cmp.Compare(d.Frame, f) }
	lo, _ := slices.BinarySearchFunc(li.dets, fromFrame, byFrame)
	hi, _ := slices.BinarySearchFunc(li.dets[lo:], toFrame, byFrame)
	if hi == 0 {
		return nil, nil
	}
	return slices.Clone(li.dets[lo : lo+hi]), nil
}

// LookupBoxes is Lookup returning just the bounding boxes.
func (ix *Index) LookupBoxes(video, label string, fromFrame, toFrame int) ([]geom.Rect, error) {
	ds, err := ix.Lookup(video, label, fromFrame, toFrame)
	if err != nil {
		return nil, err
	}
	boxes := make([]geom.Rect, len(ds))
	for i, d := range ds {
		boxes[i] = d.Box
	}
	return boxes, nil
}

// Labels returns the labels with at least one detection stored for
// video, in sorted order.
func (ix *Index) Labels(video string) ([]string, error) {
	if err := validName(video); err != nil {
		return nil, err
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var labels []string
	for label, li := range ix.videos[video] {
		if len(li.dets) > 0 {
			labels = append(labels, label)
		}
	}
	slices.Sort(labels)
	return labels, nil
}

// DetectedAll reports whether every frame in [fromFrame, toFrame) has been
// processed for label.
func (ix *Index) DetectedAll(video, label string, fromFrame, toFrame int) (bool, error) {
	if toFrame <= fromFrame {
		return true, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	li := ix.videos[video][label]
	if li == nil {
		return false, nil
	}
	// The one span that could hold fromFrame is the first ending after it.
	i, _ := slices.BinarySearchFunc(li.cov, fromFrame+1, func(c span, f int) int { return cmp.Compare(c.to, f) })
	return i < len(li.cov) && li.cov[i].from <= fromFrame && li.cov[i].to >= toFrame, nil
}
