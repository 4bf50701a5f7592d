// Package container defines the on-disk bitstream format for encoded video
// streams ("TSV": header + frame index + packets), GOP-aware random access,
// and homomorphic stitching — combining independently encoded tile streams
// into a single file by interleaving their bitstreams under an arrangement
// header, with no intermediate decode (paper §2, "Stitching").
package container

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

var (
	magicVideo    = [4]byte{'T', 'S', 'V', '1'}
	magicStitched = [4]byte{'T', 'S', 'V', 'S'}
)

// ErrBadMagic is returned when parsing data that is not a TSV stream.
var ErrBadMagic = errors.New("container: bad magic")

// Video is a parsed (or freshly written) encoded stream: one tile's worth of
// video, or an untiled full-frame stream.
type Video struct {
	W, H      int
	FPS       int
	GOPLength int
	QP        int

	flags   []byte // per-frame: bit0 = keyframe
	offsets []int  // packet start offsets into data
	sizes   []int
	data    []byte
}

// Writer accumulates encoded packets and serializes a Video.
type Writer struct {
	v Video
}

// NewWriter creates a Writer for a stream with the given properties.
func NewWriter(w, h, fps, gopLength, qp int) *Writer {
	return &Writer{v: Video{W: w, H: h, FPS: fps, GOPLength: gopLength, QP: qp}}
}

// Append adds one encoded frame packet.
func (w *Writer) Append(packet []byte, isKey bool) {
	var fl byte
	if isKey {
		fl = 1
	}
	w.v.flags = append(w.v.flags, fl)
	w.v.offsets = append(w.v.offsets, len(w.v.data))
	w.v.sizes = append(w.v.sizes, len(packet))
	w.v.data = append(w.v.data, packet...)
}

// FrameCount returns the number of appended frames.
func (w *Writer) FrameCount() int { return len(w.v.flags) }

// Video finalizes the writer. The returned Video shares the writer's
// buffers; the writer must not be reused afterwards.
func (w *Writer) Video() *Video { return &w.v }

// Bytes serializes the stream.
func (v *Video) Bytes() []byte {
	n := len(v.flags)
	out := make([]byte, 0, 32+5*n+len(v.data))
	out = append(out, magicVideo[:]...)
	out = appendU32(out, uint32(v.W))
	out = appendU32(out, uint32(v.H))
	out = appendU16(out, uint16(v.FPS))
	out = appendU16(out, uint16(v.GOPLength))
	out = append(out, byte(v.QP))
	out = appendU32(out, uint32(n))
	for i := 0; i < n; i++ {
		out = append(out, v.flags[i])
		out = appendU32(out, uint32(v.sizes[i]))
	}
	out = append(out, v.data...)
	return out
}

// SizeBytes returns the serialized size of the stream, the storage-cost
// metric of the paper's Figure 9.
func (v *Video) SizeBytes() int64 { return int64(21 + 5*len(v.flags) + len(v.data)) }

// Parse reads a serialized Video.
func Parse(data []byte) (*Video, error) {
	if len(data) < 17 || [4]byte(data[:4]) != magicVideo {
		return nil, ErrBadMagic
	}
	v := &Video{
		W:         int(binary.LittleEndian.Uint32(data[4:])),
		H:         int(binary.LittleEndian.Uint32(data[8:])),
		FPS:       int(binary.LittleEndian.Uint16(data[12:])),
		GOPLength: int(binary.LittleEndian.Uint16(data[14:])),
		QP:        int(data[16]),
	}
	n := 0
	if len(data) < 21 {
		return nil, errors.New("container: truncated header")
	}
	n = int(binary.LittleEndian.Uint32(data[17:]))
	idxEnd := 21 + 5*n
	if n < 0 || len(data) < idxEnd {
		return nil, errors.New("container: truncated index")
	}
	v.flags = make([]byte, n)
	v.offsets = make([]int, n)
	v.sizes = make([]int, n)
	off := 0
	for i := 0; i < n; i++ {
		rec := data[21+5*i:]
		v.flags[i] = rec[0]
		v.sizes[i] = int(binary.LittleEndian.Uint32(rec[1:]))
		v.offsets[i] = off
		off += v.sizes[i]
	}
	v.data = data[idxEnd:]
	if len(v.data) < off {
		return nil, errors.New("container: truncated packet data")
	}
	return v, nil
}

// Open reads and parses a stream from disk.
func Open(path string) (*Video, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	v, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("container: %s: %w", path, err)
	}
	return v, nil
}

// Save serializes the stream to disk.
func (v *Video) Save(path string) error { return os.WriteFile(path, v.Bytes(), 0o644) }

// FrameCount returns the number of frames in the stream.
func (v *Video) FrameCount() int { return len(v.flags) }

// IsKey reports whether frame i is a keyframe.
func (v *Video) IsKey(i int) bool { return v.flags[i]&1 != 0 }

// Packet returns the encoded bytes of frame i.
func (v *Video) Packet(i int) []byte {
	return v.data[v.offsets[i] : v.offsets[i]+v.sizes[i]]
}

// KeyframeBefore returns the index of the nearest keyframe at or before i.
func (v *Video) KeyframeBefore(i int) int {
	for ; i > 0; i-- {
		if v.IsKey(i) {
			return i
		}
	}
	return 0
}

// DecodeRange decodes frames [from, to) and returns them along with the
// decoder statistics. Decoding starts at the keyframe preceding from, as a
// real decoder must; the warm-up frames are counted in the stats (that cost
// is exactly what TASM's layouts are designed to avoid) but not returned.
func (v *Video) DecodeRange(from, to int) ([]*frame.Frame, vcodec.DecodeStats, error) {
	return v.DecodeRangeContext(context.Background(), from, to)
}

// DecodeRangeContext is DecodeRange under a context: cancellation or
// deadline expiry is checked before every frame, so an in-flight tile
// decode stops within one frame's work instead of running the GOP to the
// end. The returned error wraps ctx.Err(), matchable with errors.Is.
func (v *Video) DecodeRangeContext(ctx context.Context, from, to int) ([]*frame.Frame, vcodec.DecodeStats, error) {
	if from < 0 || to > v.FrameCount() || from >= to {
		return nil, vcodec.DecodeStats{}, fmt.Errorf("container: invalid range [%d,%d) of %d frames", from, to, v.FrameCount())
	}
	dec, err := vcodec.NewDecoder(v.W, v.H)
	if err != nil {
		return nil, vcodec.DecodeStats{}, err
	}
	defer dec.Release()
	start := v.KeyframeBefore(from)
	out := make([]*frame.Frame, 0, to-from)
	for i := start; i < to; i++ {
		if err := ctx.Err(); err != nil {
			return nil, dec.Stats(), fmt.Errorf("container: decode stopped at frame %d: %w", i, err)
		}
		// Warm-up frames advance the reference planes (and are charged to
		// the decode stats, the cost TASM's layouts exist to avoid) but
		// are never materialized as frames.
		if i < from {
			if err := dec.DecodeDiscard(v.Packet(i)); err != nil {
				return nil, dec.Stats(), fmt.Errorf("container: frame %d: %w", i, err)
			}
			continue
		}
		f, err := dec.Decode(v.Packet(i))
		if err != nil {
			return nil, dec.Stats(), fmt.Errorf("container: frame %d: %w", i, err)
		}
		out = append(out, f)
	}
	return out, dec.Stats(), nil
}

// DecodeAll decodes the entire stream.
func (v *Video) DecodeAll() ([]*frame.Frame, vcodec.DecodeStats, error) {
	return v.DecodeRange(0, v.FrameCount())
}

// EncodeVideo compresses frames into a single-tile stream.
func EncodeVideo(frames []*frame.Frame, fps int, p vcodec.Params) (*Video, error) {
	if len(frames) == 0 {
		return nil, errors.New("container: no frames")
	}
	return EncodeTile(context.Background(), frames, layout.Single(frames[0].W, frames[0].H), 0, fps, p)
}

// EncodeTile compresses tile ti of layout l into one independently
// decodable stream: the one per-tile encode loop, under EncodeVideo,
// EncodeTiledContext and the storage manager's encode fan-out. Interior
// tile edges are flagged so the codec applies its boundary treatment, the
// source of tiling's quality cost. ctx is checked before every frame, so a
// cancelled encode stops within one frame's work with an error wrapping
// ctx.Err(). frames are only read, so concurrent calls may share them.
func EncodeTile(ctx context.Context, frames []*frame.Frame, l layout.Layout, ti, fps int, p vcodec.Params) (*Video, error) {
	if len(frames) == 0 {
		return nil, errors.New("container: no frames")
	}
	if frames[0].W != l.Width() || frames[0].H != l.Height() {
		return nil, fmt.Errorf("container: layout %dx%d does not match frames %dx%d",
			l.Width(), l.Height(), frames[0].W, frames[0].H)
	}
	rect := l.TileRectByIndex(ti)
	row, col := ti/l.Cols(), ti%l.Cols()
	p.InteriorEdges = [4]bool{
		vcodec.EdgeLeft:   col > 0,
		vcodec.EdgeTop:    row > 0,
		vcodec.EdgeRight:  col < l.Cols()-1,
		vcodec.EdgeBottom: row < l.Rows()-1,
	}
	enc, err := vcodec.NewEncoder(rect.Width(), rect.Height(), p)
	if err != nil {
		return nil, err
	}
	defer enc.Release()
	w := NewWriter(rect.Width(), rect.Height(), fps, enc.GOPLength(), p.QP)
	for fi, f := range frames {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("container: encode stopped at tile %d frame %d: %w", ti, fi, err)
		}
		if l.NumTiles() > 1 { // a single tile is the whole frame: no copy
			f = f.Crop(rect)
		}
		pkt, isKey, err := enc.Encode(f, false)
		if err != nil {
			return nil, fmt.Errorf("container: tile %d frame %d: %w", ti, fi, err)
		}
		w.Append(pkt, isKey)
	}
	return w.Video(), nil
}

// EncodeTiled compresses frames under the given layout, producing one
// independently decodable stream per tile (row-major order).
func EncodeTiled(frames []*frame.Frame, l layout.Layout, fps int, p vcodec.Params) ([]*Video, error) {
	return EncodeTiledContext(context.Background(), frames, l, fps, p)
}

// EncodeTiledContext is EncodeTiled under a context: EncodeTile applied
// to each tile in turn, so an encode aborts within one frame's work of a
// cancellation. The returned error wraps ctx.Err().
func EncodeTiledContext(ctx context.Context, frames []*frame.Frame, l layout.Layout, fps int, p vcodec.Params) ([]*Video, error) {
	videos := make([]*Video, l.NumTiles())
	for ti := range videos {
		v, err := EncodeTile(ctx, frames, l, ti, fps, p)
		if err != nil {
			return nil, err
		}
		videos[ti] = v
	}
	return videos, nil
}

// Stitched is a set of tile streams plus their arrangement: the result of
// homomorphic stitching. The tile bitstreams are byte-identical to the
// inputs; only the header is new.
type Stitched struct {
	Layout layout.Layout
	Tiles  []*Video
}

// Stitch combines tile streams under a layout without decoding. All tiles
// must have matching frame counts and dimensions consistent with the layout.
func Stitch(l layout.Layout, tiles []*Video) (*Stitched, error) {
	if len(tiles) != l.NumTiles() {
		return nil, fmt.Errorf("container: %d tiles for a %d-tile layout", len(tiles), l.NumTiles())
	}
	n := tiles[0].FrameCount()
	for i, tv := range tiles {
		r := l.TileRectByIndex(i)
		if tv.W != r.Width() || tv.H != r.Height() {
			return nil, fmt.Errorf("container: tile %d is %dx%d, layout cell is %dx%d", i, tv.W, tv.H, r.Width(), r.Height())
		}
		if tv.FrameCount() != n {
			return nil, fmt.Errorf("container: tile %d has %d frames, want %d", i, tv.FrameCount(), n)
		}
	}
	return &Stitched{Layout: l, Tiles: tiles}, nil
}

// Bytes serializes the stitched video into a single file: magic, layout,
// then each tile's stream prefixed by its length. No bitstream is modified.
func (s *Stitched) Bytes() []byte {
	lb, _ := s.Layout.MarshalBinary()
	out := append([]byte(nil), magicStitched[:]...)
	out = appendU32(out, uint32(len(lb)))
	out = append(out, lb...)
	out = appendU32(out, uint32(len(s.Tiles)))
	for _, t := range s.Tiles {
		b := t.Bytes()
		out = appendU32(out, uint32(len(b)))
		out = append(out, b...)
	}
	return out
}

// ParseStitched reads a serialized stitched video.
func ParseStitched(data []byte) (*Stitched, error) {
	if len(data) < 8 || [4]byte(data[:4]) != magicStitched {
		return nil, ErrBadMagic
	}
	lbLen := int(binary.LittleEndian.Uint32(data[4:]))
	if len(data) < 8+lbLen+4 {
		return nil, errors.New("container: truncated stitched header")
	}
	var l layout.Layout
	if err := l.UnmarshalBinary(data[8 : 8+lbLen]); err != nil {
		return nil, err
	}
	off := 8 + lbLen
	nTiles := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	tiles := make([]*Video, 0, nTiles)
	for i := 0; i < nTiles; i++ {
		if len(data) < off+4 {
			return nil, errors.New("container: truncated tile table")
		}
		sz := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if len(data) < off+sz {
			return nil, errors.New("container: truncated tile stream")
		}
		tv, err := Parse(data[off : off+sz])
		if err != nil {
			return nil, fmt.Errorf("container: tile %d: %w", i, err)
		}
		tiles = append(tiles, tv)
		off += sz
	}
	return Stitch(l, tiles)
}

// DecodeRange decodes frames [from, to) of the stitched video, recovering
// full frames by decoding every tile and placing each at its layout offset.
func (s *Stitched) DecodeRange(from, to int) ([]*frame.Frame, vcodec.DecodeStats, error) {
	var stats vcodec.DecodeStats
	n := to - from
	if n <= 0 {
		return nil, stats, fmt.Errorf("container: invalid range [%d,%d)", from, to)
	}
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = frame.New(s.Layout.Width(), s.Layout.Height())
	}
	for ti, tv := range s.Tiles {
		rect := s.Layout.TileRectByIndex(ti)
		frames, st, err := tv.DecodeRange(from, to)
		if err != nil {
			return nil, stats, fmt.Errorf("container: tile %d: %w", ti, err)
		}
		stats.FramesDecoded += st.FramesDecoded
		stats.PixelsDecoded += st.PixelsDecoded
		for i, f := range frames {
			out[i].Blit(f, rect.X0, rect.Y0)
		}
	}
	return out, stats, nil
}

// FrameCount returns the per-tile frame count.
func (s *Stitched) FrameCount() int { return s.Tiles[0].FrameCount() }

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendU16(b []byte, v uint16) []byte {
	var tmp [2]byte
	binary.LittleEndian.PutUint16(tmp[:], v)
	return append(b, tmp[:]...)
}
