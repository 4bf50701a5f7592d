package rpcwire

// Wire protocol v2: binary frame streaming.
//
// The v1 NDJSON stream base64-encodes every pixel plane (encoding/json's
// []byte representation), a ~33% tax on exactly the bytes TASM works
// hardest to avoid shipping. The v2 framing carries the same stream —
// regions, whole frames, the stats trailer, the error trailer — as
// length-delimited binary records: fixed little-endian headers, pixel
// planes as raw bytes, zero base64 and zero per-region JSON. The two
// encodings are negotiated per request (Accept / Tasm-Api-Version) and
// are interchangeable: a stream decodes to byte-identical pixels and
// reconstructs the same error sentinels whichever framing carried it.
// NDJSON stays the default — curl without headers keeps working.
//
// Stream layout (all integers little-endian):
//
//	stream  := magic record*
//	magic   := "TASMFRM2" (8 bytes)
//	record  := tag(u8) payload
//
//	tag 'R' region:  u32 frame, i32 x0 y0 x1 y1, u32 w h, planes
//	tag 'F' frame:   u32 index, u32 w h, planes
//	tag 'S' stats:   u32 len, len bytes of JSON ScanStats   (terminal, success)
//	tag 'E' error:   u32 len, len bytes of JSON ErrorBody   (terminal, failure)
//	planes  := Y[w*h] Cb[(w/2)*(h/2)] Cr[(w/2)*(h/2)]
//
// The trailers deliberately reuse the v1 JSON encodings: the error
// envelope is shared between framings, so a mid-stream failure
// reconstructs the exact tasm.Err* sentinel regardless of how the
// pixels traveled, and a new trailer field never needs a frame-format
// bump. A stream that ends without a trailer record was torn
// mid-flight; readers must surface that as an error, never as clean
// exhaustion — the same contract as the NDJSON stats line.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/geom"
)

// Media types and negotiation headers for the streaming endpoints.
const (
	// ContentTypeNDJSON is the v1 stream encoding (the default): one
	// JSON StreamLine per line, planes base64-encoded.
	ContentTypeNDJSON = "application/x-ndjson"
	// ContentTypeBinary is the v2 stream encoding: length-prefixed
	// binary records with raw pixel planes.
	ContentTypeBinary = "application/x-tasm-frames"
	// APIVersionHeader requests a protocol version without touching
	// Accept; "2" selects the binary stream framing.
	APIVersionHeader = "Tasm-Api-Version"
	// APIVersionBinary is the APIVersionHeader value that selects
	// ContentTypeBinary.
	APIVersionBinary = "2"
)

// CacheBudgetHeader carries a per-request cache admission budget in
// bytes: how much of the daemon's shared decoded-tile cache this
// request may fill with its own decodes (0 = none — the request reads
// the cache but cannot pollute it). Absent means unlimited admission.
const CacheBudgetHeader = "Tasm-Cache-Budget"

// streamMagic opens every binary stream; a reader that does not see it
// is pointed at the wrong encoding (or the wrong port) and must fail
// loudly instead of misparsing pixel data as record tags.
var streamMagic = [8]byte{'T', 'A', 'S', 'M', 'F', 'R', 'M', '2'}

// Record tags.
const (
	tagRegion byte = 'R'
	tagFrame  byte = 'F'
	tagStats  byte = 'S'
	tagError  byte = 'E'
)

// Hostile-input bounds for the reader: a plane larger than
// maxPlanePixels (256 Mpx — 8K video is ~33 Mpx) or a JSON trailer
// larger than maxTrailerBytes cannot be legitimate and must not drive
// an allocation.
const (
	maxPlanePixels  = 1 << 28
	maxTrailerBytes = 1 << 20
)

// FrameStreamWriter encodes a result stream in the binary framing. It
// buffers internally; call Flush after each record to hand bytes to the
// transport (the server flushes per record so remote time-to-first-byte
// tracks the pipeline's time-to-first-result).
type FrameStreamWriter struct {
	bw     *bufio.Writer
	wrote  bool // magic emitted
	header [4 + 4*4 + 2*4 + 1]byte
}

// NewFrameStreamWriter returns a writer framing onto w.
func NewFrameStreamWriter(w io.Writer) *FrameStreamWriter {
	return &FrameStreamWriter{bw: bufio.NewWriterSize(w, 32<<10)}
}

func (w *FrameStreamWriter) magic() error {
	if w.wrote {
		return nil
	}
	w.wrote = true
	_, err := w.bw.Write(streamMagic[:])
	return err
}

// WriteLine encodes one stream record: exactly one of line's fields
// must be set, matching the NDJSON envelope contract.
func (w *FrameStreamWriter) WriteLine(line StreamLine) error {
	switch {
	case line.Region != nil:
		return w.writeRegion(*line.Region)
	case line.Frame != nil:
		return w.writeFrame(*line.Frame)
	case line.Stats != nil:
		return w.writeJSONRecord(tagStats, line.Stats)
	case line.Error != nil:
		return w.writeJSONRecord(tagError, line.Error)
	default:
		return fmt.Errorf("rpcwire: stream line with no payload")
	}
}

// Flush pushes buffered records to the underlying writer.
func (w *FrameStreamWriter) Flush() error { return w.bw.Flush() }

func (w *FrameStreamWriter) writeRegion(r Region) error {
	if err := w.magic(); err != nil {
		return err
	}
	h := w.header[:0]
	h = append(h, tagRegion)
	h = binary.LittleEndian.AppendUint32(h, uint32(r.Frame))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(r.Region.X0)))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(r.Region.Y0)))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(r.Region.X1)))
	h = binary.LittleEndian.AppendUint32(h, uint32(int32(r.Region.Y1)))
	if _, err := w.bw.Write(h); err != nil {
		return err
	}
	return w.writePlanes(r.Pixels)
}

func (w *FrameStreamWriter) writeFrame(f FrameLine) error {
	if err := w.magic(); err != nil {
		return err
	}
	h := w.header[:0]
	h = append(h, tagFrame)
	h = binary.LittleEndian.AppendUint32(h, uint32(f.Index))
	if _, err := w.bw.Write(h); err != nil {
		return err
	}
	return w.writePlanes(f.Pixels)
}

// writePlanes emits the w/h header and the three raw planes.
func (w *FrameStreamWriter) writePlanes(f Frame) error {
	if f.W <= 0 || f.H <= 0 || f.W%2 != 0 || f.H%2 != 0 ||
		len(f.Y) != f.W*f.H || len(f.Cb) != (f.W/2)*(f.H/2) || len(f.Cr) != (f.W/2)*(f.H/2) {
		return fmt.Errorf("rpcwire: refusing to frame inconsistent %dx%d pixels", f.W, f.H)
	}
	var dims [8]byte
	binary.LittleEndian.PutUint32(dims[0:], uint32(f.W))
	binary.LittleEndian.PutUint32(dims[4:], uint32(f.H))
	if _, err := w.bw.Write(dims[:]); err != nil {
		return err
	}
	for _, plane := range [][]byte{f.Y, f.Cb, f.Cr} {
		if _, err := w.bw.Write(plane); err != nil {
			return err
		}
	}
	return nil
}

// writeJSONRecord emits a length-prefixed JSON trailer record — the
// encoding shared with the NDJSON stream's final line.
func (w *FrameStreamWriter) writeJSONRecord(tag byte, v any) error {
	if err := w.magic(); err != nil {
		return err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var h [5]byte
	h[0] = tag
	binary.LittleEndian.PutUint32(h[1:], uint32(len(data)))
	if _, err := w.bw.Write(h[:]); err != nil {
		return err
	}
	_, err = w.bw.Write(data)
	return err
}

// FrameStreamReader decodes a binary result stream record by record
// into the same StreamLine envelope the NDJSON decoder produces, so
// consumers are encoding-agnostic past this point.
type FrameStreamReader struct {
	br        *bufio.Reader
	readMagic bool
}

// NewFrameStreamReader returns a reader decoding the binary framing
// from r.
func NewFrameStreamReader(r io.Reader) *FrameStreamReader {
	return &FrameStreamReader{br: bufio.NewReaderSize(r, 64<<10)}
}

// ReadLine decodes the next record. It returns io.EOF at a stream
// boundary between records; any other error (including a truncated
// record) is a torn or malformed stream. Enforcing the "a clean stream
// ends with a stats or error record" contract is the caller's job,
// exactly as with the NDJSON stats line.
func (r *FrameStreamReader) ReadLine() (StreamLine, error) {
	if !r.readMagic {
		var m [8]byte
		if _, err := io.ReadFull(r.br, m[:]); err != nil {
			if err == io.ErrUnexpectedEOF {
				err = fmt.Errorf("rpcwire: truncated stream magic: %w", io.ErrUnexpectedEOF)
			}
			return StreamLine{}, err
		}
		if m != streamMagic {
			return StreamLine{}, fmt.Errorf("rpcwire: bad stream magic %q (not a %s stream)", m, ContentTypeBinary)
		}
		r.readMagic = true
	}
	tag, err := r.br.ReadByte()
	if err != nil {
		return StreamLine{}, err // io.EOF here is a record boundary
	}
	switch tag {
	case tagRegion:
		var h [5 * 4]byte
		if _, err := io.ReadFull(r.br, h[:]); err != nil {
			return StreamLine{}, truncated(err)
		}
		reg := Region{
			Frame: int(binary.LittleEndian.Uint32(h[0:])),
			Region: geom.Rect{
				X0: int(int32(binary.LittleEndian.Uint32(h[4:]))),
				Y0: int(int32(binary.LittleEndian.Uint32(h[8:]))),
				X1: int(int32(binary.LittleEndian.Uint32(h[12:]))),
				Y1: int(int32(binary.LittleEndian.Uint32(h[16:]))),
			},
		}
		if reg.Pixels, err = r.readPlanes(); err != nil {
			return StreamLine{}, err
		}
		return StreamLine{Region: &reg}, nil
	case tagFrame:
		var h [4]byte
		if _, err := io.ReadFull(r.br, h[:]); err != nil {
			return StreamLine{}, truncated(err)
		}
		fl := FrameLine{Index: int(binary.LittleEndian.Uint32(h[:]))}
		if fl.Pixels, err = r.readPlanes(); err != nil {
			return StreamLine{}, err
		}
		return StreamLine{Frame: &fl}, nil
	case tagStats:
		var st core.ScanStats
		if err := r.readJSONRecord(&st); err != nil {
			return StreamLine{}, err
		}
		return StreamLine{Stats: &st}, nil
	case tagError:
		var body ErrorBody
		if err := r.readJSONRecord(&body); err != nil {
			return StreamLine{}, err
		}
		return StreamLine{Error: &body}, nil
	default:
		return StreamLine{}, fmt.Errorf("rpcwire: unknown stream record tag 0x%02x", tag)
	}
}

// readPlanes reads the w/h header, validates it against the hostile-
// input bounds, and reads the three raw planes.
func (r *FrameStreamReader) readPlanes() (Frame, error) {
	var dims [8]byte
	if _, err := io.ReadFull(r.br, dims[:]); err != nil {
		return Frame{}, truncated(err)
	}
	w := int(binary.LittleEndian.Uint32(dims[0:]))
	h := int(binary.LittleEndian.Uint32(dims[4:]))
	// Per-dimension bound before the product: w and h arrive as u32, so
	// w*h can overflow int64 negative and slip past a product-only
	// check straight into make().
	if w <= 0 || h <= 0 || w%2 != 0 || h%2 != 0 || w > maxPlanePixels || h > maxPlanePixels/w {
		return Frame{}, fmt.Errorf("rpcwire: implausible frame dimensions %dx%d on stream", w, h)
	}
	f := Frame{W: w, H: h,
		Y:  make([]byte, w*h),
		Cb: make([]byte, (w/2)*(h/2)),
		Cr: make([]byte, (w/2)*(h/2)),
	}
	for _, plane := range [][]byte{f.Y, f.Cb, f.Cr} {
		if _, err := io.ReadFull(r.br, plane); err != nil {
			return Frame{}, truncated(err)
		}
	}
	return f, nil
}

// readJSONRecord reads a length-prefixed JSON trailer into v.
func (r *FrameStreamReader) readJSONRecord(v any) error {
	var lenb [4]byte
	if _, err := io.ReadFull(r.br, lenb[:]); err != nil {
		return truncated(err)
	}
	n := int(binary.LittleEndian.Uint32(lenb[:]))
	if n <= 0 || n > maxTrailerBytes {
		return fmt.Errorf("rpcwire: implausible trailer length %d on stream", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r.br, data); err != nil {
		return truncated(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("rpcwire: malformed stream trailer: %w", err)
	}
	return nil
}

// truncated normalizes a mid-record EOF: io.EOF inside a record means
// the stream tore, which must never look like a boundary.
func truncated(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return fmt.Errorf("rpcwire: truncated stream record: %w", io.ErrUnexpectedEOF)
	}
	return err
}
