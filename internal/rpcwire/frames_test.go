package rpcwire

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/geom"
)

// randFrame builds a random even-dimensioned frame with all three
// planes filled from rng (including bytes that are not valid UTF-8 and
// would not survive a naive text encoding).
func randFrame(rng *rand.Rand) Frame {
	w := 2 * (1 + rng.Intn(32))
	h := 2 * (1 + rng.Intn(32))
	f := Frame{W: w, H: h,
		Y:  make([]byte, w*h),
		Cb: make([]byte, (w/2)*(h/2)),
		Cr: make([]byte, (w/2)*(h/2)),
	}
	rng.Read(f.Y)
	rng.Read(f.Cb)
	rng.Read(f.Cr)
	return f
}

// randStream builds a random payload sequence (regions and frames
// interleaved) and a terminal line: stats for clean streams, an error
// envelope for failed ones (the sentinel chosen from the full mapping
// table).
func randStream(rng *rand.Rand) ([]StreamLine, StreamLine) {
	n := rng.Intn(8)
	lines := make([]StreamLine, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			lines = append(lines, StreamLine{Region: &Region{
				Frame: rng.Intn(1 << 20),
				Region: geom.Rect{X0: rng.Intn(4096), Y0: rng.Intn(4096),
					X1: rng.Intn(4096), Y1: rng.Intn(4096)},
				Pixels: randFrame(rng),
			}})
		} else {
			lines = append(lines, StreamLine{Frame: &FrameLine{
				Index:  rng.Intn(1 << 20),
				Pixels: randFrame(rng),
			}})
		}
	}
	sentinels := Sentinels()
	if rng.Intn(2) == 0 {
		return lines, StreamLine{Stats: &core.ScanStats{
			DecodeWall: time.Duration(rng.Int63()), PixelsDecoded: rng.Int63(),
			RegionsReturned: n, SOTsTouched: rng.Intn(64),
		}}
	}
	s := sentinels[rng.Intn(len(sentinels))]
	_, body := EncodeError(fmt.Errorf("mid-stream: %w", s))
	return lines, StreamLine{Error: &body}
}

// encodeNDJSON / decodeNDJSON are the v1 framing, exactly as the server
// and client implement it (json.Encoder per line).
func encodeNDJSON(t *testing.T, lines []StreamLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, l := range lines {
		if err := enc.Encode(l); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func decodeNDJSON(t *testing.T, data []byte) []StreamLine {
	t.Helper()
	var out []StreamLine
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		var l StreamLine
		if err := dec.Decode(&l); err == io.EOF {
			return out
		} else if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
}

func encodeBinary(t *testing.T, lines []StreamLine) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewFrameStreamWriter(&buf)
	for _, l := range lines {
		if err := w.WriteLine(l); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil { // per-record flush, as the server does
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func decodeBinary(t *testing.T, data []byte) []StreamLine {
	t.Helper()
	var out []StreamLine
	r := NewFrameStreamReader(bytes.NewReader(data))
	for {
		l, err := r.ReadLine()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, l)
	}
}

// TestFramingRoundTripProperty is the v2 acceptance property: random
// streams — regions and frames with random planes, terminated by a
// stats or error trailer — round-trip through BOTH framings to
// identical decoded content: byte-identical pixels, identical headers,
// and identical sentinel reconstruction through the shared error
// envelope. It also pins the wire-size motivation: the binary stream
// must be materially smaller than the NDJSON stream carrying the same
// pixels.
func TestFramingRoundTripProperty(t *testing.T) {
	var ndjsonBytes, binaryBytes, pixelBytes int64
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		payload, terminal := randStream(rng)
		lines := append(append([]StreamLine{}, payload...), terminal)

		nd := encodeNDJSON(t, lines)
		bin := encodeBinary(t, lines)
		ndjsonBytes += int64(len(nd))
		binaryBytes += int64(len(bin))
		for _, l := range payload {
			if l.Region != nil {
				pixelBytes += int64(len(l.Region.Pixels.Y) + len(l.Region.Pixels.Cb) + len(l.Region.Pixels.Cr))
			}
			if l.Frame != nil {
				pixelBytes += int64(len(l.Frame.Pixels.Y) + len(l.Frame.Pixels.Cb) + len(l.Frame.Pixels.Cr))
			}
		}

		got := map[string][]StreamLine{
			"ndjson": decodeNDJSON(t, nd),
			"binary": decodeBinary(t, bin),
		}
		for enc, gl := range got {
			if len(gl) != len(lines) {
				t.Fatalf("seed %d %s: %d lines decoded, want %d", seed, enc, len(gl), len(lines))
			}
			for i, l := range lines {
				g := gl[i]
				switch {
				case l.Region != nil:
					if g.Region == nil || g.Region.Frame != l.Region.Frame || g.Region.Region != l.Region.Region {
						t.Fatalf("seed %d %s line %d: region header mismatch", seed, enc, i)
					}
					assertFrameEqual(t, g.Region.Pixels, l.Region.Pixels, enc, seed, i)
				case l.Frame != nil:
					if g.Frame == nil || g.Frame.Index != l.Frame.Index {
						t.Fatalf("seed %d %s line %d: frame header mismatch", seed, enc, i)
					}
					assertFrameEqual(t, g.Frame.Pixels, l.Frame.Pixels, enc, seed, i)
				case l.Stats != nil:
					if g.Stats == nil || *g.Stats != *l.Stats {
						t.Fatalf("seed %d %s line %d: stats mismatch", seed, enc, i)
					}
				case l.Error != nil:
					if g.Error == nil {
						t.Fatalf("seed %d %s line %d: error trailer lost", seed, enc, i)
					}
					// The shared envelope contract: both framings
					// reconstruct the same sentinel via errors.Is.
					want, gotErr := DecodeError(*l.Error), DecodeError(*g.Error)
					var wre *RemoteError
					if !errors.As(want, &wre) {
						t.Fatal("decode lost RemoteError type")
					}
					if !errors.Is(gotErr, errors.Unwrap(want)) && errors.Unwrap(want) != nil {
						t.Fatalf("seed %d %s: sentinel lost across framing: %v vs %v", seed, enc, gotErr, want)
					}
					if gotErr.Error() != want.Error() {
						t.Fatalf("seed %d %s: message diverged: %q vs %q", seed, enc, gotErr.Error(), want.Error())
					}
				}
			}
		}
	}

	// The point of v2: base64 + JSON quoting must cost ≥ 25% on the
	// wire, and the binary framing must stay within a few percent of
	// the raw pixel payload.
	if binaryBytes >= ndjsonBytes*3/4 {
		t.Errorf("binary framing saved too little: %d vs %d NDJSON bytes", binaryBytes, ndjsonBytes)
	}
	if pixelBytes > 0 && float64(binaryBytes) > 1.20*float64(pixelBytes) {
		t.Errorf("binary framing overhead too high: %d framed bytes for %d pixel bytes", binaryBytes, pixelBytes)
	}
}

func assertFrameEqual(t *testing.T, got, want Frame, enc string, seed int64, i int) {
	t.Helper()
	if got.W != want.W || got.H != want.H ||
		!bytes.Equal(got.Y, want.Y) || !bytes.Equal(got.Cb, want.Cb) || !bytes.Equal(got.Cr, want.Cr) {
		t.Fatalf("seed %d %s line %d: pixels not byte-identical after decode", seed, enc, i)
	}
}

// TestBinaryStreamTruncation: a stream torn inside a record (the
// network died mid-plane) must decode to an explicit truncation error,
// never a clean boundary — mirroring the NDJSON "ended without stats"
// contract.
func TestBinaryStreamTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	full := encodeBinary(t, []StreamLine{
		{Region: &Region{Frame: 3, Region: geom.Rect{X1: 4, Y1: 4}, Pixels: randFrame(rng)}},
	})
	for _, cut := range []int{4, 9, 20, len(full) - 1} {
		r := NewFrameStreamReader(bytes.NewReader(full[:cut]))
		_, err := r.ReadLine()
		if err == nil || err == io.EOF {
			t.Fatalf("cut at %d: got %v, want a truncation error", cut, err)
		}
	}
	// And a cut exactly at the record boundary is a clean EOF (the
	// caller's missing-trailer check takes it from there).
	r := NewFrameStreamReader(bytes.NewReader(full))
	if _, err := r.ReadLine(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadLine(); err != io.EOF {
		t.Fatalf("at boundary: got %v, want io.EOF", err)
	}
}

// TestBinaryStreamRejectsGarbage: wrong magic and absurd dimensions
// must fail loudly, not allocate.
func TestBinaryStreamRejectsGarbage(t *testing.T) {
	if _, err := NewFrameStreamReader(bytes.NewReader([]byte("NOTTASM2xxxx"))).ReadLine(); err == nil {
		t.Fatal("bad magic accepted")
	}
	dims := [][]byte{
		{0xff, 0xff, 0xff, 0x7f, 2, 0, 0, 0}, // w huge, h = 2
		// w = h = 3037000500 (even): w*h overflows int64 negative, so a
		// product-only bound check would pass it straight into make().
		{0x34, 0xf3, 0x04, 0xb5, 0x34, 0xf3, 0x04, 0xb5},
	}
	for _, d := range dims {
		var buf bytes.Buffer
		buf.Write(streamMagic[:])
		buf.WriteByte(tagRegion)
		buf.Write(make([]byte, 20)) // zero frame header
		buf.Write(d)
		if _, err := NewFrameStreamReader(&buf).ReadLine(); err == nil {
			t.Fatalf("absurd dimensions %v accepted", d)
		}
	}
}

// TestNegotiateStreamEncoding pins the negotiation matrix: NDJSON
// unless the client names the binary type in Accept (with or without
// parameters, case-insensitive, anywhere in the list) or selects v2 via
// Tasm-Api-Version.
func TestNegotiateStreamEncoding(t *testing.T) {
	cases := []struct {
		accept, version, want string
	}{
		{"", "", ContentTypeNDJSON},
		{"*/*", "", ContentTypeNDJSON},
		{"application/json", "", ContentTypeNDJSON},
		{ContentTypeBinary, "", ContentTypeBinary},
		{"application/X-TASM-Frames", "", ContentTypeBinary},
		{"application/x-ndjson, application/x-tasm-frames;q=0.9", "", ContentTypeBinary},
		{"", APIVersionBinary, ContentTypeBinary},
		{"", "1", ContentTypeNDJSON},
	}
	for _, c := range cases {
		r := httptest.NewRequest("POST", "/v1/scan", nil)
		if c.accept != "" {
			r.Header.Set("Accept", c.accept)
		}
		if c.version != "" {
			r.Header.Set(APIVersionHeader, c.version)
		}
		if got := NegotiateStreamEncoding(r); got != c.want {
			t.Errorf("Accept=%q Version=%q: got %s, want %s", c.accept, c.version, got, c.want)
		}
	}
}
