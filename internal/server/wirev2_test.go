package server_test

// Wire protocol v2 tests: the binary frame streaming through the full
// stack — negotiation at the handler, encoding on the wire, decoding
// in the client.

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/server"
)

// binaryClient connects a second client to the harness asking for the
// v2 framing.
func binaryClient(t *testing.T, h *harness, extra ...client.Option) *client.Client {
	t.Helper()
	c, err := client.New(h.ts.URL, append([]client.Option{client.WithEncoding(client.Binary)}, extra...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestBinaryRemoteScanByteIdentical is the v2 acceptance bar: the same
// scan through the binary framing yields byte-identical regions, in
// the same order, with the same stats, as both the in-process scan and
// the NDJSON remote scan.
func TestBinaryRemoteScanByteIdentical(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{})
	ref, refSt, err := h.sm.ScanSQLContext(ctx, trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	nd, _, err := h.c.ScanSQLContext(context.Background(), trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	bc := binaryClient(t, h)
	bin, binSt, err := bc.ScanSQLContext(context.Background(), trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(bin) != len(ref) || len(nd) != len(ref) {
		t.Fatalf("region counts diverge: inproc %d, ndjson %d, binary %d", len(ref), len(nd), len(bin))
	}
	for i := range ref {
		if bin[i].Frame != ref[i].Frame || bin[i].Region != ref[i].Region {
			t.Fatalf("region %d: binary header (%d,%v) != local (%d,%v)", i, bin[i].Frame, bin[i].Region, ref[i].Frame, ref[i].Region)
		}
		if string(bin[i].Pixels.Y) != string(ref[i].Pixels.Y) ||
			string(bin[i].Pixels.Cb) != string(ref[i].Pixels.Cb) ||
			string(bin[i].Pixels.Cr) != string(ref[i].Pixels.Cr) {
			t.Fatalf("region %d: binary pixels not byte-identical to in-process", i)
		}
		if string(bin[i].Pixels.Y) != string(nd[i].Pixels.Y) {
			t.Fatalf("region %d: the two wire framings decoded different pixels", i)
		}
	}
	if binSt.RegionsReturned != refSt.RegionsReturned || binSt.SOTsTouched != refSt.SOTsTouched {
		t.Fatalf("stats differ: binary %+v, local %+v", binSt, refSt)
	}
}

// TestBinaryRemoteDecodeFramesByteIdentical covers the whole-frame
// stream under the v2 framing.
func TestBinaryRemoteDecodeFramesByteIdentical(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{})
	ref, _, err := h.sm.DecodeFramesContext(ctx, "traffic", 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	bc := binaryClient(t, h)
	cur, err := bc.DecodeFramesCursor(context.Background(), "traffic", 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	i := 0
	for cur.Next() {
		r := cur.Result()
		if r.Index != 5+i || string(r.Pixels.Y) != string(ref[i].Y) {
			t.Fatalf("frame %d differs under binary framing", r.Index)
		}
		i++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("streamed %d frames, want %d", i, len(ref))
	}
}

// TestBinarySentinelParity pins errors.Is parity across encodings:
// constructor failures and mid-stream failures reconstruct the same
// sentinels through the binary framing as through NDJSON and
// in-process.
func TestBinarySentinelParity(t *testing.T) {
	h := newHarness(t, server.Config{})
	bc := binaryClient(t, h)
	if _, err := bc.ScanSQLCursor(context.Background(), "SELECT car FROM missing"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Fatalf("binary scan miss: got %v, want ErrVideoNotFound", err)
	}
	if _, err := bc.DecodeFramesCursor(context.Background(), "traffic", 90, 95); !errors.Is(err, tasm.ErrInvalidRange) {
		t.Fatalf("binary bad range: got %v, want ErrInvalidRange", err)
	}
	// Mid-stream: a 1ms deadline dies either before the stream (504) or
	// inside it (an error record in the binary trailer); both must
	// reconstruct context.DeadlineExceeded. Raw request so we exercise
	// the server-side binary error record, not just the client mapping.
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/scan",
		strings.NewReader(`{"sql":"SELECT car FROM traffic WHERE 0 <= t < 40"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", rpcwire.ContentTypeBinary)
	req.Header.Set(rpcwire.DeadlineHeader, "1")
	res, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	switch res.StatusCode {
	case http.StatusGatewayTimeout:
		// Expired at the boundary: the unary envelope path, already
		// covered by TestDeadlineHeaderExpiry.
	case http.StatusOK:
		if ct := res.Header.Get("Content-Type"); ct != rpcwire.ContentTypeBinary {
			t.Fatalf("negotiated content type %q, want %s", ct, rpcwire.ContentTypeBinary)
		}
		fr := rpcwire.NewFrameStreamReader(res.Body)
		sawDeadline := false
		for {
			line, err := fr.ReadLine()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if line.Stats != nil {
				t.Fatal("1ms budget produced a clean stats record; deadline was not honored")
			}
			if line.Error != nil {
				if !errors.Is(rpcwire.DecodeError(*line.Error), context.DeadlineExceeded) {
					t.Fatalf("binary error record %+v does not match context.DeadlineExceeded", line.Error)
				}
				sawDeadline = true
			}
		}
		if !sawDeadline {
			t.Fatal("no deadline_exceeded record in the binary stream")
		}
	default:
		t.Fatalf("unexpected status %d", res.StatusCode)
	}
}

// TestBinaryContentTypeNegotiated: the handler answers with the
// framing the request asked for, and the default stays NDJSON.
func TestBinaryContentTypeNegotiated(t *testing.T) {
	h := newHarness(t, server.Config{})
	body := `{"sql":"SELECT car FROM traffic WHERE 0 <= t < 5"}`
	for _, c := range []struct {
		hdr, val, want string
	}{
		{"", "", rpcwire.ContentTypeNDJSON},
		{"Accept", rpcwire.ContentTypeBinary, rpcwire.ContentTypeBinary},
		{rpcwire.APIVersionHeader, rpcwire.APIVersionBinary, rpcwire.ContentTypeBinary},
	} {
		req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/scan", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if c.hdr != "" {
			req.Header.Set(c.hdr, c.val)
		}
		res, err := h.ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, res.Body) //nolint:errcheck
		res.Body.Close()
		if ct := res.Header.Get("Content-Type"); ct != c.want {
			t.Fatalf("%s=%s: content type %q, want %q", c.hdr, c.val, ct, c.want)
		}
	}
}
