// Serving-side half of the wire format, used by the one handler set in
// internal/api: parsing the per-request headers into the operation
// context, the unary JSON and error-envelope writers, and the stream
// framing with its trailer contract.

package rpcwire

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/obs"
)

// RequestContext derives the operation context from a request: the
// request context (cancelled on client disconnect), optionally bounded
// by the Tasm-Deadline-Ms header — the one per-request knob of the
// serving contract.
func RequestContext(r *http.Request) (ctx context.Context, cancel context.CancelFunc, err error) {
	ctx = r.Context()
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		ctx, cancel = context.WithCancel(ctx)
		return ctx, cancel, nil
	}
	ms, perr := strconv.ParseInt(h, 10, 64)
	if perr != nil || ms <= 0 {
		return nil, nil, fmt.Errorf("%w: header %s=%q", ErrBadRequest, DeadlineHeader, h)
	}
	ctx, cancel = context.WithTimeout(ctx, time.Duration(ms)*time.Millisecond)
	return ctx, cancel, nil
}

// ReadJSON decodes a request body, classifying malformed input as
// bad_request.
func ReadJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%w: decoding body: %v", ErrBadRequest, err)
	}
	return nil
}

// WriteJSON sends a unary 200 response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // past the header there is no better channel than the connection itself
}

// WriteError sends the mapped status and error envelope (unary shape).
func WriteError(w http.ResponseWriter, err error) {
	status, body := EncodeError(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(struct {
		Error ErrorBody `json:"error"`
	}{body})
}

// StreamSource is the cursor shape the streaming endpoints drain: local
// tasm cursors, remote client cursors, and the scatter-gather merge all
// satisfy it.
type StreamSource interface {
	Next() bool
	Err() error
	Stats() core.ScanStats
}

// lineEncoder is one stream framing: v1 NDJSON or the v2 binary frame
// encoding, chosen per request by content negotiation. Both carry the
// same StreamLine records and share the error-envelope trailer, so
// everything above this seam is encoding-agnostic.
type lineEncoder interface {
	encode(StreamLine) error
	// flush pushes any buffering between the encoder and the network.
	flush() error
}

type ndjsonEncoder struct{ enc *json.Encoder }

func (e ndjsonEncoder) encode(l StreamLine) error { return e.enc.Encode(l) }
func (e ndjsonEncoder) flush() error              { return nil }

type binaryEncoder struct{ w *FrameStreamWriter }

func (e binaryEncoder) encode(l StreamLine) error { return e.w.WriteLine(l) }
func (e binaryEncoder) flush() error              { return e.w.Flush() }

// ServeStream drains cur into w in the negotiated framing, one record
// per result, flushed per record so TTFB tracks the pipeline's
// time-to-first-result. A successful stream ends with a stats record —
// the client's end-of-stream marker — and a failed one with an
// error-envelope record (the envelope both framings share, so
// mid-stream failures reconstruct the same sentinels either way).
// Write failures mean the client went away: the cursor's context
// (derived from the request context) is already cancelled or about to
// be, so the caller's deferred Close releases leases; nothing useful
// can be sent, so ServeStream just returns.
func ServeStream[C StreamSource](w http.ResponseWriter, r *http.Request, cur C, line func(C) StreamLine) {
	ct := NegotiateStreamEncoding(r)
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Accel-Buffering", "no") // defeat proxy buffering; streaming is the point
	w.WriteHeader(http.StatusOK)
	var enc lineEncoder
	if ct == ContentTypeBinary {
		enc = binaryEncoder{NewFrameStreamWriter(w)}
	} else {
		enc = ndjsonEncoder{json.NewEncoder(w)}
	}
	flush := func() {
		if err := enc.flush(); err != nil {
			return
		}
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
	}
	// The flush span accumulates the wall spent encoding + pushing
	// records to the network — the serving-side cost a trace must
	// separate from the decode pipeline feeding the cursor.
	tr := obs.FromContext(r.Context())
	streamStart := time.Now()
	var flushWall time.Duration
	var records int64
	defer func() {
		tr.AddSpan("flush", streamStart, flushWall, "records", strconv.FormatInt(records, 10))
	}()
	flush() // commit the header before the first (possibly slow) decode
	for cur.Next() {
		t0 := time.Now()
		if err := enc.encode(line(cur)); err != nil {
			return
		}
		flush()
		flushWall += time.Since(t0)
		records++
	}
	var final StreamLine
	if err := cur.Err(); err != nil {
		_, body := EncodeError(err)
		final.Error = &body
	} else {
		stats := cur.Stats()
		final.Stats = &stats
	}
	_ = enc.encode(final)
	flush()
}
