package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// stream is one open streaming response: the shared machinery under
// ScanCursor and FrameCursor. It decodes the stream incrementally —
// one record per Next, through whichever framing the server chose
// (the response Content-Type decides: v1 NDJSON lines or v2 binary
// frame records) — and enforces the end-of-stream contract: a clean
// stream ends with a stats record; an EOF before one means the server
// or the network died mid-stream and is an error, never silent
// truncation.
type stream struct {
	cancel context.CancelFunc
	ctx    context.Context
	resp   *http.Response
	lr     lineReader

	// traceID is the operation's Tasm-Trace-Id — the id the server
	// echoed (its /v1/trace ring key), falling back to the id sent.
	traceID string

	stats  tasm.ScanStats
	err    error
	done   bool // saw the stats record: clean exhaustion
	closed bool
}

// lineReader is one stream framing's decoder: it yields StreamLine
// records and io.EOF at a clean record boundary; a torn or malformed
// stream is any other error.
type lineReader interface {
	readLine() (rpcwire.StreamLine, error)
}

// ndjsonLineReader decodes the v1 framing: one JSON object per line.
type ndjsonLineReader struct{ br *bufio.Reader }

func (r *ndjsonLineReader) readLine() (rpcwire.StreamLine, error) {
	// A final line without a trailing newline (err == io.EOF with bytes
	// in hand) still parses; an empty read is a clean EOF.
	raw, err := r.br.ReadBytes('\n')
	if err != nil && (len(raw) == 0 || err != io.EOF) {
		return rpcwire.StreamLine{}, err
	}
	var line rpcwire.StreamLine
	if err := json.Unmarshal(raw, &line); err != nil {
		return rpcwire.StreamLine{}, fmt.Errorf("malformed stream line: %w", err)
	}
	return line, nil
}

// binaryLineReader decodes the v2 framing through rpcwire's record
// reader.
type binaryLineReader struct{ fr *rpcwire.FrameStreamReader }

func (r binaryLineReader) readLine() (rpcwire.StreamLine, error) { return r.fr.ReadLine() }

// startStream issues a streaming POST (under the retry policy — a
// limiter rejection happens before the server does any work). A
// non-200 response (constructor errors: unknown video, invalid range,
// bad SQL) decodes through the error envelope before any cursor
// exists. The decoder is chosen by the response's Content-Type, so the
// cursor handles either framing no matter what the client requested.
func (c *Client) startStream(ctx context.Context, path string, req any) (*stream, error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return c.openStream(ctx, http.MethodPost, path, data)
}

// openStream is the framing-agnostic core of startStream, shared with
// the bodyless GET streams (/v1/subscribe): body nil issues the request
// without one.
func (c *Client) openStream(ctx context.Context, method, path string, body []byte) (*stream, error) {
	var s *stream
	tid := traceID(ctx)
	err := c.withRetry(ctx, func() error {
		sctx, cancel := context.WithCancel(ctx)
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		hr, err := http.NewRequestWithContext(sctx, method, c.base+path, rd)
		if err != nil {
			cancel()
			return fmt.Errorf("client: %w", err)
		}
		if body != nil {
			hr.Header.Set("Content-Type", "application/json")
		}
		if c.enc == Binary {
			hr.Header.Set("Accept", rpcwire.ContentTypeBinary)
		} else {
			hr.Header.Set("Accept", rpcwire.ContentTypeNDJSON)
		}
		c.applyHeaders(hr, ctx, tid)
		res, err := c.hc.Do(hr)
		if err != nil {
			cancel()
			return transportError(ctx, err)
		}
		if res.StatusCode != http.StatusOK {
			defer cancel()
			defer func() {
				// Drain before close (as do() does) so a retried 503
				// reuses the pooled connection instead of redialing.
				io.Copy(io.Discard, io.LimitReader(res.Body, 1<<20)) //nolint:errcheck // keep-alive best effort
				res.Body.Close()
			}()
			return decodeErrorResponse(res)
		}
		var lr lineReader
		if ct, _, _ := strings.Cut(res.Header.Get("Content-Type"), ";"); strings.TrimSpace(ct) == rpcwire.ContentTypeBinary {
			lr = binaryLineReader{rpcwire.NewFrameStreamReader(res.Body)}
		} else {
			lr = &ndjsonLineReader{bufio.NewReaderSize(res.Body, 64<<10)}
		}
		s = &stream{cancel: cancel, ctx: sctx, resp: res, lr: lr, traceID: tid}
		if echoed := res.Header.Get(obs.TraceHeader); echoed != "" {
			s.traceID = echoed
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// next reads and decodes one record. It returns (line, true) for a
// payload record and (zero, false) at end of stream — clean or failed;
// s.err distinguishes.
func (s *stream) next() (rpcwire.StreamLine, bool) {
	if s.done || s.closed || s.err != nil {
		return rpcwire.StreamLine{}, false
	}
	line, err := s.lr.readLine()
	if err == io.EOF {
		s.fail(fmt.Errorf("client: stream ended without a stats or error line: %w", io.ErrUnexpectedEOF))
		return rpcwire.StreamLine{}, false
	}
	if err != nil {
		s.fail(fmt.Errorf("client: reading stream: %w", err))
		return rpcwire.StreamLine{}, false
	}
	switch {
	case line.Error != nil:
		s.fail(rpcwire.DecodeError(*line.Error))
		return rpcwire.StreamLine{}, false
	case line.Stats != nil:
		s.stats = *line.Stats
		s.done = true
		s.teardown()
		return rpcwire.StreamLine{}, false
	case line.Region != nil || line.Frame != nil:
		return line, true
	default:
		s.fail(fmt.Errorf("client: stream line with no payload"))
		return rpcwire.StreamLine{}, false
	}
}

// fail records the stream-terminating error (first one wins, matching
// the in-process cursor) and tears the request down. A failure caused
// by the caller's own cancellation surfaces as the context error.
func (s *stream) fail(err error) {
	if s.err == nil {
		if cerr := s.ctx.Err(); cerr != nil && !isEnvelopeError(err) {
			err = fmt.Errorf("client: stream: %w", cerr)
		}
		s.err = err
	}
	s.teardown()
}

// isEnvelopeError reports whether err came off the wire as an error
// envelope (those already carry the server's classification, e.g.
// deadline_exceeded, and must not be re-labeled with the local ctx
// state).
func isEnvelopeError(err error) bool {
	var re *rpcwire.RemoteError
	return errors.As(err, &re)
}

// teardown cancels the request and releases the connection. Cancelling
// the request context is what propagates to the server: its handler
// context dies, the server-side cursor is cancelled, and every read
// lease the scan held is released before the server finishes the
// request.
func (s *stream) teardown() {
	if s.resp != nil {
		s.cancel()
		s.resp.Body.Close()
		s.resp = nil
	}
}

// close implements cursor Close: idempotent, and a close before
// exhaustion records tasm.ErrCursorClosed exactly like the in-process
// cursor, so remote and local callers share cleanup logic.
func (s *stream) close() error {
	if !s.closed {
		s.closed = true
		if !s.done && s.err == nil {
			s.err = fmt.Errorf("client: %w", tasm.ErrCursorClosed)
		}
		s.teardown()
	}
	return nil
}

// errOrNil mirrors the in-process cursor's Err: nil while streaming and
// after clean exhaustion, the terminating error otherwise.
func (s *stream) errOrNil() error {
	if s.done {
		return nil
	}
	return s.err
}

// ScanCursor streams a remote Scan's pixel regions in frame order. It
// mirrors tasm.Cursor: Next/Result/Err/Stats/Close with the same
// semantics.
type ScanCursor struct {
	s   *stream
	cur tasm.RegionResult
}

// Next advances to the next region, blocking on the network as needed.
// It returns false at end of stream; consult Err to distinguish clean
// exhaustion from failure.
func (c *ScanCursor) Next() bool {
	line, ok := c.s.next()
	if !ok {
		c.cur = tasm.RegionResult{}
		return false
	}
	if line.Region == nil {
		c.s.fail(fmt.Errorf("client: non-region payload on scan stream"))
		c.cur = tasm.RegionResult{}
		return false
	}
	r, err := line.Region.ToRegion()
	if err != nil {
		c.s.fail(fmt.Errorf("client: invalid region on stream: %w", err))
		c.cur = tasm.RegionResult{}
		return false
	}
	c.cur = r
	return true
}

// Result returns the region Next advanced to.
func (c *ScanCursor) Result() tasm.RegionResult { return c.cur }

// Err returns the error that terminated the stream, nil while streaming
// or after clean exhaustion.
func (c *ScanCursor) Err() error { return c.s.errOrNil() }

// Stats returns the server's final ScanStats once the stream is
// drained (zero before that — remote stats arrive on the last line).
func (c *ScanCursor) Stats() tasm.ScanStats { return c.s.stats }

// TraceID returns the operation's Tasm-Trace-Id: the key under which
// every daemon that served a hop of this scan indexed its trace.
func (c *ScanCursor) TraceID() string { return c.s.traceID }

// Close cancels the remote scan and releases the connection. The
// cancellation reaches the server, which stops decode work and
// releases every read lease the scan held.
func (c *ScanCursor) Close() error { return c.s.close() }

// FrameCursor streams remote whole reassembled frames in order. It
// mirrors tasm.FrameCursor.
type FrameCursor struct {
	s   *stream
	cur tasm.FrameResult
}

// Next advances to the next frame.
func (c *FrameCursor) Next() bool {
	line, ok := c.s.next()
	if !ok {
		c.cur = tasm.FrameResult{}
		return false
	}
	if line.Frame == nil {
		c.s.fail(fmt.Errorf("client: non-frame payload on decode stream"))
		c.cur = tasm.FrameResult{}
		return false
	}
	f, err := line.Frame.ToFrameResult()
	if err != nil {
		c.s.fail(fmt.Errorf("client: invalid frame on stream: %w", err))
		c.cur = tasm.FrameResult{}
		return false
	}
	c.cur = f
	return true
}

// Result returns the frame Next advanced to.
func (c *FrameCursor) Result() tasm.FrameResult { return c.cur }

// Err returns the error that terminated the stream, nil while streaming
// or after clean exhaustion.
func (c *FrameCursor) Err() error { return c.s.errOrNil() }

// Stats returns the server's final ScanStats once drained.
func (c *FrameCursor) Stats() tasm.ScanStats { return c.s.stats }

// TraceID returns the operation's Tasm-Trace-Id (see ScanCursor.TraceID).
func (c *FrameCursor) TraceID() string { return c.s.traceID }

// Close cancels the remote decode and releases the connection.
func (c *FrameCursor) Close() error { return c.s.close() }
