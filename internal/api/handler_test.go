package api

// White-box tests of the one handler set over an in-memory fake
// Backend: no store on disk, so the surface's own decisions — which
// status and envelope a typed failure maps to, when Retry-After is
// sent, what a recovered panic counts and renders — are tested apart
// from any storage behaviour.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// fake is a Backend whose every exercised call fails with err (or, for
// the stream, yields frames then fails with err). The embedded nil
// interface satisfies the rest of the method set; reaching it is a test
// bug and panics.
type fake struct {
	Backend
	err    error
	frames int
}

func (f *fake) VideosContext(context.Context) ([]string, error) { return nil, f.err }
func (f *fake) AppendContext(context.Context, string, []*tasm.Frame) (tasm.AppendStats, error) {
	return tasm.AppendStats{}, f.err
}
func (f *fake) DecodeFramesCursor(context.Context, string, int, int) (Cursor[tasm.FrameResult], error) {
	if f.frames == 0 {
		return nil, f.err
	}
	return &fakeCursor{left: f.frames, err: f.err}, nil
}

type fakeCursor struct {
	left int
	err  error
}

func (c *fakeCursor) Next() bool { c.left--; return c.left >= 0 }
func (c *fakeCursor) Result() tasm.FrameResult {
	return tasm.FrameResult{Index: c.left, Pixels: tasm.NewFrame(2, 2)}
}
func (c *fakeCursor) Err() error            { return c.err }
func (c *fakeCursor) Stats() tasm.ScanStats { return tasm.ScanStats{} }
func (c *fakeCursor) Close() error          { return nil }

// fakeGate admits everyone as tenant "t" until err is set.
type fakeGate struct{ err error }

func (g *fakeGate) Admit(*http.Request) (string, func(), error) { return "t", func() {}, g.err }
func (g *fakeGate) Observe(string, int, int64)                  {}

func newTestHandler(b Backend, gate Gate) *Handler {
	quiet := log.New(io.Discard, "", 0)
	return New(b, Config{Logger: quiet, AccessLogger: quiet, MaxBodyBytes: 1 << 20,
		Registry: obs.NewRegistry(), MetricsPrefix: "tasm", Gate: gate})
}

func serve(h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
	return rec
}

func envelope(t *testing.T, rec *httptest.ResponseRecorder) rpcwire.ErrorBody {
	t.Helper()
	var env struct {
		Error rpcwire.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&env); err != nil {
		t.Fatalf("status %d: body is not an error envelope: %v", rec.Code, err)
	}
	return env.Error
}

// TestErrorMapping: a typed sentinel from any Backend becomes its
// status and envelope code, before a stream's 200 or in its trailer.
func TestErrorMapping(t *testing.T) {
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{fmt.Errorf("x: %w", tasm.ErrVideoNotFound), http.StatusNotFound, "video_not_found"},
		{fmt.Errorf("x: %w", tasm.ErrVideoExists), http.StatusConflict, "video_exists"},
		{fmt.Errorf("x: %w", tasm.ErrShardUnavailable), http.StatusBadGateway, "shard_unavailable"},
		{fmt.Errorf("x: %w", context.DeadlineExceeded), http.StatusGatewayTimeout, "deadline_exceeded"},
		{errors.New("disk on fire"), http.StatusInternalServerError, "internal"},
	} {
		h := newTestHandler(&fake{err: tc.err}, nil)
		for _, rec := range []*httptest.ResponseRecorder{
			serve(h, "GET", "/v1/videos", ""),
			serve(h, "POST", "/v1/decodeframes", `{"video":"v","from":0,"to":1}`),
		} {
			if rec.Code != tc.status {
				t.Errorf("%v: status %d, want %d", tc.err, rec.Code, tc.status)
			}
			if got := envelope(t, rec).Code; got != tc.code {
				t.Errorf("%v: code %q, want %q", tc.err, got, tc.code)
			}
			if rec.Header().Get("Retry-After") != "" {
				t.Errorf("%v: unexpected Retry-After", tc.err)
			}
		}
		// Mid-stream the status is already 200; the same envelope rides
		// the trailer line after the frames that were delivered.
		rec := serve(newTestHandler(&fake{err: tc.err, frames: 2}, nil), "POST", "/v1/decodeframes", `{"video":"v","from":0,"to":2}`)
		lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
		var trailer rpcwire.StreamLine
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &trailer); err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || len(lines) != 3 || trailer.Error == nil || trailer.Error.Code != tc.code {
			t.Errorf("%v mid-stream: status %d, %d lines, trailer %+v", tc.err, rec.Code, len(lines), trailer.Error)
		}
	}
}

// TestRetryAfter: the two rejections that promise "nothing was done,
// come back" carry Retry-After — append backpressure (429) from the
// backend, overloaded (503) from the gate — and an auth refusal from
// the same gate does not.
func TestRetryAfter(t *testing.T) {
	b := &fake{err: fmt.Errorf("queue full: %w", tasm.ErrIngestBackpressure)}
	rec := serve(newTestHandler(b, nil), "POST", "/v1/append", `{"video":"cam","frames":[]}`)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("backpressure: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if code := envelope(t, rec).Code; code != "ingest_backpressure" {
		t.Fatalf("backpressure code %q", code)
	}

	gate := &fakeGate{err: fmt.Errorf("%w: full", rpcwire.ErrOverloaded)}
	h := newTestHandler(&fake{}, gate)
	rec = serve(h, "GET", "/v1/videos", "")
	if rec.Code != http.StatusServiceUnavailable || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("gate overload: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
	if rec := serve(h, "GET", "/v1/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz must bypass the gate, got %d", rec.Code)
	}
	gate.err = fmt.Errorf("%w: no token", rpcwire.ErrUnauthorized)
	rec = serve(h, "GET", "/v1/videos", "")
	if rec.Code != http.StatusUnauthorized || rec.Header().Get("Retry-After") != "" {
		t.Fatalf("gate refusal: status %d, Retry-After %q", rec.Code, rec.Header().Get("Retry-After"))
	}
}

// TestPanicRecovery: a panicking handler becomes a logged 500 envelope,
// not a dead daemon; every recovered panic lands in
// <prefix>_request_panics_total, which renders with its HELP line, and
// the request still flows through the wall histogram.
func TestPanicRecovery(t *testing.T) {
	h := newTestHandler(&fake{}, nil)
	h.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })
	for i := 0; i < 3; i++ {
		rec := serve(h, "GET", "/v1/boom", "")
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panic %d: status %d, want 500", i, rec.Code)
		}
		if code := envelope(t, rec).Code; code != "internal" {
			t.Fatalf("code %q", code)
		}
	}
	if got := h.metrics.panics.With().Value(); got != 3 {
		t.Fatalf("panics counter = %d, want 3", got)
	}
	body := serve(h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"tasm_request_panics_total 3",
		"# HELP tasm_request_panics_total ",
		`tasm_request_seconds_count{endpoint="GET /v1/boom"} 3`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
