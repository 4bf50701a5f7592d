package server

// White-box audits of the error-path counters. The panic-recovery and
// limiter-rejection branches are exactly the paths a healthy load run
// never exercises, so their counters are asserted directly against the
// gate's internals (the shared middleware's own are audited in
// internal/api) — and against the rendered /metrics text,
// because a counter that increments but does not render (or renders
// without its HELP line) is invisible to the dashboards these exist for.

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm"
)

func scrapeMetrics(t *testing.T, h *Server) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestPanicCounterIncrements: every recovered panic lands in
// tasm_request_panics_total, and the series renders with its HELP line.
func TestPanicCounterIncrements(t *testing.T) {
	sm, err := tasm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	h := New(sm, Config{})
	h.HandleFunc("GET /v1/boom", func(http.ResponseWriter, *http.Request) { panic("kaboom") })

	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/boom", nil))
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("panic %d: status %d, want 500", i, rec.Code)
		}
	}
	body := scrapeMetrics(t, h)
	if !strings.Contains(body, "tasm_request_panics_total 3") {
		t.Fatalf("/metrics missing tasm_request_panics_total 3:\n%s", body)
	}
	if !strings.Contains(body, "# HELP tasm_request_panics_total ") {
		t.Fatal("/metrics missing HELP for tasm_request_panics_total")
	}
	// The panicking request still flowed through the wall histogram
	// under the synthetic-or-matched endpoint label.
	if !strings.Contains(body, `tasm_request_seconds_count{endpoint="GET /v1/boom",tenant="-"} 3`) {
		t.Fatalf("/metrics missing wall histogram for the panicked endpoint:\n%s", body)
	}
}

// TestRejectedCounterIncrements: a limiter 503 lands in
// tasm_requests_rejected_total (and still counts as a request), under
// the synthetic "unmatched" endpoint since it never reached the mux.
func TestRejectedCounterIncrements(t *testing.T) {
	sm, err := tasm.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer sm.Close()
	h := New(sm, Config{MaxInflight: 2})
	h.inflight <- struct{}{}
	h.inflight <- struct{}{}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/videos", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if got := h.rejected.With("-").Value(); got != 1 {
		t.Fatalf("rejected counter = %d, want 1", got)
	}
	if got := h.requests.With("-").Value(); got != 1 {
		t.Fatalf("requests counter = %d, want 1 (rejections are still responses)", got)
	}

	// Free a slot so the scrape itself is admitted.
	<-h.inflight
	body := scrapeMetrics(t, h)
	if !strings.Contains(body, `tasm_requests_rejected_total{tenant="-"} 1`) {
		t.Fatalf("/metrics missing rejected counter:\n%s", body)
	}
	if !strings.Contains(body, `tasm_request_seconds_count{endpoint="unmatched",tenant="-"} 1`) {
		t.Fatalf("/metrics missing unmatched-endpoint histogram for the rejection:\n%s", body)
	}
}
