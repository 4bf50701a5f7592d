package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// TestLimiterRejectsWhenFull fills the inflight semaphore directly (the
// deterministic stand-in for MaxInflight concurrent slow streams) and
// asserts the next request is rejected as 503 overloaded while the
// health probe still answers.
func TestLimiterRejectsWhenFull(t *testing.T) {
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
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	var envelope struct {
		Error rpcwire.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(rec.Body).Decode(&envelope); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(rpcwire.DecodeError(envelope.Error), rpcwire.ErrOverloaded) {
		t.Fatalf("envelope %+v does not decode to ErrOverloaded", envelope.Error)
	}

	// The probe bypasses the limiter.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz under load: %d", rec.Code)
	}

	// Freeing a slot readmits traffic.
	<-h.inflight
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/videos", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("after freeing a slot: %d", rec.Code)
	}
}
