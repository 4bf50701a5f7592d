package client_test

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/apiguard"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// overloadedFor returns a test daemon that 503s (with Retry-After
// retryAfter and the canonical envelope) for the first n requests,
// then answers /v1/videos normally, and a counter of requests seen.
func overloadedFor(t *testing.T, n int64, retryAfter string) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var seen atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if seen.Add(1) <= n {
			w.Header().Set("Retry-After", retryAfter)
			status, body := rpcwire.EncodeError(rpcwire.ErrOverloaded)
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			json.NewEncoder(w).Encode(struct { //nolint:errcheck
				Error rpcwire.ErrorBody `json:"error"`
			}{body})
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rpcwire.VideosResponse{Videos: []string{"v"}}) //nolint:errcheck
	}))
	t.Cleanup(ts.Close)
	return ts, &seen
}

// TestOverloadedIsTypedAndRetryable is the limiter-politeness contract
// client-side: a 503 surfaces as ErrOverloaded (errors.Is), reports
// Retryable, and carries the server's Retry-After.
func TestOverloadedIsTypedAndRetryable(t *testing.T) {
	ts, _ := overloadedFor(t, 1<<30, "1")
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.VideosContext(context.Background())
	if !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded", err)
	}
	if !client.Retryable(err) {
		t.Fatal("overloaded not reported retryable")
	}
	if ra, ok := client.RetryAfter(err); !ok || ra != time.Second {
		t.Fatalf("RetryAfter = %v, %v; want 1s, true", ra, ok)
	}
	// Contrast: a bad request is not retryable.
	if client.Retryable(rpcwire.DecodeError(rpcwire.ErrorBody{Code: "bad_request"})) {
		t.Fatal("bad_request reported retryable")
	}
}

// TestWithRetryRecovers: the retry policy rides out transient 503s and
// succeeds without the caller seeing the rejections.
func TestWithRetryRecovers(t *testing.T) {
	ts, seen := overloadedFor(t, 2, "0")
	c, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	videos, err := c.VideosContext(context.Background())
	if err != nil || len(videos) != 1 {
		t.Fatalf("retry did not recover: %v %v", videos, err)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 rejections + success)", got)
	}
}

// TestWithRetryExhausts: a persistent overload returns the typed error
// after MaxAttempts tries, and the policy never retries non-retryable
// failures.
func TestWithRetryExhausts(t *testing.T) {
	ts, seen := overloadedFor(t, 1<<30, "0")
	c, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.VideosContext(context.Background()); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("got %v, want ErrOverloaded after exhaustion", err)
	}
	if got := seen.Load(); got != 3 {
		t.Fatalf("server saw %d requests, want MaxAttempts=3", got)
	}

	// Unauthorized must not burn retries.
	ts401 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		status, body := rpcwire.EncodeError(rpcwire.ErrUnauthorized)
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(struct { //nolint:errcheck
			Error rpcwire.ErrorBody `json:"error"`
		}{body})
	}))
	defer ts401.Close()
	c2, err := client.New(ts401.URL, client.WithToken("nope"),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.VideosContext(context.Background()); !errors.Is(err, client.ErrUnauthorized) {
		t.Fatalf("got %v, want ErrUnauthorized", err)
	}
}

// TestRetryHonorsContext: a caller's cancellation cuts the backoff
// short and surfaces the context error.
func TestRetryHonorsContext(t *testing.T) {
	ts, _ := overloadedFor(t, 1<<30, "1")
	c, err := client.New(ts.URL, client.WithRetry(client.RetryPolicy{
		MaxAttempts: 10, BaseDelay: 10 * time.Second, MaxDelay: 10 * time.Second,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.VideosContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("cancellation did not cut the backoff short")
	}
}

// TestWithTLSRoundTrip: a client built with WithTLS (trusting the test
// server's CA) completes a real HTTPS request.
func TestWithTLSRoundTrip(t *testing.T) {
	ts := httptest.NewTLSServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(rpcwire.VideosResponse{Videos: []string{"v"}}) //nolint:errcheck
	}))
	defer ts.Close()
	pool := x509.NewCertPool()
	pool.AddCert(ts.Certificate())
	c, err := client.New(ts.URL, client.WithTLS(&tls.Config{RootCAs: pool}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	videos, err := c.VideosContext(context.Background())
	if err != nil || len(videos) != 1 {
		t.Fatalf("https request failed: %v %v", videos, err)
	}
	// Without the CA, the handshake must fail — WithTLS(nil) means real
	// verification, not InsecureSkipVerify.
	c2, err := client.New(ts.URL, client.WithTLS(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.VideosContext(context.Background()); err == nil {
		t.Fatal("untrusted certificate accepted")
	}
}

// TestNewValidation pins the constructor contract: scheme defaulting,
// TLS implications, the WithTLS/WithHTTPClient conflict, and the Dial
// shim staying alive for v1 callers.
func TestNewValidation(t *testing.T) {
	if _, err := client.New("host:1234"); err != nil {
		t.Fatalf("bare host:port: %v", err)
	}
	if _, err := client.New("http://host:1234/"); err != nil {
		t.Fatalf("explicit scheme: %v", err)
	}
	if _, err := client.New(""); err == nil {
		t.Fatal("empty address accepted")
	}
	if _, err := client.New("http://host:1", client.WithTLS(nil)); err == nil {
		t.Fatal("WithTLS over an http:// address accepted")
	}
	if _, err := client.New("host:1", client.WithTLS(nil), client.WithHTTPClient(&http.Client{})); err == nil {
		t.Fatal("WithTLS + WithHTTPClient accepted")
	}
	if _, err := client.New("host:1", client.WithTLS(nil)); err != nil {
		t.Fatalf("WithTLS over a bare address must default to https: %v", err)
	}
	//lint:ignore SA1019 the deprecated shim must keep working
	if _, err := client.New("host:1234"); err != nil {
		t.Fatalf("deprecated Dial shim broken: %v", err)
	}
}

// TestOneSpelling: the client has no context-less twin of any XContext
// method (see the root package's test of the same name).
func TestOneSpelling(t *testing.T) {
	if twins := apiguard.ContextTwins(reflect.TypeOf((*client.Client)(nil))); len(twins) > 0 {
		t.Errorf("*client.Client has both X and XContext for %v", twins)
	}
}
