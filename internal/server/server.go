// Package server is tasmd's HTTP front end: the shared handler set
// (internal/api — the one route table and middleware stack tasm-router
// serves too) over the local Backend (local.go, an adapter from
// *tasm.StorageManager to the context-first api.Backend), behind the
// tenant gate (auth.go). What tasmd adds to the shared surface is only
// that gate and the store's own /metrics series.
//
// Unary operations (ingest, retile, delete, gc, fsck, catalog reads,
// metadata writes) are plain request/response JSON. The read paths that
// stream in-process — Scan, ScanSQL, DecodeFrames — stream over the
// network too: the handler drains a tasm cursor directly into the
// chunked response as NDJSON, flushing per result line, so a remote
// consumer's time-to-first-byte inherits the cursor pipeline's
// time-to-first-result instead of waiting for full materialization.
//
// Request contexts do real work here. Every route derives its operation
// context from the request context, so a client disconnect cancels the
// cursor — which stops in-flight decodes and releases every read lease
// before teardown completes (the PR-3 guarantee). The Tasm-Deadline-Ms
// header bounds the whole operation server-side with a context
// deadline, mapped back to the client as deadline_exceeded/504.
//
// The handler stack adds, outermost first: panic recovery (a handler
// bug becomes a logged 500, not a dead daemon), the gate — bearer-token
// authentication, then a concurrent-request limiter (excess load is
// rejected early with overloaded/503 rather than queued into memory) —
// and per-request access logs.
package server

import (
	"io"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/obs"
)

// Config tunes the handler stack.
type Config struct {
	// Logger receives diagnostics — recovered panics and handler
	// errors; nil discards. Keep this on even when access logs are off:
	// it speaks exactly when something is wrong.
	Logger *log.Logger
	// AccessLogger receives the per-request access lines; nil falls
	// back to Logger (set it to a discarding logger to silence access
	// logs without losing diagnostics).
	AccessLogger *log.Logger
	// MaxInflight bounds concurrently served requests (excluding
	// /v1/healthz); requests beyond it get 503 overloaded with a
	// Retry-After header. <= 0 means DefaultMaxInflight.
	MaxInflight int
	// MaxBodyBytes bounds a request body (ingest bodies carry raw
	// frames). <= 0 means DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// Tenants maps bearer tokens to tenant ids (see ParseTokenFile).
	// Empty leaves the daemon open: no Authorization required, all
	// traffic shares the global limit. Non-empty, every request except
	// /v1/healthz must carry a listed token or is refused with 401
	// unauthorized. The table can be swapped at runtime with
	// Server.SetTenants (tasmd does so on SIGHUP).
	Tenants map[string]string
	// TenantMaxInflight bounds concurrently served requests per tenant
	// when Tenants is set, so one tenant's burst degrades into that
	// tenant's 503s instead of starving the rest. <= 0 means a quarter
	// of the resolved global MaxInflight (at least 1); it is
	// additionally capped by MaxInflight.
	TenantMaxInflight int
	// SlowQueryThreshold: a finished request whose wall time reaches it
	// is also written to Logger as a level=slow_query JSON line and
	// counted in tasm_slow_queries_total. 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
	// TraceCapacity bounds the /v1/trace/{id} ring (finished requests
	// retained for lookup). <= 0 means obs.DefaultTraceCapacity.
	TraceCapacity int
}

// DefaultMaxInflight is the concurrent-request bound when Config leaves
// it zero: enough for every decode worker to stay busy behind a handful
// of streaming consumers, small enough that overload degrades into fast
// 503s instead of memory growth.
const DefaultMaxInflight = 64

// DefaultMaxBodyBytes bounds request bodies (1 GiB: a few minutes of
// raw 4:2:0 frames, the largest legitimate ingest this toy codec
// should see in one call).
const DefaultMaxBodyBytes = 1 << 30

// A tenant table configured without an explicit per-tenant quota
// defaults to a quarter of the (resolved) global bound, so a single
// tenant cannot monopolize the daemon even before the operator tunes
// anything.

// New returns the tasmd server for sm; *Server is the http.Handler to
// mount, and its methods (SetTenants) are the daemon's runtime controls.
func New(sm *tasm.StorageManager, cfg Config) *Server {
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.AccessLogger == nil {
		cfg.AccessLogger = cfg.Logger
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	if cfg.TenantMaxInflight <= 0 {
		cfg.TenantMaxInflight = max(1, cfg.MaxInflight/4)
	}
	if cfg.TenantMaxInflight > cfg.MaxInflight {
		cfg.TenantMaxInflight = cfg.MaxInflight
	}
	s := &Server{
		cfg:            cfg,
		inflight:       make(chan struct{}, cfg.MaxInflight),
		tenantInflight: make(map[string]chan struct{}),
	}
	s.SetTenants(cfg.Tenants)
	reg := obs.NewRegistry()
	s.registerTenantSeries(reg)
	s.Handler = api.New(Local{sm}, api.Config{
		Logger:             cfg.Logger,
		AccessLogger:       cfg.AccessLogger,
		MaxBodyBytes:       cfg.MaxBodyBytes,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		TraceCapacity:      cfg.TraceCapacity,
		Registry:           reg,
		MetricsPrefix:      "tasm",
		Gate:               s,
	})
	registerStoreSeries(reg, sm)
	return s
}

// Server is the tasmd handler — the shared surface over the local
// store — plus the tenant gate in front of it and its runtime controls.
type Server struct {
	*api.Handler
	cfg      Config
	inflight chan struct{}

	// tenants is the live token→tenant table, swapped atomically by
	// SetTenants; requests load it once at authentication, so a reload
	// never tears a request's view of the table.
	tenants atomic.Pointer[map[string]string]

	// tenantMu guards the lazily created per-tenant quota channels.
	// Quota channels persist across SetTenants reloads: an in-flight
	// request's release closure must return its slot to the same
	// channel it took it from.
	tenantMu       sync.Mutex
	tenantInflight map[string]chan struct{}

	// The gate's per-tenant serving counters.
	requests, rejected, bytes *obs.CounterVec
}

// SetTenants atomically replaces the token→tenant table (nil or empty
// opens the daemon). In-flight requests are untouched: they
// authenticated against the table current at their arrival and keep
// their admission slots, so rotating tokens never drops a live stream.
func (s *Server) SetTenants(tenants map[string]string) {
	s.tenants.Store(&tenants)
}
