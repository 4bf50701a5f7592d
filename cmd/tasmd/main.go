// Command tasmd serves a TASM storage directory over HTTP: the unary
// operations (ingest, retile, delete, gc, fsck, catalog, stats) as
// JSON endpoints and Scan/ScanSQL/DecodeFrames as NDJSON streams that
// flush per result — the network face of the storage manager, speaking
// the wire contract in internal/rpcwire. The surface itself is the one
// handler set in internal/api; tasmd is that set over the local store
// (internal/server's Backend adapter) behind the tenant gate.
//
// Usage:
//
//	tasmd -dir db                      # serve db on :7878
//	tasmd -dir db -addr 127.0.0.1:9000 -cache 268435456 -parallelism 4
//	tasmd -dir db -token-file tokens -tenant-inflight 16   # multi-tenant
//	tasmd -dir db -tls-cert cert.pem -tls-key key.pem      # HTTPS
//	tasmd -dir db -autotile -retile-io-budget 8388608      # background re-tiler
//
// With -autotile every served scan feeds the workload observer and a
// background goroutine re-tiles hot SOTs toward the observed query
// distribution (TASM §4.4), throttled to -retile-io-budget bytes/sec.
// Inspect and gate it at runtime via GET /v1/autotile/status and POST
// /v1/autotile/{pause,resume} (tasmctl autotile status|pause|resume).
//
// SIGINT/SIGTERM starts a graceful drain: the listener closes, in-
// flight requests (including streams) get -drain to finish, then the
// store closes. A second signal kills the process the usual way.
//
// The daemon owns its storage directory exclusively, and that
// ownership is enforced: opening the store takes an flock lease on it,
// so a concurrent `tasmctl -dir` against a live daemon (whose caches —
// parsed manifests, decoded tiles, the resident semantic index — live
// in this process) fails fast with a store-locked error instead of
// reading stale state. Operate a served directory through the daemon
// (`tasmctl -addr …`); `-force` bypasses the lease for recovery only.
//
// With -token-file the daemon requires bearer-token auth and carves
// the inflight limit into per-tenant quotas (-tenant-inflight), so one
// tenant's burst cannot starve the rest.
package main

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/server"
)

func main() {
	var (
		addr           = flag.String("addr", ":7878", "listen address (host:port)")
		dir            = flag.String("dir", "", "storage directory (required)")
		cache          = flag.Int64("cache", 0, "decoded-tile cache budget in bytes (0 = disabled)")
		parallelism    = flag.Int("parallelism", 0, "concurrent tile decodes per request (0 = sequential, the paper's default)")
		maxInflight    = flag.Int("max-inflight", server.DefaultMaxInflight, "concurrent requests before 503 overloaded")
		tokenFile      = flag.String("token-file", "", "tenant table (one tenant:token per line); empty = open daemon, no auth")
		tenantInflight = flag.Int("tenant-inflight", 0, "per-tenant concurrent requests before 503 (0 = max-inflight/4; requires -token-file)")
		tlsCert        = flag.String("tls-cert", "", "TLS certificate file (PEM); with -tls-key, serve HTTPS")
		tlsKey         = flag.String("tls-key", "", "TLS private key file (PEM)")
		tlsClientCA    = flag.String("tls-client-ca", "", "CA bundle (PEM) for verifying client certificates; requires -tls-cert/-tls-key and makes TLS mutual — unauthenticated handshakes are refused")
		drain          = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		quiet          = flag.Bool("quiet", false, "suppress access logs")
		autotile       = flag.Bool("autotile", false, "run the background workload-adaptive re-tiler")
		retileIOBudget = flag.Int64("retile-io-budget", 0, "re-tile I/O throttle in bytes/sec (0 = unthrottled; requires -autotile)")
		slowQuery      = flag.Duration("slow-query-threshold", 0, "log requests at or above this wall time as slow queries (0 = disabled)")
		debugAddr      = flag.String("debug-addr", "", "serve net/http/pprof on this loopback address (empty = disabled)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "tasmd: missing -dir")
		flag.Usage()
		os.Exit(3)
	}

	// -quiet silences only the per-request access lines; diagnostics
	// (recovered panics, handler errors) always reach stderr.
	logger := log.New(os.Stderr, "tasmd ", log.LstdFlags|log.Lmsgprefix)
	accessLogger := logger
	if *quiet {
		accessLogger = log.New(io.Discard, "", 0)
	}

	if (*tlsCert == "") != (*tlsKey == "") {
		logger.Fatalf("-tls-cert and -tls-key must be set together")
	}
	var tlsCfg *tls.Config
	if *tlsClientCA != "" {
		if *tlsCert == "" {
			logger.Fatalf("-tls-client-ca requires -tls-cert and -tls-key (mTLS needs a server identity too)")
		}
		pool, err := loadClientCAPool(*tlsClientCA)
		if err != nil {
			logger.Fatalf("%v", err)
		}
		tlsCfg = &tls.Config{ClientCAs: pool, ClientAuth: tls.RequireAndVerifyClientCert}
	}

	var tenants map[string]string
	if *tokenFile != "" {
		var err error
		if tenants, err = server.ParseTokenFile(*tokenFile); err != nil {
			logger.Fatalf("%v", err)
		}
	} else if *tenantInflight > 0 {
		logger.Fatalf("-tenant-inflight requires -token-file (quotas are per tenant)")
	}

	if *retileIOBudget > 0 && !*autotile {
		logger.Fatalf("-retile-io-budget requires -autotile (there is no re-tiler to throttle)")
	}

	opts := []tasm.Option{tasm.WithMinTileSize(32, 32)}
	if *cache > 0 {
		opts = append(opts, tasm.WithCacheBudget(*cache))
	}
	if *parallelism > 0 {
		opts = append(opts, tasm.WithParallelism(*parallelism))
	}
	if *autotile {
		opts = append(opts,
			tasm.WithAdaptiveTiling(),
			tasm.WithRetileIOBudget(*retileIOBudget),
			tasm.WithAutotileLogger(logger))
	}
	// Open takes the store's ownership lease; a tasmctl -dir (or second
	// tasmd) already holding it fails here with ErrStoreLocked naming
	// the owner.
	sm, err := tasm.Open(*dir, opts...)
	if err != nil {
		logger.Fatalf("open %s: %v", *dir, err)
	}

	// The same signal pattern as tasmctl: the first SIGINT/SIGTERM
	// cancels the context (starting the drain), then default handling
	// is restored so a second signal kills a wedged process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	handler := server.New(sm, server.Config{
		Logger: logger, AccessLogger: accessLogger,
		MaxInflight: *maxInflight,
		Tenants:     tenants, TenantMaxInflight: *tenantInflight,
		SlowQueryThreshold: *slowQuery,
	})

	// The profiling surface is its own loopback-only listener, never a
	// route on the public one: pprof has no auth and -token-file must
	// not become a profile-exfiltration vector.
	if *debugAddr != "" {
		if _, err := obs.StartDebugServer(*debugAddr, logger); err != nil {
			sm.Close()
			logger.Fatalf("%v", err)
		}
	}

	// SIGHUP re-reads the token file and swaps the tenant table in place:
	// tokens rotate without dropping in-flight streams or restarting the
	// daemon. A parse failure keeps the current table — a daemon serving
	// with yesterday's tokens beats one that locked everyone out over a
	// typo.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			if *tokenFile == "" {
				logger.Printf("SIGHUP ignored: no -token-file to reload")
				continue
			}
			reloaded, err := server.ParseTokenFile(*tokenFile)
			if err != nil {
				logger.Printf("SIGHUP reload failed, keeping current tenant table: %v", err)
				continue
			}
			handler.SetTenants(reloaded)
			logger.Printf("SIGHUP: reloaded %s (%d tokens)", *tokenFile, len(reloaded))
		}
	}()

	srv := &http.Server{
		Addr:    *addr,
		Handler: handler,
		// Streaming scans are long-lived on purpose: no write timeout.
		// Headers and idle connections still get bounds.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
		// Non-nil only for mTLS: ServeTLS fills in the certificate pair.
		TLSConfig: tlsCfg,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		sm.Close()
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	authMode := "open (no auth)"
	if len(tenants) > 0 {
		distinct := map[string]bool{}
		for _, t := range tenants {
			distinct[t] = true
		}
		authMode = fmt.Sprintf("bearer auth: %d tokens, %d tenants", len(tenants), len(distinct))
	}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
		if *tlsClientCA != "" {
			authMode += ", mTLS client certs"
		}
	}
	tileMode := "manual tiling"
	if *autotile {
		tileMode = "autotile"
		if *retileIOBudget > 0 {
			tileMode = fmt.Sprintf("autotile @ %d B/s", *retileIOBudget)
		}
	}
	logger.Printf("serving %s on %s://%s (cache %d B, parallelism %d, max-inflight %d, %s, %s)",
		*dir, scheme, ln.Addr(), *cache, *parallelism, *maxInflight, authMode, tileMode)

	serveErr := make(chan error, 1)
	go func() {
		if *tlsCert != "" {
			serveErr <- srv.ServeTLS(ln, *tlsCert, *tlsKey)
		} else {
			serveErr <- srv.Serve(ln)
		}
	}()

	exit := 0
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Printf("serve: %v", err)
			exit = 1
		}
	case <-ctx.Done():
		stop() // restore default handling: a second signal force-kills
		logger.Printf("signal received; draining for up to %s", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		err := srv.Shutdown(shutdownCtx)
		cancel()
		if err != nil {
			// Streams that outlived the budget: close their
			// connections — the request contexts cancel, cursors
			// release their leases on the way down.
			logger.Printf("drain budget exceeded (%v); closing connections", err)
			srv.Close()
		}
	}
	if err := sm.Close(); err != nil {
		logger.Printf("close store: %v", err)
		exit = 1
	}
	logger.Printf("stopped")
	os.Exit(exit)
}

// loadClientCAPool reads a PEM CA bundle into the pool mTLS verifies
// client certificates against.
func loadClientCAPool(path string) (*x509.CertPool, error) {
	pem, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading -tls-client-ca: %w", err)
	}
	pool := x509.NewCertPool()
	if !pool.AppendCertsFromPEM(pem) {
		return nil, fmt.Errorf("-tls-client-ca %s: no CA certificates found", path)
	}
	return pool, nil
}
