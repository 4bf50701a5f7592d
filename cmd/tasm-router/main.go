// Command tasm-router serves tasmd's HTTP surface over a fleet of
// tasmd shards: the same handler set (internal/api) over a Backend that
// fans out (internal/shard) instead of a local store — a stateless
// scale-out tier that owns only a shard map (a consistent-hash ring
// over shard addresses) and per-shard health, with no gate of its own.
// Video-scoped operations route to the owning shard; catalog, stats,
// gc, fsck, and autotile fan out to every shard and merge; streaming
// scans scatter one remote cursor per queried video and gather them
// into a single frame-ordered stream in whatever framing the caller
// negotiated. `tasmctl -addr` and the Go client work against a router
// exactly as against a single tasmd.
//
// Usage:
//
//	tasm-router -shard-map shards.json                 # serve on :7879
//	tasm-router -shard-map shards.json -addr :9000 -breaker-threshold 5
//	tasm-router -shard-map shards.json -shard-token SECRET   # authed shards
//
// The shard-map file:
//
//	{
//	  "replicas": 128,
//	  "shards": [
//	    {"name": "s1", "addr": "127.0.0.1:7001"},
//	    {"name": "s2", "addr": "127.0.0.1:7002"}
//	  ]
//	}
//
// Names are the ring identity: a shard may change address (move hosts,
// restart on a new port) without any video changing owner. SIGHUP
// re-reads the map and swaps it in place, like tasmd's token table —
// surviving shards keep their health state and in-flight streams keep
// their backends; a parse failure keeps the current map. Every shard is
// probed each -health-interval, and -breaker-threshold consecutive
// failures mark it down: requests for its videos fail fast with
// shard_unavailable (exit 7 from tasmctl) while the rest of the fleet
// keeps serving. SIGINT/SIGTERM drains like tasmd.
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

	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/shard"
)

func main() {
	var (
		addr             = flag.String("addr", ":7879", "listen address (host:port)")
		mapFile          = flag.String("shard-map", "", "shard-map file (required; JSON, see package doc)")
		healthInterval   = flag.Duration("health-interval", shard.DefaultHealthInterval, "period between shard health probes")
		breakerThreshold = flag.Int("breaker-threshold", shard.DefaultBreakerThreshold, "consecutive failures before a shard is marked down")
		shardToken       = flag.String("shard-token", "", "bearer token for router→shard requests (shards running -token-file)")
		tlsCert          = flag.String("tls-cert", "", "TLS certificate file (PEM); with -tls-key, serve HTTPS")
		tlsKey           = flag.String("tls-key", "", "TLS private key file (PEM)")
		tlsClientCA      = flag.String("tls-client-ca", "", "CA bundle (PEM) for verifying client certificates; requires -tls-cert/-tls-key and makes TLS mutual — unauthenticated handshakes are refused")
		drain            = flag.Duration("drain", 15*time.Second, "graceful-shutdown budget for in-flight requests")
		quiet            = flag.Bool("quiet", false, "suppress access logs")
		slowQuery        = flag.Duration("slow-query-threshold", 0, "log requests at or above this wall time as slow queries (0 = disabled)")
		debugAddr        = flag.String("debug-addr", "", "serve net/http/pprof on this loopback address (empty = disabled)")
	)
	flag.Parse()
	if *mapFile == "" {
		fmt.Fprintln(os.Stderr, "tasm-router: missing -shard-map")
		flag.Usage()
		os.Exit(3)
	}

	logger := log.New(os.Stderr, "tasm-router ", log.LstdFlags|log.Lmsgprefix)
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

	m, err := shard.ParseMapFile(*mapFile)
	if err != nil {
		logger.Fatalf("%v", err)
	}

	rt, err := shard.NewRouter(m, shard.RouterConfig{
		Logger: logger, AccessLogger: accessLogger,
		HealthInterval:     *healthInterval,
		BreakerThreshold:   *breakerThreshold,
		ShardToken:         *shardToken,
		SlowQueryThreshold: *slowQuery,
	})
	if err != nil {
		logger.Fatalf("%v", err)
	}

	// Loopback-only, its own listener: pprof has no auth (see tasmd).
	if *debugAddr != "" {
		if _, err := obs.StartDebugServer(*debugAddr, logger); err != nil {
			rt.Close()
			logger.Fatalf("%v", err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// SIGHUP re-reads the shard map and swaps it whole, the same
	// contract as tasmd's token reload: a parse failure keeps the
	// current map — a router on yesterday's topology beats one that
	// dropped the fleet over a typo.
	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			reloaded, err := shard.ParseMapFile(*mapFile)
			if err != nil {
				logger.Printf("SIGHUP reload failed, keeping current map: %v", err)
				continue
			}
			if err := rt.SetMap(reloaded); err != nil {
				logger.Printf("SIGHUP swap failed, keeping current map: %v", err)
				continue
			}
			logger.Printf("SIGHUP: reloaded %s (%d shards)", *mapFile, len(reloaded.Shards()))
		}
	}()

	srv := &http.Server{
		Addr:    *addr,
		Handler: rt,
		// Scatter-gather streams are long-lived on purpose: no write
		// timeout. Headers and idle connections still get bounds.
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
		BaseContext:       func(net.Listener) context.Context { return context.Background() },
		// Non-nil only for mTLS: ServeTLS fills in the certificate pair.
		TLSConfig: tlsCfg,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		rt.Close()
		logger.Fatalf("listen %s: %v", *addr, err)
	}
	scheme := "http"
	if *tlsCert != "" {
		scheme = "https"
		if *tlsClientCA != "" {
			scheme = "https+mtls"
		}
	}
	logger.Printf("routing %d shards from %s on %s://%s (probe every %s, breaker at %d failures)",
		len(m.Shards()), *mapFile, scheme, ln.Addr(), *healthInterval, *breakerThreshold)

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
			// Streams that outlived the budget: close their connections
			// — the request contexts cancel, the remote cursors close on
			// the way down and the shards release their leases.
			logger.Printf("drain budget exceeded (%v); closing connections", err)
			srv.Close()
		}
	}
	rt.Close()
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
