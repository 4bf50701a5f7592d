// Remote quickstart: the examples/quickstart loop over the network.
// This program starts a live tasmd (the same handler stack the daemon
// serves, on a loopback listener), connects the Go client, and shows
// the three serving guarantees:
//
//  1. remote scans stream — the first NDJSON region arrives while the
//     server is still decoding later SOTs, not after materialization;
//  2. abandoning a remote scan cancels it server-side — every read
//     lease is released, so GC has nothing deferred on its account;
//  3. the error taxonomy survives the wire — errors.Is matches the
//     same tasm.Err* sentinels remotely as in-process.
//
// Run it: go run ./examples/remote
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/server"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	dir, err := os.MkdirTemp("", "tasm-remote-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A live tasmd: the daemon binary is exactly this — tasm.Open +
	// server.New + http.Server — plus flags and signal wiring.
	sm, err := tasm.Open(dir, tasm.WithGOPLength(8), tasm.WithMinTileSize(32, 32))
	if err != nil {
		log.Fatal(err)
	}
	defer sm.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	srv := &http.Server{Handler: server.New(sm, server.Config{})}
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())
	fmt.Printf("tasmd serving %s on http://%s\n", dir, ln.Addr())

	// No options: the defaults (NDJSON streams, no auth, no retry) are
	// what a first caller gets.
	c, err := client.New(ln.Addr().String())
	if err != nil {
		log.Fatal(err)
	}
	defer c.Close()

	// 1. Ingest over the wire: frames upload through /v1/ingest, the
	//    detections through /v1/metadata.
	video, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 320, H: 180, FPS: 8, DurationSec: 8,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 3, SizeFrac: 0.12},
			{Class: scene.Person, Count: 3, SizeFrac: 0.15},
		},
		Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	n := video.Spec.NumFrames()
	ist, err := c.IngestContext(ctx, "traffic", video.Frames(0, n), video.Spec.FPS)
	if err != nil {
		log.Fatal(err)
	}
	var ds []tasm.Detection
	for f := 0; f < n; f++ {
		for _, tr := range video.GroundTruth(f) {
			ds = append(ds, tasm.Detection{Frame: f, Label: tr.Label, Box: tr.Box})
		}
	}
	if err := c.AddDetectionsContext(ctx, "traffic", ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote ingest: %d frames into %d SOTs (%d KiB)\n", n, ist.SOTs, ist.Bytes/1024)

	// 2. A streaming remote scan. The first region decodes off the
	//    NDJSON stream while the server is still working on later SOTs:
	//    time-to-first-result is a fraction of the full drain.
	sql := fmt.Sprintf("SELECT car FROM traffic WHERE 0 <= t < %d", n)
	start := time.Now()
	cur, err := c.ScanSQLCursor(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	defer cur.Close()
	var first time.Duration
	count := 0
	for cur.Next() {
		if count == 0 {
			first = time.Since(start)
			r := cur.Result()
			fmt.Printf("first streamed region after %s: frame %d %v (scan still running)\n",
				first.Round(time.Millisecond), r.Frame, r.Region)
		}
		count++
	}
	if err := cur.Err(); err != nil {
		log.Fatal(err)
	}
	full := time.Since(start)
	st := cur.Stats()
	fmt.Printf("drained %d regions over %d SOTs in %s — first result at %.0f%% of the wall\n",
		count, st.SOTsTouched, full.Round(time.Millisecond), 100*float64(first)/float64(full))

	// 3. Abandon a scan mid-stream. Closing the cursor cancels the
	//    HTTP request; the server cancels the cursor pipeline, which
	//    releases every read lease before finishing — verified through
	//    the remote fsck report.
	cur2, err := c.ScanSQLCursor(ctx, sql)
	if err != nil {
		log.Fatal(err)
	}
	if !cur2.Next() {
		log.Fatal("abandoned scan yielded nothing")
	}
	cur2.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		rep, err := c.FSCKContext(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if rep.Leases == 0 {
			fmt.Println("abandoned mid-stream scan: server released all read leases")
			break
		}
		if time.Now().After(deadline) {
			log.Fatalf("leases still held after cancel: %d", rep.Leases)
		}
		time.Sleep(10 * time.Millisecond)
	}
	gc, err := c.GCContext(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote gc after cancel: %d removed, %d deferred\n", len(gc.Removed), len(gc.Deferred))

	// 4. The typed errors survive the wire: a remote miss matches the
	//    same sentinel an in-process miss does.
	_, err = c.MetaContext(ctx, "no-such-video")
	fmt.Printf("remote miss: errors.Is(err, tasm.ErrVideoNotFound) = %v (%v)\n",
		errors.Is(err, tasm.ErrVideoNotFound), err)
	if !errors.Is(err, tasm.ErrVideoNotFound) {
		log.Fatal("sentinel lost across the wire")
	}
}
