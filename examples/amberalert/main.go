// Amber alert: the paper's motivating application (§1, §4.3). The query
// classes are known upfront — an amber alert system always asks about
// vehicles — but object locations are not. Detection happens lazily at
// query time; TASM tiles each SOT with the KQKO optimization as soon as
// the semantic index has complete vehicle locations for it, and later
// queries over the same section get much cheaper.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/stats"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tasm-amber-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A 12-second highway feed.
	video, err := scene.Generate(scene.Spec{
		Name: "highway-cam-3", W: 320, H: 180, FPS: 15, DurationSec: 12,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 4, SizeFrac: 0.11, Churn: 0.4},
			{Class: scene.Person, Count: 2, SizeFrac: 0.13, Churn: 0.4},
		},
		Seed: 13,
	})
	if err != nil {
		log.Fatal(err)
	}
	n := video.Spec.NumFrames()

	sm, err := tasm.Open(dir, tasm.WithGOPLength(15), tasm.WithMinTileSize(32, 32))
	if err != nil {
		log.Fatal(err)
	}
	defer sm.Close()
	if _, err := sm.IngestContext(ctx, "highway-cam-3", video.Frames(0, n), video.Spec.FPS); err != nil {
		log.Fatal(err)
	}

	// The workload is known: amber alerts ask about cars. Locations are
	// not, so the lazy tiler waits for per-SOT detection coverage.
	lazy := sm.NewLazyTiler([]string{scene.Car})
	detector := &detect.Oracle{Lat: detect.DefaultLatencies()}

	// Simulate a stream of investigator queries over random windows.
	rng := stats.NewRNG(99)
	var totalDecode, totalRetile time.Duration
	fmt.Println("query window        regions   decode    retiled")
	for i := 0; i < 12; i++ {
		start := rng.Intn(n - 30)
		sql := fmt.Sprintf("SELECT car FROM highway-cam-3 WHERE %d <= t < %d", start, start+30)

		// Query-time (lazy) detection: process any frames in the window
		// the detector has not seen, feeding the semantic index — the
		// metadata "byproduct of query execution" of §3.3.
		for f := start; f < start+30; f++ {
			done, err := sm.Detected("highway-cam-3", scene.Car, f, f+1)
			if err != nil {
				log.Fatal(err)
			}
			if done {
				continue
			}
			ds, _ := detector.Detect(video, f)
			if err := sm.AddDetections("highway-cam-3", ds); err != nil {
				log.Fatal(err)
			}
			for _, label := range []string{scene.Car, scene.Person} {
				if err := sm.MarkDetected("highway-cam-3", label, f, f+1); err != nil {
					log.Fatal(err)
				}
			}
		}

		res, st, err := sm.ScanSQLContext(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		totalDecode += st.DecodeWall

		// After the query, tile any SOTs whose vehicles are now known.
		q, err := tasm.ParseQuery(sql)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		retiled, err := lazy.ObserveQueryContext(ctx, q)
		if err != nil {
			log.Fatal(err)
		}
		if retiled > 0 {
			totalRetile += time.Since(t0)
		}
		fmt.Printf("cars in [%3d,%3d)  %4d   %8s   %d\n",
			start, start+30, len(res), st.DecodeWall.Round(time.Millisecond), retiled)
	}
	fmt.Printf("\ntotal decode %s, total retile %s\n",
		totalDecode.Round(time.Millisecond), totalRetile.Round(time.Millisecond))

	meta, err := sm.Meta("highway-cam-3")
	if err != nil {
		log.Fatal(err)
	}
	tiled := 0
	for _, sot := range meta.SOTs {
		if !sot.L.IsSingle() {
			tiled++
		}
	}
	fmt.Printf("%d/%d SOTs now tiled around vehicles\n", tiled, len(meta.SOTs))
}
