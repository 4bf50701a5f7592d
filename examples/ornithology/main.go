// Ornithology: the paper's second motivating application (§1). A
// researcher looks for hummingbirds feeding at specific flowers, issuing
// conjunctive CNF queries: pixels must belong to a bird AND lie inside a
// feeder region. TASM evaluates the conjunction as intersections of
// indexed bounding boxes and decodes only the tiles containing them.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/scene"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "tasm-birds-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// An 8-second nature video with birds (and a boat passing on the
	// river behind them, to give the disjunction something to match).
	video, err := scene.Generate(scene.Spec{
		Name: "feeder-cam", W: 320, H: 180, FPS: 15, DurationSec: 8,
		Classes: []scene.ClassMix{
			{Class: scene.Bird, Count: 4, SizeFrac: 0.10, Churn: 0.5},
			{Class: scene.Boat, Count: 1, SizeFrac: 0.12},
		},
		Seed: 31,
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
	if _, err := sm.IngestContext(ctx, "feeder-cam", video.Frames(0, n), video.Spec.FPS); err != nil {
		log.Fatal(err)
	}

	// Index bird/boat detections plus two static "feeder" regions the
	// researcher annotated by hand (human-driven analysis, §1).
	feeders := []tasm.Rect{tasm.R(40, 60, 120, 140), tasm.R(200, 30, 280, 110)}
	for f := 0; f < n; f++ {
		for _, tr := range video.GroundTruth(f) {
			if err := sm.AddMetadata("feeder-cam", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				log.Fatal(err)
			}
		}
		for _, fb := range feeders {
			if err := sm.AddMetadata("feeder-cam", f, "feeder", fb.X0, fb.Y0, fb.X1, fb.Y1); err != nil {
				log.Fatal(err)
			}
		}
	}

	queries := []string{
		// Any bird, anywhere.
		"SELECT bird FROM feeder-cam",
		// Birds at a feeder: conjunction = intersection of boxes.
		"SELECT bird AND feeder FROM feeder-cam",
		// Birds or boats, in the first two seconds.
		"SELECT bird|boat FROM feeder-cam WHERE 0 <= t < 30",
		// Equality syntax works too.
		"SELECT label='bird' AND label='feeder' FROM feeder-cam WHERE 30 <= t < 90",
	}
	fmt.Println("before tiling:")
	runAll(ctx, sm, queries)

	// Tile the whole video around birds (the class every query targets).
	meta, err := sm.Meta("feeder-cam")
	if err != nil {
		log.Fatal(err)
	}
	for _, sot := range meta.SOTs {
		l, err := sm.DesignLayout("feeder-cam", sot.ID, []string{scene.Bird})
		if err != nil {
			log.Fatal(err)
		}
		if l.IsSingle() {
			continue
		}
		if _, err := sm.RetileSOTContext(ctx, "feeder-cam", sot.ID, l); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("\nafter tiling around birds:")
	runAll(ctx, sm, queries)
}

func runAll(ctx context.Context, sm *tasm.StorageManager, queries []string) {
	for _, sql := range queries {
		res, st, err := sm.ScanSQLContext(ctx, sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-62s %4d regions  %.2f Mpx  %s\n",
			sql, len(res), float64(st.PixelsDecoded)/1e6, st.DecodeWall.Round(time.Millisecond))
	}
}
