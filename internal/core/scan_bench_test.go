package core

import (
	"context"
	"testing"

	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
)

// benchManager ingests a longer video (12 SOTs) so cross-SOT fan-out has
// work to spread.
func benchManager(b *testing.B, budget int64, parallelism int) (*Manager, query.Query) {
	b.Helper()
	ctx := context.Background()
	cfg := testConfig()
	cfg.Codec.GOPLength = 5
	cfg.CacheBudget = budget
	cfg.Parallelism = parallelism
	m, err := Open(b.TempDir(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { m.Close() })
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 6,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.3},
		},
		Seed: 77,
	})
	if err != nil {
		b.Fatal(err)
	}
	frames := v.Frames(0, v.Spec.NumFrames())
	if _, err := m.IngestContext(ctx, "traffic", frames, v.Spec.FPS); err != nil {
		b.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				b.Fatal(err)
			}
		}
	}
	q, err := query.Parse("SELECT car FROM traffic WHERE 0 <= t < 60")
	if err != nil {
		b.Fatal(err)
	}
	return m, q
}

// BenchmarkScanCold measures repeated region scans with the decoded-tile
// cache disabled: every iteration re-reads and re-decodes from disk (the
// paper prototype's behavior).
func BenchmarkScanCold(b *testing.B) {
	ctx := context.Background()
	m, q := benchManager(b, 0, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.ScanContext(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkScanWarm measures the same repeated scans served from the
// decoded-tile cache (one warming scan before the clock starts).
func BenchmarkScanWarm(b *testing.B) {
	ctx := context.Background()
	m, q := benchManager(b, 256<<20, 1)
	if _, _, err := m.ScanContext(ctx, q); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st, err := m.ScanContext(ctx, q); err != nil {
			b.Fatal(err)
		} else if st.TilesDecoded != 0 {
			b.Fatalf("warm scan decoded %d tiles", st.TilesDecoded)
		}
	}
}

// BenchmarkScanMultiSOT measures one cold scan spanning all 12 SOTs at
// different parallelism levels. The seed processed SOTs strictly
// sequentially, so this could not improve with parallelism when each SOT
// needed few tiles.
func BenchmarkScanMultiSOT(b *testing.B) {
	ctx := context.Background()
	for _, p := range []int{1, 2, 4} {
		b.Run(map[int]string{1: "p1", 2: "p2", 4: "p4"}[p], func(b *testing.B) {
			m, q := benchManager(b, 0, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := m.ScanContext(ctx, q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFramesWarm measures the detector input path against a
// warm cache.
func BenchmarkDecodeFramesWarm(b *testing.B) {
	ctx := context.Background()
	m, _ := benchManager(b, 256<<20, 2)
	if _, _, err := m.DecodeFramesContext(ctx, "traffic", 0, 60); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := m.DecodeFramesContext(ctx, "traffic", 0, 60); err != nil {
			b.Fatal(err)
		}
	}
}
