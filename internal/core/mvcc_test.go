package core

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/scene"
)

// resultsEqual is the non-fatal form of sameResults: regions, order, and
// pixels all byte-identical.
func resultsEqual(a, b []RegionResult) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Frame != b[i].Frame || a[i].Region != b[i].Region {
			return false
		}
		pa, pb := a[i].Pixels, b[i].Pixels
		if !bytes.Equal(pa.Y, pb.Y) || !bytes.Equal(pa.Cb, pb.Cb) || !bytes.Equal(pa.Cr, pb.Cr) {
			return false
		}
	}
	return true
}

func framesEqual(a, b []*frame.Frame) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i].Y, b[i].Y) || !bytes.Equal(a[i].Cb, b[i].Cb) || !bytes.Equal(a[i].Cr, b[i].Cr) {
			return false
		}
	}
	return true
}

// matchesAnyResult reports whether res equals one of the reference states.
func matchesAnyResult(res []RegionResult, refs [][]RegionResult) bool {
	for _, ref := range refs {
		if resultsEqual(res, ref) {
			return true
		}
	}
	return false
}

func matchesAnyFrames(fs []*frame.Frame, refs [][]*frame.Frame) bool {
	for _, ref := range refs {
		if framesEqual(fs, ref) {
			return true
		}
	}
	return false
}

// TestInterleavedScanRetileDecode is the MVCC acceptance test: scans and
// whole-frame decodes interleave freely with re-tiles from many goroutines
// — no phase serialization — and every result must be byte-identical to
// one of the consistent catalog states, computed single-threaded on an
// identically generated shadow manager. Run with -race.
func TestInterleavedScanRetileDecode(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		budget int64
	}{
		{"cache-off", 0},
		{"cache-on", 32 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newCachedManager(t, tc.budget, 4)
			shadow := newCachedManager(t, 0, 1)
			q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")

			meta, err := shadow.Meta("traffic")
			if err != nil {
				t.Fatal(err)
			}
			cons := shadow.Config().Constraints(meta.W, meta.H)
			l12, err := layout.Uniform(1, 2, cons)
			if err != nil {
				t.Fatal(err)
			}
			l21, err := layout.Uniform(2, 1, cons)
			if err != nil {
				t.Fatal(err)
			}

			// The three consistent states a lease-holding reader can pin:
			// as ingested, after retiling SOT 0, after also retiling SOT 1.
			// Decodes are deterministic, so the shadow's single-threaded
			// replay yields the exact bytes the real manager must serve.
			var scanRefs [][]RegionResult
			var decodeRefs [][]*frame.Frame
			snapshotState := func() {
				res, _, err := shadow.ScanContext(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				fs, _, err := shadow.DecodeFramesContext(ctx, "traffic", 0, 30)
				if err != nil {
					t.Fatal(err)
				}
				scanRefs = append(scanRefs, res)
				decodeRefs = append(decodeRefs, fs)
			}
			snapshotState()
			if _, err := shadow.RetileSOTContext(ctx, "traffic", 0, l12); err != nil {
				t.Fatal(err)
			}
			snapshotState()
			if _, err := shadow.RetileSOTContext(ctx, "traffic", 1, l21); err != nil {
				t.Fatal(err)
			}
			snapshotState()
			if resultsEqual(scanRefs[0], scanRefs[1]) {
				t.Fatal("retile did not change scan bytes; test has no teeth")
			}

			// Hammer the real manager while the same two retiles commit
			// concurrently.
			var wg sync.WaitGroup
			errCh := make(chan error, 32)
			var mu sync.Mutex
			var scans [][]RegionResult
			var decodes [][]*frame.Frame
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						res, _, err := m.ScanContext(ctx, q)
						if err != nil {
							errCh <- err
							return
						}
						mu.Lock()
						scans = append(scans, res)
						mu.Unlock()
					}
				}()
			}
			for w := 0; w < 2; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 3; i++ {
						fs, _, err := m.DecodeFramesContext(ctx, "traffic", 0, 30)
						if err != nil {
							errCh <- err
							return
						}
						mu.Lock()
						decodes = append(decodes, fs)
						mu.Unlock()
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := m.RetileSOTContext(ctx, "traffic", 0, l12); err != nil {
					errCh <- err
					return
				}
				if _, err := m.RetileSOTContext(ctx, "traffic", 1, l21); err != nil {
					errCh <- err
				}
			}()
			wg.Wait()
			close(errCh)
			for err := range errCh {
				t.Fatal(err)
			}

			for i, res := range scans {
				if !matchesAnyResult(res, scanRefs) {
					t.Fatalf("concurrent scan %d matches no consistent state (%d regions)", i, len(res))
				}
			}
			for i, fs := range decodes {
				if !matchesAnyFrames(fs, decodeRefs) {
					t.Fatalf("concurrent DecodeFrames %d matches no consistent state", i)
				}
			}

			// Quiesced, the live state is exactly the shadow's final state.
			final, _, err := m.ScanContext(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, scanRefs[2], final)
		})
	}
}

// TestInterleavedScanDeleteReingest interleaves scans with DeleteVideo and
// a re-ingest of identical content. A scan must either pin the pre-delete
// state (byte-identical to the reference), fail because the video is gone,
// or observe the re-ingested video before its detections are re-indexed
// (zero regions). Nothing in between. Run with -race.
func TestInterleavedScanDeleteReingest(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 32<<20, 4)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	ref, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no reference results")
	}

	// Identical regeneration of the ingested scene (same spec and seed as
	// newCachedManager).
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 3,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.3},
		},
		Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan string, 32)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, _, err := m.ScanContext(ctx, q)
				switch {
				case err != nil:
					if !strings.Contains(err.Error(), "traffic") {
						fail <- "unexpected scan error: " + err.Error()
						return
					}
				case len(res) == 0:
					// Re-ingested, detections not yet re-indexed.
				case !resultsEqual(res, ref):
					fail <- "scan matched neither the reference nor an empty index"
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := m.DeleteVideo("traffic"); err != nil {
			fail <- "delete: " + err.Error()
			return
		}
		if _, err := m.IngestContext(ctx, "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
			fail <- "re-ingest: " + err.Error()
		}
	}()
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}

	// Re-index the detections; the rebuilt video then serves the exact
	// reference bytes again (everything about it is deterministic).
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	again, _, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, again)
}

// TestRangeSemantics pins the documented clamp-then-validate range
// behavior, shared verbatim by Scan and DecodeFrames: clamp from/to to the
// video first, then reject empty or inverted ranges. The video has 30
// frames.
func TestRangeSemantics(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	base := mustQuery(t, "SELECT car FROM traffic")
	cases := []struct {
		name     string
		from, to int
		ok       bool
		// wantFrom/wantTo is the clamped range valid requests resolve to.
		wantFrom, wantTo int
	}{
		{"negative-from", -5, 20, true, 0, 20},
		{"to-end-sentinel", 0, -1, true, 0, 30},
		{"to-beyond-end", 10, 99, true, 10, 30},
		{"both-clamped", -10, 99, true, 0, 30},
		{"inverted", 20, 10, false, 0, 0},
		{"fully-past-end", 30, 50, false, 0, 0},
		{"empty", 5, 5, false, 0, 0},
		{"negative-empty", -3, 0, false, 0, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := base
			q.From, q.To = tc.from, tc.to
			res, _, scanErr := m.ScanContext(ctx, q)
			fs, _, decErr := m.DecodeFramesContext(ctx, "traffic", tc.from, tc.to)
			if !tc.ok {
				if scanErr == nil || decErr == nil {
					t.Fatalf("Scan err = %v, DecodeFrames err = %v; want both rejected", scanErr, decErr)
				}
				if !strings.Contains(scanErr.Error(), "empty frame range") || !strings.Contains(decErr.Error(), "empty frame range") {
					t.Fatalf("errors not the documented validation error: %v / %v", scanErr, decErr)
				}
				return
			}
			if scanErr != nil || decErr != nil {
				t.Fatalf("Scan err = %v, DecodeFrames err = %v", scanErr, decErr)
			}
			if len(fs) != tc.wantTo-tc.wantFrom {
				t.Fatalf("DecodeFrames returned %d frames, want %d", len(fs), tc.wantTo-tc.wantFrom)
			}
			ref := base
			ref.From, ref.To = tc.wantFrom, tc.wantTo
			want, _, err := m.ScanContext(ctx, ref)
			if err != nil {
				t.Fatal(err)
			}
			sameResults(t, want, res)
		})
	}
}

// TestDecodeWallExcludesAssembly asserts the timing split: both stats are
// populated, and DecodeWall no longer includes the blitting that
// AssembleWall now reports (the paper's figures plot DecodeWall, so it
// must cover the decode pool drain alone).
func TestDecodeWallExcludesAssembly(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q := mustQuery(t, "SELECT car OR person FROM traffic WHERE 0 <= t < 30")
	res, st, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no results")
	}
	if st.DecodeWall <= 0 || st.AssembleWall <= 0 {
		t.Fatalf("DecodeWall = %v, AssembleWall = %v; both must be measured", st.DecodeWall, st.AssembleWall)
	}
	fs, dst, err := m.DecodeFramesContext(ctx, "traffic", 0, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(fs) != 30 {
		t.Fatalf("%d frames", len(fs))
	}
	if dst.DecodeWall <= 0 || dst.AssembleWall <= 0 {
		t.Fatalf("DecodeFrames DecodeWall = %v, AssembleWall = %v", dst.DecodeWall, dst.AssembleWall)
	}
}

// TestConcurrentRetilesSerialize issues conflicting retiles of the same
// video from many goroutines; all must succeed (serialized), and the
// final state must be consistent: manifest, disk, and fsck agree.
func TestConcurrentRetilesSerialize(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 8<<20, 2)
	meta, _ := m.Meta("traffic")
	cons := m.Config().Constraints(meta.W, meta.H)
	l12, _ := layout.Uniform(1, 2, cons)
	l21, _ := layout.Uniform(2, 1, cons)
	l22, _ := layout.Uniform(2, 2, cons)
	layouts := []layout.Layout{l12, l21, l22}

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for sot := 0; sot < 3; sot++ {
				if _, err := m.RetileSOTContext(ctx, "traffic", sot, layouts[(w+sot)%len(layouts)]); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	rep, err := m.store.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("store inconsistent after concurrent retiles: %v", rep.Problems)
	}
	if len(rep.Orphans) != 0 {
		t.Fatalf("unreaped versions with no leases held: %v", rep.Orphans)
	}
	// Each SOT absorbed one retile per worker.
	meta, _ = m.Meta("traffic")
	for _, sot := range meta.SOTs {
		if sot.Retiles != 3 {
			t.Fatalf("SOT %d Retiles = %d, want 3", sot.ID, sot.Retiles)
		}
	}
	if _, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")); err != nil {
		t.Fatal(err)
	}
}
