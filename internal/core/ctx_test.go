package core

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// TestScanCursorMatchesScan asserts the streaming path yields exactly the
// materializing path's results — same order, byte-identical pixels — and
// the same work counters (Scan is itself a cursor drain, but this pins
// the cursor's public Next/Result protocol against the slice API).
func TestScanCursorMatchesScan(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	ref, refSt, err := m.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("no reference results")
	}

	cur, err := m.ScanCursor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	var got []RegionResult
	for cur.Next() {
		got = append(got, cur.Result())
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	sameResults(t, ref, got)
	st := cur.Stats()
	if st.TilesDecoded != refSt.TilesDecoded || st.SOTsTouched != refSt.SOTsTouched ||
		st.RegionsReturned != refSt.RegionsReturned || st.PixelsDecoded != refSt.PixelsDecoded {
		t.Fatalf("cursor stats %+v diverge from scan stats %+v", st, refSt)
	}
	if st.DecodeWall <= 0 || st.AssembleWall <= 0 {
		t.Fatalf("cursor timing not measured: %+v", st)
	}
	if err := cur.Close(); err != nil { // closing an exhausted cursor is a no-op
		t.Fatal(err)
	}
	if cur.Err() != nil {
		t.Fatalf("Err after clean exhaustion + Close = %v", cur.Err())
	}
}

// TestFrameCursorMatchesDecodeFrames asserts the whole-frame stream
// yields DecodeFrames' exact output with correct absolute indices.
func TestFrameCursorMatchesDecodeFrames(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	ref, _, err := m.DecodeFramesContext(ctx, "traffic", 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := m.FrameCursor(context.Background(), "traffic", 5, 25)
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for cur.Next() {
		fr := cur.Result()
		if fr.Index != 5+i {
			t.Fatalf("frame %d has index %d, want %d", i, fr.Index, 5+i)
		}
		if !bytes.Equal(fr.Pixels.Y, ref[i].Y) {
			t.Fatalf("frame %d pixels differ from DecodeFrames", fr.Index)
		}
		i++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("cursor yielded %d frames, DecodeFrames returned %d", i, len(ref))
	}
}

// TestScanCancelReleasesLeases is the MVCC/cancellation contract: a
// mid-scan context cancel stops the decode work, surfaces a
// context.Canceled through errors.Is, and releases every read lease — a
// version superseded by a concurrent re-tile is reclaimed by GC with
// nothing deferred.
func TestScanCancelReleasesLeases(t *testing.T) {
	m, _ := newManager(t)
	ctx, cancel := context.WithCancel(context.Background())
	cur, err := m.ScanCursor(ctx, mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30"))
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first result: %v", cur.Err())
	}

	// Re-tile the last SOT while the cursor's snapshot lease pins its old
	// version: the superseded directory must survive until the cursor dies.
	meta, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	w, h := meta.W, meta.H
	l2, err := layout.Uniform(1, 2, m.cfg.Constraints(w, h))
	if err != nil {
		t.Fatal(err)
	}
	lastSOT := meta.SOTs[len(meta.SOTs)-1].ID
	if _, err := m.RetileSOTContext(context.Background(), "traffic", lastSOT, l2); err != nil {
		t.Fatal(err)
	}
	if rep, err := m.Store().GC(); err != nil || len(rep.Deferred) == 0 {
		t.Fatalf("expected the pinned old version to be deferred, got %+v (err %v)", rep, err)
	}

	cancel()
	for cur.Next() { // drain whatever was already buffered
	}
	if err := cur.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err after cancel = %v, want context.Canceled", err)
	}

	// Next has reported false, so the leases are gone: GC defers nothing
	// and fsck sees a lease-free store.
	rep, err := m.Store().GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 0 {
		t.Fatalf("GC after cancel still defers: %v", rep.Deferred)
	}
	fr, err := m.Store().FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Leases != 0 {
		t.Fatalf("fsck reports %d leases after cancel", fr.Leases)
	}
	if !fr.OK() {
		t.Fatalf("fsck problems after cancel: %v", fr.Problems)
	}
}

// TestCursorCloseBeforeExhaustion asserts Close on a part-read cursor
// tears the pipeline down promptly, releases the leases, records
// ErrCursorClosed, and leaves the manager fully usable.
func TestCursorCloseBeforeExhaustion(t *testing.T) {
	ctx := context.Background()
	m := newCachedManager(t, 64<<20, 2)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	cur, err := m.ScanCursor(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !cur.Next() {
		t.Fatalf("no first result: %v", cur.Err())
	}
	if err := cur.Close(); err != nil {
		t.Fatal(err)
	}
	if err := cur.Err(); !errors.Is(err, tasmerr.ErrCursorClosed) {
		t.Fatalf("Err after early Close = %v, want ErrCursorClosed", err)
	}
	if cur.Next() {
		t.Fatal("Next succeeded after Close")
	}
	fr, err := m.Store().FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Leases != 0 {
		t.Fatalf("fsck reports %d leases after Close", fr.Leases)
	}
	// The manager (pool, cache, store) is intact: a fresh scan answers.
	res, _, err := m.ScanContext(ctx, q)
	if err != nil || len(res) == 0 {
		t.Fatalf("scan after Close: %d results, err %v", len(res), err)
	}
	if st := m.CacheStats(); st.BytesCached > 64<<20 {
		t.Fatalf("cache over budget after abandoned cursor: %d", st.BytesCached)
	}
}

// TestDecodeFramesDeadlineExceeded asserts a deadline-expired request
// fails with an error matching context.DeadlineExceeded via errors.Is,
// holding no leases.
func TestDecodeFramesDeadlineExceeded(t *testing.T) {
	m, _ := newManager(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, _, err := m.DecodeFramesContext(ctx, "traffic", 0, 30); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	fr, err := m.Store().FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if fr.Leases != 0 {
		t.Fatalf("expired request leaked %d leases", fr.Leases)
	}
}

// TestScanContextCancelledMidPipeline cancels while decode jobs are in
// flight (before the first Next) and asserts the wrapper surfaces the
// cancellation and releases everything.
func TestScanContextCancelledMidPipeline(t *testing.T) {
	m, _ := newManager(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already-cancelled context: the earliest possible cancel
	_, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	fr, ferr := m.Store().FSCK()
	if ferr != nil {
		t.Fatal(ferr)
	}
	if fr.Leases != 0 {
		t.Fatalf("cancelled scan leaked %d leases", fr.Leases)
	}
}

// TestSingleflightDecodesOnce runs many concurrent identical scans on a
// fresh cached manager and asserts the store decoded each needed tile
// exactly once in total: concurrent requests singleflight onto one
// decode, later requests hit the cache.
func TestSingleflightDecodesOnce(t *testing.T) {
	ctx := context.Background()
	// The reference count of distinct tiles the query needs, measured on
	// an identical (deterministic, seed-fixed) manager.
	ref := newCachedManager(t, 256<<20, 2)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 30")
	_, refSt, err := ref.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if refSt.TilesDecoded == 0 {
		t.Fatal("reference scan decoded nothing")
	}

	m := newCachedManager(t, 256<<20, 2)
	const scans = 8
	var wg sync.WaitGroup
	var mu sync.Mutex
	start := make(chan struct{})
	total := 0
	var firstErr error
	for i := 0; i < scans; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			_, st, err := m.ScanContext(ctx, q)
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstErr == nil {
				firstErr = err
			}
			total += st.TilesDecoded
		}()
	}
	close(start)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
	if total != refSt.TilesDecoded {
		t.Fatalf("%d concurrent scans decoded %d tiles in total, want exactly %d (singleflight + cache)", scans, total, refSt.TilesDecoded)
	}
}

// TestTypedErrors pins the taxonomy: each failure class matches its
// sentinel through errors.Is across the layers.
func TestTypedErrors(t *testing.T) {
	ctx := context.Background()
	m, _ := newManager(t)
	if _, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM nosuch")); !errors.Is(err, tasmerr.ErrVideoNotFound) {
		t.Errorf("scan of missing video: %v, want ErrVideoNotFound", err)
	}
	if _, _, err := m.ScanContext(ctx, mustQuery(t, "SELECT car FROM traffic WHERE 99 <= t < 120")); !errors.Is(err, tasmerr.ErrInvalidRange) {
		t.Errorf("out-of-range scan: %v, want ErrInvalidRange", err)
	}
	if _, _, err := m.DecodeFramesContext(ctx, "traffic", 40, 50); !errors.Is(err, tasmerr.ErrInvalidRange) {
		t.Errorf("out-of-range decode: %v, want ErrInvalidRange", err)
	}
	if _, err := m.RetileSOTContext(ctx, "traffic", 99, layout.Single(192, 96)); !errors.Is(err, tasmerr.ErrSOTNotFound) {
		t.Errorf("retile of missing SOT: %v, want ErrSOTNotFound", err)
	}
	if _, err := m.IngestContext(ctx, "empty", nil, 10); !errors.Is(err, tasmerr.ErrNoFrames) {
		t.Errorf("empty ingest: %v, want ErrNoFrames", err)
	}
	if err := m.DeleteVideo("nosuch"); !errors.Is(err, tasmerr.ErrVideoNotFound) {
		t.Errorf("delete of missing video: %v, want ErrVideoNotFound", err)
	}
}

// TestIngestCancelLeavesNoDebris asserts a cancelled ingest stores
// nothing: no catalog entry, no directories for GC to find.
func TestIngestCancelLeavesNoDebris(t *testing.T) {
	m, v := newManager(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	frames := v.Frames(0, v.Spec.NumFrames())
	if _, err := m.IngestContext(ctx, "cancelled", frames, v.Spec.FPS); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := m.Meta("cancelled"); !errors.Is(err, tasmerr.ErrVideoNotFound) {
		t.Fatalf("cancelled ingest left a catalog entry (err %v)", err)
	}
	rep, err := m.Store().GC()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range rep.Removed {
		t.Errorf("cancelled ingest left debris: %s", p)
	}
}

// TestRetileCancelCommitsNothing asserts a cancelled re-tile leaves the
// old layout live and the store consistent.
func TestRetileCancelCommitsNothing(t *testing.T) {
	m, _ := newManager(t)
	before, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	l2, err := layout.Uniform(2, 2, m.cfg.Constraints(before.W, before.H))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.RetileSOTContext(ctx, "traffic", 0, l2); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	after, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	if !after.SOTs[0].L.Equal(before.SOTs[0].L) || after.SOTs[0].Retiles != before.SOTs[0].Retiles {
		t.Fatal("cancelled retile changed the live layout")
	}
	fr, err := m.Store().FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if !fr.OK() || fr.Leases != 0 {
		t.Fatalf("store inconsistent after cancelled retile: %+v", fr)
	}
}
