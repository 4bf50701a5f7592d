package adapt

import (
	"bytes"
	"context"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Codec.GOPLength = 10
	cfg.MinTileW, cfg.MinTileH = 32, 32
	return cfg
}

// newManager builds a manager over a small synthetic video with ground
// truth indexed for cars and people.
func newManager(t *testing.T, cfg core.Config) *core.Manager {
	t.Helper()
	ctx := context.Background()
	m, err := core.Open(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
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
	frames := v.Frames(0, v.Spec.NumFrames())
	if _, err := m.IngestContext(ctx, "traffic", frames, v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m
}

// eagerAdvisor returns a regret advisor that re-tiles on the first
// profitable query (tiny η), so tests need not replay long workloads.
func eagerAdvisor(m *core.Manager) Advisor {
	c := m.Config()
	return NewRegretAdvisor(c.Model, 1e-9, c.Alpha, c.Granularity)
}

func carQuery() query.Query {
	return query.Query{Video: "traffic", Pred: query.Single("car"), From: 0, To: 30}
}

func TestRecorderObservationAndHeat(t *testing.T) {
	r := NewRecorder(3)
	obs := func(q query.Query) { r.ObserveScan(core.ScanObservation{Query: q, SOTs: 1}) }

	q := query.Query{Video: "v", Pred: query.Single("car"), From: 0, To: 100}
	obs(q)
	obs(q)
	if got := r.QueriesObserved(); got != 2 {
		t.Fatalf("QueriesObserved = %d, want 2", got)
	}

	// Whole-frame observations (empty predicate) never queue.
	obs(query.Query{Video: "v", From: 200, To: 300})
	if r.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2 (label-less request must not queue)", r.Pending())
	}

	// The pending queue is bounded: oldest dropped, counted.
	obs(q)
	obs(q)
	if r.Pending() != 3 || r.Dropped() != 1 {
		t.Fatalf("Pending = %d Dropped = %d, want 3 and 1", r.Pending(), r.Dropped())
	}

	drained := r.Drain(10)
	if len(drained) != 3 || r.Pending() != 0 {
		t.Fatalf("Drain got %d, Pending %d", len(drained), r.Pending())
	}

	obs(q)
	r.ForgetVideo("v")
	if r.Pending() != 0 {
		t.Fatal("ForgetVideo left state behind")
	}
}

func TestRetilerAppliesObservedActions(t *testing.T) {
	ctx := context.Background()
	m := newManager(t, testConfig())
	rt := NewRetiler(m, eagerAdvisor(m), Config{})
	m.SetQueryObserver(rt)
	defer rt.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
			t.Fatal(err)
		}
	}
	if p := rt.Status().QueriesPending; p != 3 {
		t.Fatalf("QueriesPending = %d, want 3", p)
	}
	applied, err := rt.Kick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied < 1 {
		t.Fatalf("Kick applied %d actions, want >= 1", applied)
	}
	st := rt.Status()
	if st.ActionsApplied != int64(applied) || st.QueriesPending != 0 || st.LastAction == "" {
		t.Fatalf("status %+v inconsistent with %d applied", st, applied)
	}

	meta, err := m.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	tiled := false
	for _, sot := range meta.SOTs {
		if !sot.L.IsSingle() {
			tiled = true
		}
	}
	if !tiled {
		t.Fatal("no SOT was re-tiled")
	}
}

func TestRetilerBackgroundLoop(t *testing.T) {
	ctx := context.Background()
	m := newManager(t, testConfig())
	rt := NewRetiler(m, eagerAdvisor(m), Config{Interval: 10 * time.Millisecond})
	m.SetQueryObserver(rt)
	rt.Start()
	defer rt.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.Status().ActionsApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("background loop applied nothing; status %+v", rt.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Scans concurrent with (and after) the background re-tile keep
	// working.
	if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
		t.Fatal(err)
	}
}

func TestRetilerPauseResume(t *testing.T) {
	ctx := context.Background()
	m := newManager(t, testConfig())
	rt := NewRetiler(m, eagerAdvisor(m), Config{})
	m.SetQueryObserver(rt)
	defer rt.Close()

	rt.Pause("maintenance")
	for i := 0; i < 3; i++ {
		if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
			t.Fatal(err)
		}
	}
	if applied, _ := rt.Kick(context.Background()); applied != 0 {
		t.Fatalf("paused Kick applied %d actions", applied)
	}
	st := rt.Status()
	if !st.Paused || st.PauseReason != "maintenance" || st.QueriesPending == 0 {
		t.Fatalf("pause status %+v", st)
	}

	rt.Resume()
	applied, err := rt.Kick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied < 1 {
		t.Fatal("resume did not release the queued work")
	}
}

func TestDeleteVideoClearsObservationState(t *testing.T) {
	ctx := context.Background()
	m := newManager(t, testConfig())
	rt := NewRetiler(m, eagerAdvisor(m), Config{})
	m.SetQueryObserver(rt)
	defer rt.Close()

	for i := 0; i < 3; i++ {
		if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
			t.Fatal(err)
		}
	}
	if rt.Status().QueriesPending == 0 {
		t.Fatal("no pending observations before delete")
	}
	if err := m.DeleteVideo("traffic"); err != nil {
		t.Fatal(err)
	}
	st := rt.Status()
	if st.QueriesPending != 0 {
		t.Fatalf("QueriesPending = %d after delete, want 0", st.QueriesPending)
	}
	if st.Regret != 0 {
		t.Fatalf("Regret = %v after delete, want 0", st.Regret)
	}
	// A cycle after deletion must be a clean no-op, not an error.
	if applied, err := rt.Kick(context.Background()); err != nil || applied != 0 {
		t.Fatalf("post-delete Kick: applied %d, err %v", applied, err)
	}
}

// compareScans asserts two managers return byte-identical results for q.
func compareScans(t *testing.T, label string, a, b *core.Manager, q query.Query) {
	t.Helper()
	ctx := context.Background()
	want, _, err := a.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := b.ScanContext(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for j := range got {
		g, w := got[j], want[j]
		if g.Frame != w.Frame || g.Region != w.Region {
			t.Fatalf("%s result %d: %v/%v vs %v/%v", label, j, g.Frame, g.Region, w.Frame, w.Region)
		}
		if !bytes.Equal(g.Pixels.Y, w.Pixels.Y) || !bytes.Equal(g.Pixels.Cb, w.Pixels.Cb) || !bytes.Equal(g.Pixels.Cr, w.Pixels.Cr) {
			t.Fatalf("%s result %d: pixel mismatch", label, j)
		}
	}
}

// TestScanResultsIdenticalUnderAutotile is the correctness acceptance bar:
// the autotiled store must read byte-identical pixels to a shadow store in
// the same layout state — before any re-tile against the untouched shadow,
// and after re-tiles against the shadow re-tiled to the same layouts (the
// codec is lossy, so a re-encode changes bytes; what must not change is the
// reconstruction both stores agree on).
func TestScanResultsIdenticalUnderAutotile(t *testing.T) {
	shadow := newManager(t, testConfig())
	adaptive := newManager(t, testConfig())
	rt := NewRetiler(adaptive, eagerAdvisor(adaptive), Config{})
	adaptive.SetQueryObserver(rt)
	defer rt.Close()

	for i := 0; i < 3; i++ {
		compareScans(t, "pre-retile", shadow, adaptive, carQuery())
	}
	applied, err := rt.Kick(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if applied == 0 {
		t.Fatal("workload never triggered a background re-tile; the test is vacuous")
	}

	// Mirror the layouts the re-tiler chose onto the shadow store.
	meta, err := adaptive.Meta("traffic")
	if err != nil {
		t.Fatal(err)
	}
	for _, sot := range meta.SOTs {
		if sot.L.IsSingle() {
			continue
		}
		if _, err := shadow.RetileSOTContext(context.Background(), "traffic", sot.ID, sot.L); err != nil {
			t.Fatal(err)
		}
	}
	compareScans(t, "post-retile", shadow, adaptive, carQuery())
	// And the autotiled store is self-consistent across repeated reads.
	compareScans(t, "self", adaptive, adaptive, carQuery())
}

func TestRetilerIOBudgetThrottles(t *testing.T) {
	ctx := context.Background()
	m := newManager(t, testConfig())
	// 1 byte/sec budget: the throttle sleep after one action would be
	// enormous — Close must abandon it promptly.
	rt := NewRetiler(m, eagerAdvisor(m), Config{IOBudget: 1, MaxActionsPerCycle: 1})
	m.SetQueryObserver(rt)
	rt.Start()
	for i := 0; i < 3; i++ {
		if _, _, err := m.ScanContext(ctx, carQuery()); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for rt.Status().ActionsApplied == 0 {
		if time.Now().After(deadline) {
			t.Fatal("throttled loop applied nothing")
		}
		time.Sleep(5 * time.Millisecond)
	}
	start := time.Now()
	rt.Close()
	if since := time.Since(start); since > 5*time.Second {
		t.Fatalf("Close blocked %v on the throttle sleep", since)
	}
	if st := rt.Status(); st.BytesSpent == 0 || st.IOBudget != 1 {
		t.Fatalf("budget accounting %+v", st)
	}
}
