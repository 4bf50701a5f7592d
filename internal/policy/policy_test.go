package policy

import (
	"context"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
)

func testConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Codec.GOPLength = 10
	cfg.MinTileW, cfg.MinTileH = 32, 32
	return cfg
}

// fixture ingests a 3-SOT sparse video with ground-truth detections for
// cars and people.
func fixture(t *testing.T) (*core.Manager, *scene.Video) {
	t.Helper()
	ctx := context.Background()
	m, err := core.Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Close() })
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 3,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.16},
			{Class: scene.Person, Count: 2, SizeFrac: 0.22},
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.IngestContext(ctx, "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	indexAll(t, m, v)
	return m, v
}

func indexAll(t *testing.T, m *core.Manager, v *scene.Video) {
	t.Helper()
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			if err := m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, label := range []string{scene.Car, scene.Person} {
		if err := m.Index().MarkDetected("traffic", label, 0, v.Spec.NumFrames()); err != nil {
			t.Fatal(err)
		}
	}
}

func mustQuery(t *testing.T, s string) query.Query {
	t.Helper()
	q, err := query.Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestKQKOPlansQueriedSOTsOnly(t *testing.T) {
	ctx := context.Background()
	m, _ := fixture(t)
	k := NewKQKO()
	workload := []query.Query{mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 10")}
	actions, err := k.Plan(m, "traffic", workload)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("KQKO produced no actions for a sparse video")
	}
	for _, a := range actions {
		if a.SOTID != 0 {
			t.Errorf("action for unqueried SOT %d", a.SOTID)
		}
		if a.Layout.IsSingle() {
			t.Error("action with untiled layout")
		}
		if !strings.Contains(a.Reason, "car") {
			t.Errorf("reason %q missing label", a.Reason)
		}
	}
	// Applying the plan speeds up the query.
	q := workload[0]
	_, before, _ := m.ScanContext(ctx, q)
	if _, err := Apply(context.Background(), m, actions); err != nil {
		t.Fatal(err)
	}
	_, after, _ := m.ScanContext(ctx, q)
	if after.PixelsDecoded >= before.PixelsDecoded {
		t.Errorf("KQKO plan did not reduce pixels: %d -> %d", before.PixelsDecoded, after.PixelsDecoded)
	}
}

func TestKQKOIgnoresOtherVideos(t *testing.T) {
	m, _ := fixture(t)
	k := NewKQKO()
	actions, err := k.Plan(m, "traffic", []query.Query{mustQuery(t, "SELECT car FROM other")})
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Errorf("planned %d actions for a workload on another video", len(actions))
	}
}

func TestAllObjectsCoversAllSOTs(t *testing.T) {
	m, _ := fixture(t)
	actions, err := AllObjects(m, "traffic", layout.Fine)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 3 {
		t.Fatalf("AllObjects planned %d actions, want 3 (one per SOT)", len(actions))
	}
	ids := map[int]bool{}
	for _, a := range actions {
		ids[a.SOTID] = true
	}
	if len(ids) != 3 {
		t.Errorf("duplicate SOT actions: %v", ids)
	}
}

func TestLazyWaitsForCoverage(t *testing.T) {
	ctx := context.Background()
	m, err := core.Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, _ := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 2,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.16}},
		Seed:    5,
	})
	if _, err := m.IngestContext(ctx, "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	lazy := NewLazyKnownQueries([]string{scene.Car})
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 10")

	// No detections yet: no actions (locations unknown).
	actions, err := lazy.ObserveQuery(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 0 {
		t.Fatalf("lazy tiled before detection coverage: %v", actions)
	}

	// Index SOT 0's detections and mark coverage.
	for f := 0; f < 10; f++ {
		for _, tr := range v.GroundTruth(f) {
			m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1)
		}
	}
	m.Index().MarkDetected("traffic", scene.Car, 0, 10)
	actions, err = lazy.ObserveQuery(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) != 1 || actions[0].SOTID != 0 {
		t.Fatalf("lazy actions = %v", actions)
	}
	// Once planned, the SOT is not re-planned.
	actions, _ = lazy.ObserveQuery(m, q)
	if len(actions) != 0 {
		t.Errorf("lazy re-planned a tiled SOT: %v", actions)
	}
}

func TestIncrementalMoreGrowsLabelSet(t *testing.T) {
	m, _ := fixture(t)
	im := NewIncrementalMore()
	qCar := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 10")
	actions, err := im.ObserveQuery(m, qCar)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Fatal("no actions on first query")
	}
	if !strings.HasSuffix(actions[0].Reason, "car") {
		t.Errorf("first layout reason = %q", actions[0].Reason)
	}
	if _, err := Apply(context.Background(), m, actions); err != nil {
		t.Fatal(err)
	}
	// Same query again: no new actions.
	actions, _ = im.ObserveQuery(m, qCar)
	if len(actions) != 0 {
		t.Errorf("re-planned unchanged label set: %v", actions)
	}
	// A person query upgrades the layout to car+person.
	qPerson := mustQuery(t, "SELECT person FROM traffic WHERE 0 <= t < 10")
	actions, _ = im.ObserveQuery(m, qPerson)
	if len(actions) == 0 {
		t.Fatal("no actions for new label")
	}
	if !strings.Contains(actions[0].Reason, "car+person") {
		t.Errorf("reason = %q, want car+person", actions[0].Reason)
	}
}

func TestRegretAccumulatesThenRetiles(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegret(m.Config().Model)
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 10")
	fired := -1
	for i := 0; i < 30; i++ {
		actions, err := r.ObserveQuery(m, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(actions) > 0 {
			fired = i
			if actions[0].SOTID != 0 {
				t.Errorf("retiled SOT %d", actions[0].SOTID)
			}
			if !strings.Contains(actions[0].Reason, "car") {
				t.Errorf("reason = %q", actions[0].Reason)
			}
			break
		}
	}
	if fired < 0 {
		t.Fatal("regret never triggered a retile")
	}
	if fired == 0 {
		t.Error("regret triggered on the very first query with η=1; expected accumulation over multiple queries")
	}
}

func TestRegretEtaZeroFiresImmediately(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegret(m.Config().Model)
	r.Eta = 0
	q := mustQuery(t, "SELECT car FROM traffic WHERE 0 <= t < 10")
	actions, err := r.ObserveQuery(m, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(actions) == 0 {
		t.Error("η=0 did not fire on first query")
	}
}

func TestRegretAlphaBlocksDenseLayouts(t *testing.T) {
	ctx := context.Background()
	// A dense video: objects cover most of the frame, so any layout fails
	// the α rule and regret must never retile.
	m, err := core.Open(t.TempDir(), testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	v, _ := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 2,
		Classes: []scene.ClassMix{{Class: scene.Person, Count: 8, SizeFrac: 0.5}},
		Seed:    11,
	})
	if _, err := m.IngestContext(ctx, "traffic", v.Frames(0, v.Spec.NumFrames()), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	for f := 0; f < v.Spec.NumFrames(); f++ {
		for _, tr := range v.GroundTruth(f) {
			m.AddMetadata("traffic", f, tr.Label, tr.Box.X0, tr.Box.Y0, tr.Box.X1, tr.Box.Y1)
		}
	}
	r := NewRegret(m.Config().Model)
	r.Eta = 0 // even with no cost barrier, α must block
	q := mustQuery(t, "SELECT person FROM traffic WHERE 0 <= t < 10")
	for i := 0; i < 10; i++ {
		actions, err := r.ObserveQuery(m, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(actions) != 0 {
			t.Fatalf("α rule failed to block dense retile (iteration %d): %v", i, actions)
		}
	}
}

func TestLabelSubsets(t *testing.T) {
	if got := labelSubsets(nil); got != nil {
		t.Errorf("empty subsets = %v", got)
	}
	got := labelSubsets([]string{"a", "b"})
	if len(got) != 3 {
		t.Errorf("2-label subsets = %d, want 3", len(got))
	}
	got = labelSubsets([]string{"a", "b", "c"})
	if len(got) != 7 {
		t.Errorf("3-label subsets = %d, want 7", len(got))
	}
	// Cap: 8 labels fall back to singletons + full set.
	many := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	got = labelSubsets(many)
	if len(got) != 9 {
		t.Errorf("capped subsets = %d, want 9", len(got))
	}
}

func TestEdgeLayouts(t *testing.T) {
	v, _ := scene.Generate(scene.Spec{
		Name: "cam", W: 192, H: 96, FPS: 10, DurationSec: 2,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.16}},
		Seed:    3,
	})
	det := &detect.EveryN{Inner: &detect.Oracle{Lat: detect.EdgeLatencies()}, N: 5}
	cons := layout.Constraints{FrameW: 192, FrameH: 96, Align: 16, MinWidth: 32, MinHeight: 32}
	layouts, ds, lat, err := EdgeLayouts(v, det, []string{scene.Car}, 10, cons, layout.Fine)
	if err != nil {
		t.Fatal(err)
	}
	if len(layouts) != 2 {
		t.Fatalf("layouts = %d, want 2 SOTs", len(layouts))
	}
	tiledSome := false
	for i, l := range layouts {
		if err := l.Validate(cons); err != nil {
			t.Errorf("SOT %d layout invalid: %v", i, err)
		}
		if !l.IsSingle() {
			tiledSome = true
		}
	}
	if !tiledSome {
		t.Error("edge produced no tiled layouts")
	}
	if len(ds) == 0 {
		t.Error("edge produced no detections")
	}
	// Every-5 on 20 frames = 4 detector invocations.
	if want := 4 * detect.EdgeLatencies().Full; lat != want {
		t.Errorf("latency = %v, want %v", lat, want)
	}
}

func TestApplyPropagatesErrors(t *testing.T) {
	m, _ := fixture(t)
	bad := []Action{{Video: "traffic", SOTID: 77, Layout: layout.Single(192, 96)}}
	if _, err := Apply(context.Background(), m, bad); err == nil {
		t.Error("Apply of bad action succeeded")
	}
}
