package shard_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/server"
	"github.com/tasm-repro/tasm/internal/shard"
)

// oneShard is a single backend tasmd-equivalent: a real store served
// by the real server handler.
type oneShard struct {
	sm *tasm.StorageManager
	ts *httptest.Server
}

// fleet is the scatter-gather test rig: three real shards, a router
// over them, a single-node reference holding the same dataset, and
// clients against both.
type fleet struct {
	shards []*oneShard
	m      *shard.Map
	rt     *shard.Router
	ts     *httptest.Server // the router's listener
	c      *client.Client   // NDJSON client against the router
	ref    *oneShard        // single node with every video, the fidelity reference
	refC   *client.Client
	videos []string
}

func startShard(t *testing.T) *oneShard {
	t.Helper()
	sm, err := tasm.Open(t.TempDir(), tasm.WithGOPLength(5), tasm.WithMinTileSize(32, 32))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	ts := httptest.NewUnstartedServer(server.New(sm, server.Config{}))
	ts.Listener = smallSendBufListener{ts.Listener}
	ts.Start()
	t.Cleanup(ts.Close)
	return &oneShard{sm: sm, ts: ts}
}

// smallSendBufListener clamps the kernel send buffer of every accepted
// shard connection. The kill-mid-stream tests depend on a scatter-gather
// stream being genuinely in flight when its shard dies; with default
// buffers, loopback TCP autotunes to several megabytes and an entire
// "big" stream can park in socket buffers before the kill lands, turning
// the expected shard_unavailable into a clean end of stream.
type smallSendBufListener struct{ net.Listener }

func (l smallSendBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(8 << 10)
	}
	return c, err
}

// camSpec generates one distinguishable camera feed: the seed varies
// per video so pixel bytes differ across videos and byte-identity
// checks catch cross-video mixups.
func camSpec(name string, seed uint64) scene.Spec {
	return scene.Spec{
		Name: name, W: 192, H: 96, FPS: 10, DurationSec: 2,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.2},
		},
		Seed: seed,
	}
}

// bigCamSpec is camSpec scaled up so a scatter-gather stream carries
// megabytes per shard — enough that killing a shard mid-scan finds its
// stream genuinely in flight rather than already sitting in socket
// buffers.
func bigCamSpec(name string, seed uint64) scene.Spec {
	return scene.Spec{
		Name: name, W: 384, H: 192, FPS: 10, DurationSec: 4,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 3, SizeFrac: 0.3},
			{Class: scene.Person, Count: 1, SizeFrac: 0.25},
		},
		Seed: seed,
	}
}

// newFleet builds 3 shards + router + reference, seeding every video
// twice: through the router (exercising routed ingest and metadata)
// and directly into the reference store. Ingest is deterministic, so
// the two copies are bit-identical.
func newFleet(t *testing.T, videos ...string) *fleet {
	return newFleetSpec(t, camSpec, videos...)
}

func newFleetSpec(t *testing.T, spec func(string, uint64) scene.Spec, videos ...string) *fleet {
	t.Helper()
	f := &fleet{videos: videos, ref: startShard(t)}
	var entries []shard.MapEntry
	for i := 0; i < 3; i++ {
		s := startShard(t)
		f.shards = append(f.shards, s)
		entries = append(entries, shard.MapEntry{Name: fmt.Sprintf("s%d", i), Addr: s.ts.URL})
	}
	m, err := shard.NewMap(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.m = m
	rt, err := shard.NewRouter(m, shard.RouterConfig{HealthInterval: 200 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	f.rt = rt
	f.ts = httptest.NewServer(rt)
	t.Cleanup(f.ts.Close)
	if f.c, err = client.New(f.ts.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.c.Close() })
	if f.refC, err = client.New(f.ref.ts.URL); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.refC.Close() })

	ctx := context.Background()
	for i, name := range videos {
		v, err := scene.Generate(spec(name, uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		n := v.Spec.NumFrames()
		var ds []tasm.Detection
		for fr := 0; fr < n; fr++ {
			for _, tr := range v.GroundTruth(fr) {
				ds = append(ds, tasm.Detection{Frame: fr, Label: tr.Label, Box: tr.Box})
			}
		}
		// Through the router: ingest, detections, and the index mark all
		// land on whichever shard the ring says owns the name.
		if _, err := f.c.IngestContext(ctx, name, v.Frames(0, n), v.Spec.FPS); err != nil {
			t.Fatalf("routed ingest %s: %v", name, err)
		}
		if err := f.c.AddDetectionsContext(ctx, name, ds); err != nil {
			t.Fatal(err)
		}
		if err := f.c.MarkDetectedContext(ctx, name, "car", 0, n); err != nil {
			t.Fatal(err)
		}
		// And the same data directly into the reference store.
		if _, err := f.ref.sm.IngestContext(ctx, name, v.Frames(0, n), v.Spec.FPS); err != nil {
			t.Fatal(err)
		}
		if err := f.ref.sm.AddDetections(name, ds); err != nil {
			t.Fatal(err)
		}
		if err := f.ref.sm.MarkDetected(name, "car", 0, n); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// owner names the shard the ring assigns a video to.
func (f *fleet) owner(video string) int {
	name := f.m.Owner(video).Name
	var i int
	fmt.Sscanf(name, "s%d", &i)
	return i
}

func (f *fleet) multiSQL() string {
	return "SELECT car FROM " + strings.Join(f.videos, ",") + " WHERE 0 <= t < 20"
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func sameRegions(t *testing.T, label string, got, ref []tasm.RegionResult) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d regions, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i].Frame != ref[i].Frame || got[i].Region != ref[i].Region {
			t.Fatalf("%s region %d: (%d,%v) != reference (%d,%v)",
				label, i, got[i].Frame, got[i].Region, ref[i].Frame, ref[i].Region)
		}
		if string(got[i].Pixels.Y) != string(ref[i].Pixels.Y) ||
			string(got[i].Pixels.Cb) != string(ref[i].Pixels.Cb) ||
			string(got[i].Pixels.Cr) != string(ref[i].Pixels.Cr) {
			t.Fatalf("%s region %d: pixel bytes differ from reference", label, i)
		}
	}
}

// TestScatterGatherMatchesSingleNode is the acceptance bar: the same
// multi-video query through the router (videos spread over 3 shards)
// and against a single node holding everything yields byte-identical
// region streams, in both negotiated framings.
func TestScatterGatherMatchesSingleNode(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, "cam0", "cam1", "cam2", "cam3")

	// The fleet must actually be spread, or the test proves nothing.
	owners := map[int]bool{}
	for _, v := range f.videos {
		owners[f.owner(v)] = true
	}
	if len(owners) < 2 {
		t.Fatalf("ring put all videos on one shard; pick different names (owners: %v)", owners)
	}

	ref, refSt, err := f.ref.sm.ScanSQLContext(ctx, f.multiSQL())
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference scan found nothing; dataset is broken")
	}

	got, gotSt, err := f.c.ScanSQLContext(context.Background(), f.multiSQL())
	if err != nil {
		t.Fatal(err)
	}
	sameRegions(t, "ndjson", got, ref)
	if gotSt.RegionsReturned != refSt.RegionsReturned {
		t.Fatalf("stats: %d regions via router, %d single-node", gotSt.RegionsReturned, refSt.RegionsReturned)
	}

	bc, err := client.New(f.ts.URL, client.WithEncoding(client.Binary))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	got2, _, err := bc.ScanSQLContext(context.Background(), f.multiSQL())
	if err != nil {
		t.Fatal(err)
	}
	sameRegions(t, "binary", got2, ref)

	// The single-video remote path through the router matches too.
	one := "SELECT car FROM cam2 WHERE 0 <= t < 20"
	refOne, _, err := f.ref.sm.ScanSQLContext(ctx, one)
	if err != nil {
		t.Fatal(err)
	}
	gotOne, _, err := f.c.ScanSQLContext(context.Background(), one)
	if err != nil {
		t.Fatal(err)
	}
	sameRegions(t, "single-video", gotOne, refOne)
}

// TestDecodeFramesThroughRouter: the relayed whole-frame stream is
// byte-identical to the single node's.
func TestDecodeFramesThroughRouter(t *testing.T) {
	ctx := context.Background()
	f := newFleet(t, "cam0", "cam1")
	ref, _, err := f.ref.sm.DecodeFramesContext(ctx, "cam1", 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := f.c.DecodeFramesCursor(context.Background(), "cam1", 3, 15)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	i := 0
	for cur.Next() {
		r := cur.Result()
		if r.Index != 3+i || string(r.Pixels.Y) != string(ref[i].Y) {
			t.Fatalf("frame %d differs through the router", r.Index)
		}
		i++
	}
	if err := cur.Err(); err != nil || i != len(ref) {
		t.Fatalf("relayed %d frames, err %v", i, err)
	}
}

// TestShardKillMidStream is the failure half of the acceptance bar:
// SIGKILL one shard while a scatter-gather scan is in flight and the
// client sees (a) the regions already merged, then (b) exactly
// tasm.ErrShardUnavailable through the trailer — with every goroutine
// and lease on the surviving shards released.
func TestShardKillMidStream(t *testing.T) {
	f := newFleetSpec(t, bigCamSpec, "cam0", "cam1", "cam2", "cam3")
	victim := f.owner("cam0")
	sql := "SELECT car FROM " + strings.Join(f.videos, ",") + " WHERE 0 <= t < 40"

	// Warm, then baseline goroutines for the leak check.
	if _, _, err := f.c.ScanSQLContext(context.Background(), sql); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	baseline := runtime.NumGoroutine()

	cur, err := f.c.ScanSQLCursor(context.Background(), sql)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	delivered := 0
	for i := 0; i < 2; i++ {
		if !cur.Next() {
			t.Fatalf("stream ended after %d regions: %v", delivered, cur.Err())
		}
		delivered++
	}

	// Kill the shard owning cam0 the hard way: drop its connections
	// (the in-flight stream dies mid-body) and stop the listener.
	f.shards[victim].ts.CloseClientConnections()
	f.shards[victim].ts.Close()

	for cur.Next() {
		delivered++
	}
	if err := cur.Err(); !errors.Is(err, tasm.ErrShardUnavailable) {
		t.Fatalf("after shard kill: err = %v, want ErrShardUnavailable", err)
	}
	if !errors.Is(cur.Err(), client.ErrShardUnavailable) {
		t.Fatal("client re-export does not match the same sentinel")
	}
	if delivered < 2 {
		t.Fatalf("only %d regions before the error; partial results were not delivered", delivered)
	}
	cur.Close()

	// Surviving shards: no stuck leases (their cursors were closed when
	// the merge tore down), no goroutine leak in the router process.
	for i, s := range f.shards {
		if i == victim {
			continue
		}
		waitFor(t, fmt.Sprintf("leases on shard %d", i), func() bool {
			rep, err := s.sm.FSCK()
			return err == nil && rep.Leases == 0
		})
	}
	waitFor(t, "goroutines to return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}

// TestBreakerFailsFastAndFleetKeepsServing: once the prober marks the
// dead shard down, requests for its videos fail immediately with
// shard_unavailable while every other shard's videos keep serving.
func TestBreakerFailsFastAndFleetKeepsServing(t *testing.T) {
	f := newFleet(t, "cam0", "cam1", "cam2", "cam3")
	victim := f.owner("cam0")
	var survivor string
	for _, v := range f.videos {
		if f.owner(v) != victim {
			survivor = v
			break
		}
	}
	if survivor == "" {
		t.Fatal("every video on one shard; cannot test isolation")
	}

	f.shards[victim].ts.CloseClientConnections()
	f.shards[victim].ts.Close()

	// A routed request fails with shard_unavailable as soon as the dial
	// fails, before the breaker's consecutive-failure threshold is met —
	// so wait for the breaker itself (the /metrics gauge) rather than
	// the first failed request.
	down := fmt.Sprintf("tasm_router_shard_up{shard=%q} 0", fmt.Sprintf("s%d", victim))
	waitFor(t, "breaker to open", func() bool {
		if _, err := f.c.MetaContext(context.Background(), "cam0"); !errors.Is(err, tasm.ErrShardUnavailable) {
			return false
		}
		res, err := http.Get(f.ts.URL + "/metrics")
		if err != nil {
			return false
		}
		b, _ := io.ReadAll(res.Body)
		res.Body.Close()
		return strings.Contains(string(b), down)
	})

	// Fail-fast: no dials once the breaker is open.
	start := time.Now()
	if _, err := f.c.MetaContext(context.Background(), "cam0"); !errors.Is(err, tasm.ErrShardUnavailable) {
		t.Fatalf("got %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("breaker-open request took %v; expected fail-fast", d)
	}

	// The rest of the fleet is untouched.
	if _, err := f.c.MetaContext(context.Background(), survivor); err != nil {
		t.Fatalf("surviving shard's video failed: %v", err)
	}
	if _, _, err := f.c.ScanSQLContext(context.Background(),
		"SELECT car FROM "+survivor+" WHERE 0 <= t < 20"); err != nil {
		t.Fatalf("surviving shard's scan failed: %v", err)
	}

	// /metrics and /v1/shards agree the shard is down.
	res, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), down) {
		t.Fatalf("/metrics missing %q:\n%s", down, body)
	}
	if !strings.Contains(string(body), "tasm_router_requests_total") {
		t.Fatal("/metrics missing routed-request counters")
	}

	// Stats still answer, carrying the per-shard breakdown with the
	// dead shard annotated rather than failing the whole aggregation.
	stats, err := f.c.StatsContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Shards) != 3 {
		t.Fatalf("stats breakdown has %d shards", len(stats.Shards))
	}
	deadSeen := false
	for _, s := range stats.Shards {
		if s.Shard == fmt.Sprintf("s%d", victim) {
			deadSeen = true
			if s.Healthy || s.Error == "" {
				t.Fatalf("dead shard reported healthy: %+v", s)
			}
		}
	}
	if !deadSeen {
		t.Fatal("dead shard missing from breakdown")
	}
}

// TestRouterUnaryAndFanout sweeps the rest of the surface through the
// router: catalog union, merged fsck, remote-sentinel passthrough, and
// the shard listing.
func TestRouterUnaryAndFanout(t *testing.T) {
	f := newFleet(t, "cam0", "cam1", "cam2")

	videos, err := f.c.VideosContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(videos, ",") != "cam0,cam1,cam2" {
		t.Fatalf("catalog union = %v", videos)
	}

	meta, bytes, labels, err := f.c.VideoInfoContext(context.Background(), "cam1")
	if err != nil || meta.Name != "cam1" || bytes == 0 || len(labels) == 0 {
		t.Fatalf("videoinfo: %+v %d %v %v", meta, bytes, labels, err)
	}

	rep, err := f.c.FSCKContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Videos != 3 || len(rep.Problems) != 0 {
		t.Fatalf("merged fsck: %+v", rep)
	}
	if _, err := f.c.GCContext(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Typed errors from a healthy shard pass through with their exact
	// identity — not found is not an outage.
	if _, err := f.c.MetaContext(context.Background(), "missing"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Fatalf("routed miss: %v", err)
	}
	if err := f.c.AutotilePauseContext(context.Background(), "x"); !errors.Is(err, tasm.ErrAutotileDisabled) {
		t.Fatalf("fanout pause on autotile-less shards: %v", err)
	}

	// The shard listing names the fleet.
	res, err := http.Get(f.ts.URL + "/v1/shards")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	for _, want := range []string{`"s0"`, `"s1"`, `"s2"`, `"healthy":true`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/v1/shards missing %s: %s", want, body)
		}
	}

	// Delete through the router and the catalog shrinks.
	if err := f.c.DeleteVideoContext(context.Background(), "cam2"); err != nil {
		t.Fatal(err)
	}
	videos, err = f.c.VideosContext(context.Background())
	if err != nil || len(videos) != 2 {
		t.Fatalf("catalog after delete: %v %v", videos, err)
	}
}

// TestMapReloadKeepsOwnership: swapping in a map where one shard moved
// address keeps every video on its shard (names anchor the ring) and
// requests keep working.
func TestMapReloadKeepsOwnership(t *testing.T) {
	f := newFleet(t, "cam0", "cam1")
	before := map[string]string{}
	for _, v := range f.videos {
		before[v] = f.m.Owner(v).Name
	}

	// Replace s2's address with a fresh (empty) shard. Only videos
	// owned by s2 would be affected — ownership by name is unchanged.
	spare := startShard(t)
	entries := f.m.Shards()
	entries[2].Addr = spare.ts.URL
	m2, err := shard.NewMap(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.rt.SetMap(m2); err != nil {
		t.Fatal(err)
	}
	for _, v := range f.videos {
		if m2.Owner(v).Name != before[v] {
			t.Fatalf("%s moved shards on an address-only reload", v)
		}
	}
	// The fleet still serves (cam0/cam1 are on s0/s1 in this layout or
	// the spare now owns them empty — either way the router must answer).
	for _, v := range f.videos {
		_, err := f.c.MetaContext(context.Background(), v)
		if err != nil && !errors.Is(err, tasm.ErrVideoNotFound) {
			t.Fatalf("after reload, Meta(%s): %v", v, err)
		}
	}
}

// TestDeadlineForwardedToShards: the caller's Tasm-Deadline-Ms bounds
// every hop, not just the router's boundary check. A shard that stalls
// on a unary call must see the deadline header (so it can bound its own
// work) and the router must answer deadline_exceeded once it passes,
// not wait out the stall. The 10 s client timeout is a hang detector
// (200x the deadline), not a latency bound.
func TestDeadlineForwardedToShards(t *testing.T) {
	release := make(chan struct{})
	sawDeadline := make(chan string, 1)
	stalled := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/healthz" {
			io.WriteString(w, `{"ok":true}`)
			return
		}
		select {
		case sawDeadline <- r.Header.Get("Tasm-Deadline-Ms"):
		default:
		}
		select {
		case <-release:
		case <-r.Context().Done():
		}
	}))
	defer stalled.Close()
	defer close(release)

	m, err := shard.NewMap([]shard.MapEntry{{Name: "s0", Addr: stalled.URL}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(m, shard.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt)
	defer ts.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/videos/cam0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Tasm-Deadline-Ms", "50")
	res, err := (&http.Client{Timeout: 10 * time.Second}).Do(req)
	if err != nil {
		t.Fatalf("router outlived the caller's deadline: %v", err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusGatewayTimeout || !strings.Contains(string(body), `"deadline_exceeded"`) {
		t.Fatalf("status %d body %s, want 504 deadline_exceeded", res.StatusCode, body)
	}
	select {
	case h := <-sawDeadline:
		if h == "" {
			t.Fatal("shard hop carried no Tasm-Deadline-Ms header")
		}
	default:
		t.Fatal("the stalled shard was never called")
	}
}

// TestMalformedWritesAre400ThroughRouter: the owning shard's 400-class
// rejection of a malformed write survives the routed hop with its
// classification, and the router's catalog gains nothing (the tasmd-side
// table is internal/server's TestMalformedWritesAre400).
func TestMalformedWritesAre400ThroughRouter(t *testing.T) {
	f := newFleet(t, "cam0")
	ctx := context.Background()
	frames := []*tasm.Frame{tasm.NewFrame(192, 96), tasm.NewFrame(192, 96), tasm.NewFrame(64, 64)}
	whole := tasm.Layout{RowHeights: []int{96}, ColWidths: []int{192}}
	_, retileErr := f.c.RetileSOTContext(ctx, "cam0", 0, tasm.Layout{RowHeights: []int{64}, ColWidths: []int{64}})
	_, mixedErr := f.c.IngestContext(ctx, "mixed", frames, 10)
	_, countErr := f.c.IngestTiledContext(ctx, "miscounted", frames[:2], 10, []tasm.Layout{whole, whole})
	for name, err := range map[string]error{"retile": retileErr, "mixed-size ingest": mixedErr, "layout count": countErr} {
		if !errors.Is(err, tasm.ErrInvalidRange) {
			t.Errorf("%s through the router: %v, want ErrInvalidRange", name, err)
		}
	}
	if vids, err := f.c.VideosContext(ctx); err != nil || strings.Join(vids, ",") != "cam0" {
		t.Errorf("videos after the rejected writes = %v (err %v), want only cam0", vids, err)
	}
}

// TestBadIndexAndLiveWritesAre4xxThroughRouter: the owning shard's 404
// for an index write on an unknown video, and its 400 for a malformed
// detection or a negative live retention, keep their classification
// across the routed hop (the tasmd-side table is internal/server's
// TestBadIndexAndLiveWritesAre4xx).
func TestBadIndexAndLiveWritesAre4xxThroughRouter(t *testing.T) {
	f := newFleet(t, "cam0")
	ctx := context.Background()
	box := tasm.Rect{X0: 10, Y0: 10, X1: 40, Y1: 40}
	for name, tc := range map[string]struct{ got, want error }{
		"detections for an unknown video": {
			f.c.AddDetectionsContext(ctx, "nope", []tasm.Detection{{Frame: 1, Label: "car", Box: box}}), tasm.ErrVideoNotFound},
		"markdetected for an unknown video": {
			f.c.MarkDetectedContext(ctx, "nope", "car", 0, 5), tasm.ErrVideoNotFound},
		"negative frame": {
			f.c.AddDetectionsContext(ctx, "cam0", []tasm.Detection{{Frame: -1, Label: "car", Box: box}}), tasm.ErrInvalidRange},
		"empty box": {
			f.c.AddDetectionsContext(ctx, "cam0", []tasm.Detection{{Frame: 1, Label: "car"}}), tasm.ErrInvalidRange},
		"empty label": {
			f.c.AddDetectionsContext(ctx, "cam0", []tasm.Detection{{Frame: 1, Box: box}}), tasm.ErrInvalidName},
		"live create with a negative retention bound": {
			f.c.CreateLiveContext(ctx, "live0", 64, 32, 10, &tasm.RetentionPolicy{MaxBytes: -1}), tasm.ErrInvalidRange},
	} {
		if !errors.Is(tc.got, tc.want) {
			t.Errorf("%s through the router: %v, want %v", name, tc.got, tc.want)
		}
	}
	if vids, err := f.c.VideosContext(ctx); err != nil || strings.Join(vids, ",") != "cam0" {
		t.Errorf("videos after the rejected writes = %v (err %v), want only cam0", vids, err)
	}
	res, err := http.Get(f.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if !strings.Contains(string(body), "tasm_router_request_panics_total 0\n") {
		t.Errorf("router recovered a panic:\n%s", body)
	}
}
