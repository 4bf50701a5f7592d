package server_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/server"
)

// harness is one served store: the in-process manager (for state
// assertions), the HTTP server, and a connected client.
type harness struct {
	sm  *tasm.StorageManager
	srv *server.Server
	ts  *httptest.Server
	c   *client.Client
	dir string
}

// newHarness serves a fresh store holding one indexed 8-SOT video
// ("traffic", cars + people, 40 frames of 192x96), the shape every
// streaming test wants: enough SOTs that a scan is genuinely in flight
// when the client walks away.
func newHarness(t *testing.T, cfg server.Config, opts ...tasm.Option) *harness {
	t.Helper()
	ctx := context.Background()
	opts = append([]tasm.Option{tasm.WithGOPLength(5), tasm.WithMinTileSize(32, 32)}, opts...)
	dir := t.TempDir()
	sm, err := tasm.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sm.Close() })
	v, err := scene.Generate(scene.Spec{
		Name: "traffic", W: 192, H: 96, FPS: 10, DurationSec: 4,
		Classes: []scene.ClassMix{
			{Class: scene.Car, Count: 2, SizeFrac: 0.18},
			{Class: scene.Person, Count: 1, SizeFrac: 0.2},
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	n := v.Spec.NumFrames()
	if _, err := sm.IngestContext(ctx, "traffic", v.Frames(0, n), v.Spec.FPS); err != nil {
		t.Fatal(err)
	}
	var ds []tasm.Detection
	for f := 0; f < n; f++ {
		for _, tr := range v.GroundTruth(f) {
			ds = append(ds, tasm.Detection{Frame: f, Label: tr.Label, Box: tr.Box})
		}
	}
	if err := sm.AddDetections("traffic", ds); err != nil {
		t.Fatal(err)
	}
	srv := server.New(sm, cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	c, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return &harness{sm: sm, srv: srv, ts: ts, c: c, dir: dir}
}

const trafficSQL = "SELECT car FROM traffic WHERE 0 <= t < 40"

// waitFor polls cond until it holds or the deadline passes.
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

// TestRemoteScanMatchesInProcess is the fidelity bar: a remote
// streaming scan yields byte-identical regions, in the same order, with
// the same stats counters, as the in-process scan it fronts.
func TestRemoteScanMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{})
	ref, refSt, err := h.sm.ScanSQLContext(ctx, trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 || refSt.SOTsTouched < 8 {
		t.Fatalf("weak reference: %d regions over %d SOTs", len(ref), refSt.SOTsTouched)
	}

	got, gotSt, err := h.c.ScanSQLContext(context.Background(), trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ref) {
		t.Fatalf("remote returned %d regions, in-process %d", len(got), len(ref))
	}
	for i := range ref {
		if got[i].Frame != ref[i].Frame || got[i].Region != ref[i].Region {
			t.Fatalf("region %d: remote (%d,%v) != local (%d,%v)", i, got[i].Frame, got[i].Region, ref[i].Frame, ref[i].Region)
		}
		if string(got[i].Pixels.Y) != string(ref[i].Pixels.Y) {
			t.Fatalf("region %d: pixels differ", i)
		}
	}
	if gotSt.RegionsReturned != refSt.RegionsReturned || gotSt.SOTsTouched != refSt.SOTsTouched {
		t.Fatalf("stats differ: remote %+v, local %+v", gotSt, refSt)
	}
}

// TestRemoteDecodeFramesMatchesInProcess does the same for whole-frame
// streaming.
func TestRemoteDecodeFramesMatchesInProcess(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{})
	ref, _, err := h.sm.DecodeFramesContext(ctx, "traffic", 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := h.c.DecodeFramesCursor(context.Background(), "traffic", 5, 20)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	i := 0
	for cur.Next() {
		r := cur.Result()
		if r.Index != 5+i {
			t.Fatalf("frame %d has index %d", i, r.Index)
		}
		if string(r.Pixels.Y) != string(ref[i].Y) {
			t.Fatalf("frame %d differs from in-process decode", r.Index)
		}
		i++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if i != len(ref) {
		t.Fatalf("streamed %d frames, want %d", i, len(ref))
	}
	if cur.Stats().FramesDecoded == 0 {
		t.Fatal("stats line missing decode counters")
	}
}

// TestRemoteErrorsAreSentinels pins the acceptance criterion:
// errors.Is(err, tasm.ErrVideoNotFound) holds for a remote miss exactly
// as in-process, across unary and streaming endpoints.
func TestRemoteErrorsAreSentinels(t *testing.T) {
	h := newHarness(t, server.Config{})
	if _, err := h.c.MetaContext(context.Background(), "missing"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Fatalf("remote Meta miss: got %v, want ErrVideoNotFound", err)
	}
	if _, err := h.c.ScanSQLCursor(context.Background(), "SELECT car FROM missing"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Fatalf("remote scan miss: got %v, want ErrVideoNotFound", err)
	}
	if _, err := h.c.DecodeFramesCursor(context.Background(), "traffic", 90, 95); !errors.Is(err, tasm.ErrInvalidRange) {
		t.Fatalf("remote bad range: got %v, want ErrInvalidRange", err)
	}
	if _, err := h.c.IngestContext(context.Background(), "traffic", []*tasm.Frame{tasm.NewFrame(32, 32)}, 10); !errors.Is(err, tasm.ErrVideoExists) {
		t.Fatalf("remote duplicate ingest: got %v, want ErrVideoExists", err)
	}
	if _, err := h.c.ScanSQLCursor(context.Background(), "SELEC bogus"); !errors.Is(err, rpcwire.ErrBadRequest) {
		t.Fatalf("remote bad SQL: got %v, want ErrBadRequest", err)
	}
}

// TestMidStreamDisconnectReleasesLeases is the serving layer's
// cancellation guarantee: a client that walks away mid-stream makes the
// server cancel the cursor, release every read lease, and return every
// goroutine — no leaks, nothing for GC to defer on the dead request's
// account.
func TestMidStreamDisconnectReleasesLeases(t *testing.T) {
	h := newHarness(t, server.Config{})

	// Warm the transport and server pools so the goroutine baseline is
	// honest.
	if _, _, err := h.c.ScanSQLContext(context.Background(), trafficSQL); err != nil {
		t.Fatal(err)
	}
	h.c.Close()
	runtime.GC()
	baseline := runtime.NumGoroutine()

	// Abandon several scans mid-stream, some via Close, some via
	// context cancellation.
	for i := 0; i < 4; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cur, err := h.c.ScanSQLCursor(ctx, trafficSQL)
		if err != nil {
			cancel()
			t.Fatal(err)
		}
		if !cur.Next() {
			t.Fatalf("scan %d yielded nothing: %v", i, cur.Err())
		}
		if i%2 == 0 {
			cur.Close()
			if !errors.Is(cur.Err(), tasm.ErrCursorClosed) {
				t.Fatalf("close before exhaustion: Err = %v, want ErrCursorClosed", cur.Err())
			}
		} else {
			cancel()
			waitFor(t, "cancelled cursor to stop", func() bool { return !cur.Next() })
			if cur.Err() == nil {
				t.Fatal("cancelled cursor reports clean exhaustion")
			}
		}
		cancel()
	}

	// Every lease must drop: the disconnect propagated into the cursor
	// pipeline, which releases before teardown completes.
	waitFor(t, "server-side leases to release", func() bool {
		rep, err := h.sm.FSCK()
		return err == nil && rep.Leases == 0
	})

	// And the goroutines must come home (tolerance for runtime and
	// keep-alive churn).
	h.c.Close()
	waitFor(t, "goroutines to return to baseline", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= baseline+3
	})
}

// TestDeadlineHeaderExpiry: a request whose Tasm-Deadline-Ms budget
// cannot cover the scan fails with deadline_exceeded — either as a
// pre-stream 504 or as a mid-stream error line — and releases all
// leases.
func TestDeadlineHeaderExpiry(t *testing.T) {
	h := newHarness(t, server.Config{})
	body := `{"sql":"SELECT car FROM traffic WHERE 0 <= t < 40"}`
	req, err := http.NewRequest(http.MethodPost, h.ts.URL+"/v1/scan", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(rpcwire.DeadlineHeader, "1")
	res, err := h.ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()

	sawDeadline := false
	switch res.StatusCode {
	case http.StatusGatewayTimeout: // expired before the stream began
		var envelope struct {
			Error rpcwire.ErrorBody `json:"error"`
		}
		if err := json.NewDecoder(res.Body).Decode(&envelope); err != nil {
			t.Fatal(err)
		}
		sawDeadline = envelope.Error.Code == "deadline_exceeded"
		if !errors.Is(rpcwire.DecodeError(envelope.Error), context.DeadlineExceeded) {
			t.Fatalf("decoded %+v does not match context.DeadlineExceeded", envelope.Error)
		}
	case http.StatusOK: // expired mid-stream: the final line carries it
		dec := json.NewDecoder(res.Body)
		for {
			var line rpcwire.StreamLine
			if err := dec.Decode(&line); err != nil {
				break
			}
			if line.Error != nil {
				sawDeadline = line.Error.Code == "deadline_exceeded"
				if !errors.Is(rpcwire.DecodeError(*line.Error), context.DeadlineExceeded) {
					t.Fatalf("stream error %+v does not match context.DeadlineExceeded", line.Error)
				}
			}
			if line.Stats != nil {
				t.Fatal("1ms budget produced a clean stats line; deadline was not honored")
			}
		}
	default:
		t.Fatalf("unexpected status %d", res.StatusCode)
	}
	if !sawDeadline {
		t.Fatal("no deadline_exceeded anywhere in the response")
	}
	waitFor(t, "leases after deadline expiry", func() bool {
		rep, err := h.sm.FSCK()
		return err == nil && rep.Leases == 0
	})
}

// TestClientDeadlinePropagates covers the client side of the same
// contract: a context deadline on the caller surfaces as
// context.DeadlineExceeded whether it dies in transport or on the
// server.
func TestClientDeadlinePropagates(t *testing.T) {
	h := newHarness(t, server.Config{})
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, _, err := h.c.ScanSQLContext(ctx, trafficSQL)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

// TestRemoteMaintenanceOps drives the unary operational surface end to
// end: retile through the designed layout, stats, gc, fsck, delete.
func TestRemoteMaintenanceOps(t *testing.T) {
	h := newHarness(t, server.Config{})

	l, err := h.c.DesignLayoutContext(context.Background(), "traffic", 0, []string{"car"})
	if err != nil {
		t.Fatal(err)
	}
	if !l.IsSingle() {
		if _, err := h.c.RetileSOTContext(context.Background(), "traffic", 0, l); err != nil {
			t.Fatal(err)
		}
		meta, err := h.c.MetaContext(context.Background(), "traffic")
		if err != nil {
			t.Fatal(err)
		}
		if meta.SOTs[0].Retiles != 1 {
			t.Fatalf("retile did not land: %+v", meta.SOTs[0])
		}
	}

	if _, err := h.c.CacheStatsContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.GCContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep, err := h.c.FSCKContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Problems) != 0 {
		t.Fatalf("fsck problems over the wire: %v", rep.Problems)
	}

	ds, err := h.c.LookupDetectionsContext(context.Background(), "traffic", "car", 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds) == 0 {
		t.Fatal("no remote detections")
	}
	_, bytes, labels, err := h.c.VideoInfoContext(context.Background(), "traffic")
	if err != nil || len(labels) == 0 || bytes == 0 {
		t.Fatalf("video info: %d bytes, labels %v, %v", bytes, labels, err)
	}

	if err := h.c.DeleteVideoContext(context.Background(), "traffic"); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.MetaContext(context.Background(), "traffic"); !errors.Is(err, tasm.ErrVideoNotFound) {
		t.Fatalf("after remote delete: %v", err)
	}
	videos, err := h.c.VideosContext(context.Background())
	if err != nil || len(videos) != 0 {
		t.Fatalf("videos after delete: %v %v", videos, err)
	}
}

// TestRemoteIngestRoundTrip uploads frames through the wire and reads
// them back bit-for-bit against a local decode of the same store.
func TestRemoteIngestRoundTrip(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{})
	frames := make([]*tasm.Frame, 6)
	for i := range frames {
		frames[i] = tasm.NewFrame(64, 32)
		for j := range frames[i].Y {
			frames[i].Y[j] = byte(i*37 + j)
		}
	}
	st, err := h.c.IngestContext(context.Background(), "up", frames, 3)
	if err != nil {
		t.Fatal(err)
	}
	if st.SOTs == 0 || st.Bytes == 0 {
		t.Fatalf("ingest stats %+v", st)
	}
	remote, _, err := h.c.DecodeFramesContext(context.Background(), "up", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	local, _, err := h.sm.DecodeFramesContext(ctx, "up", 0, 6)
	if err != nil {
		t.Fatal(err)
	}
	for i := range local {
		if string(remote[i].Y) != string(local[i].Y) {
			t.Fatalf("frame %d differs between remote and local decode", i)
		}
	}
}

// TestHealthz covers the probe and content type.
func TestHealthz(t *testing.T) {
	h := newHarness(t, server.Config{})
	if err := h.c.Ping(context.Background()); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(h.ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

// TestStreamContentType pins the streaming media type the README
// documents for curl users.
func TestStreamContentType(t *testing.T) {
	h := newHarness(t, server.Config{})
	res, err := http.Post(h.ts.URL+"/v1/scan", "application/json",
		strings.NewReader(`{"sql":"SELECT car FROM traffic WHERE 0 <= t < 5"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if ct := res.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q, want application/x-ndjson", ct)
	}
}

// TestRemoteAutotile drives the whole adaptive loop over the wire:
// remote scans feed the daemon's observer, the background loop applies a
// re-tile, and the status/pause/resume endpoints control and reflect it.
func TestRemoteAutotile(t *testing.T) {
	h := newHarness(t, server.Config{}, tasm.WithCacheBudget(64<<20),
		tasm.WithAdaptiveTiling(), tasm.WithEta(0), tasm.WithAutotileInterval(20*time.Millisecond))

	st, err := h.c.AutotileStatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !st.Enabled || st.ActionsApplied != 0 {
		t.Fatalf("fresh status %+v", st)
	}

	// Pause first so the test controls when actions land.
	if err := h.c.AutotilePauseContext(context.Background(), "test hold"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.c.ScanSQLContext(context.Background(), trafficSQL); err != nil {
		t.Fatal(err)
	}
	st, _ = h.c.AutotileStatusContext(context.Background())
	if !st.Paused || st.PauseReason != "test hold" {
		t.Fatalf("paused status %+v", st)
	}
	if st.QueriesObserved == 0 || st.QueriesPending == 0 {
		t.Fatalf("remote scan did not reach the observer: %+v", st)
	}

	if err := h.c.AutotileResumeContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "a background re-tile", func() bool {
		st, err := h.c.AutotileStatusContext(context.Background())
		return err == nil && st.ActionsApplied >= 1
	})
	meta, err := h.sm.Meta("traffic")
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
		t.Fatal("no SOT re-tiled despite applied actions")
	}

	// /metrics reflects the subsystem.
	res, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var body strings.Builder
	if _, err := io.Copy(&body, res.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"tasm_autotile_enabled 1", "tasm_autotile_actions_total", "tasm_autotile_regret"} {
		if !strings.Contains(body.String(), want) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// TestAutotileDisabledOverWire pins the contract for a daemon without
// -autotile: status reports Enabled false with 200, while pause and
// resume fail with the typed sentinel.
func TestAutotileDisabledOverWire(t *testing.T) {
	h := newHarness(t, server.Config{})
	st, err := h.c.AutotileStatusContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Enabled {
		t.Fatal("autotile reported enabled without WithAdaptiveTiling")
	}
	if err := h.c.AutotilePauseContext(context.Background(), ""); !errors.Is(err, tasm.ErrAutotileDisabled) {
		t.Fatalf("pause error = %v, want ErrAutotileDisabled", err)
	}
	if err := h.c.AutotileResumeContext(context.Background()); !errors.Is(err, tasm.ErrAutotileDisabled) {
		t.Fatalf("resume error = %v, want ErrAutotileDisabled", err)
	}
}
