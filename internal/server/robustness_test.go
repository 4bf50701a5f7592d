package server_test

// Durability-facing serving tests: the Prometheus metrics endpoint, live
// token-table reload (SIGHUP's mechanism) leaving in-flight streams
// untouched, and the corruption contract across the wire — a flipped
// bit on the server's disk must classify as tasm.ErrTileCorrupt through
// the HTTP client, and /v1/repairstore must quarantine it.

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/server"
)

// metricValue fetches /metrics and returns the value of the first
// series line whose name (with any label set) matches prefix.
func metricValue(t *testing.T, url, token, prefix string) (int64, bool) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, prefix) {
			continue
		}
		_, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		return n, true
	}
	return 0, false
}

// TestMetricsEndpoint: the text exposition carries per-tenant serving
// counters and the store's durability counters, and the endpoint sits
// behind auth like everything but the health probe.
func TestMetricsEndpoint(t *testing.T) {
	h := newHarness(t, server.Config{})
	if _, err := h.c.VideosContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n, ok := metricValue(t, h.ts.URL, "", `tasm_requests_total{tenant="-"}`); !ok || n < 1 {
		t.Fatalf("tasm_requests_total for the anonymous tenant = %d, %v", n, ok)
	}
	// The store opened cleanly exactly once, verified nothing corrupt.
	if n, ok := metricValue(t, h.ts.URL, "", "tasm_store_recovery_sweeps_total"); !ok || n != 1 {
		t.Fatalf("tasm_store_recovery_sweeps_total = %d, %v, want 1", n, ok)
	}
	if n, ok := metricValue(t, h.ts.URL, "", "tasm_store_corrupt_tiles_total"); !ok || n != 0 {
		t.Fatalf("tasm_store_corrupt_tiles_total = %d, %v, want 0", n, ok)
	}

	// Token-protected daemon: /metrics is operator data, not public.
	h2 := newHarness(t, server.Config{Tenants: map[string]string{"sek": "ops"}})
	resp, err := http.Get(h2.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated /metrics: status %d, want 401", resp.StatusCode)
	}
	// Counters record when a request finishes, so give ops a completed
	// request before scraping (the scrape itself is still in flight).
	opsClient, err := client.New(h2.ts.URL, client.WithToken("sek"))
	if err != nil {
		t.Fatal(err)
	}
	defer opsClient.Close()
	if _, err := opsClient.VideosContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n, ok := metricValue(t, h2.ts.URL, "sek", `tasm_requests_total{tenant="ops"}`); !ok || n < 1 {
		t.Fatalf("authed tasm_requests_total{ops} = %d, %v", n, ok)
	}
}

// TestTokenReloadKeepsInflightStreams is the SIGHUP contract: swapping
// the tenant table revokes old tokens for NEW requests immediately, but
// a stream already in flight — authenticated against the old table —
// drains to completion untouched.
func TestTokenReloadKeepsInflightStreams(t *testing.T) {
	ctx := context.Background()
	h := newHarness(t, server.Config{Tenants: map[string]string{"tok-old": "alpha"}})
	ref, _, err := h.sm.ScanSQLContext(ctx, trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref) == 0 {
		t.Fatal("reference scan returned nothing")
	}

	old, err := client.New(h.ts.URL, client.WithToken("tok-old"))
	if err != nil {
		t.Fatal(err)
	}
	defer old.Close()
	cur, err := old.ScanSQLCursor(context.Background(), trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// The stream is live: pull one result, then rotate the tokens.
	if !cur.Next() {
		t.Fatalf("no first result: %v", cur.Err())
	}
	got := 1

	h.srv.SetTenants(map[string]string{"tok-new": "alpha"})

	// New request with the revoked token is refused...
	if _, err := old.VideosContext(context.Background()); !errors.Is(err, client.ErrUnauthorized) {
		t.Fatalf("revoked token accepted for a new request: %v", err)
	}
	// ...the rotated token works...
	fresh, err := client.New(h.ts.URL, client.WithToken("tok-new"))
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if _, err := fresh.VideosContext(context.Background()); err != nil {
		t.Fatalf("rotated token refused: %v", err)
	}
	// ...and the in-flight stream still drains completely.
	for cur.Next() {
		got++
	}
	if err := cur.Err(); err != nil {
		t.Fatalf("in-flight stream broken by token reload: %v", err)
	}
	if got != len(ref) {
		t.Fatalf("stream yielded %d regions across the reload, want %d", got, len(ref))
	}
}

// TestCorruptTileOverHTTP: a bit flipped in a stored tile file on the
// server classifies as tasm.ErrTileCorrupt through the remote client
// (errors.Is across the wire), shows up in the corruption counter, and
// /v1/repairstore quarantines the damaged version.
func TestCorruptTileOverHTTP(t *testing.T) {
	h := newHarness(t, server.Config{})
	tiles, err := filepath.Glob(filepath.Join(h.dir, "tiles", "traffic", "frames_*", "*.tsv"))
	if err != nil || len(tiles) == 0 {
		t.Fatalf("no tile files found: %v", err)
	}
	for _, p := range tiles {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	_, _, err = h.c.ScanSQLContext(context.Background(), trafficSQL)
	if !errors.Is(err, tasm.ErrTileCorrupt) {
		t.Fatalf("remote scan over corrupt tiles: %v (want tasm.ErrTileCorrupt)", err)
	}
	if n, ok := metricValue(t, h.ts.URL, "", "tasm_store_corrupt_tiles_total"); !ok || n == 0 {
		t.Fatalf("tasm_store_corrupt_tiles_total = %d, %v, want > 0", n, ok)
	}

	rep, err := h.c.RepairStoreContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Quarantined) == 0 || len(rep.Videos) != 1 || rep.Videos[0] != "traffic" {
		t.Fatalf("repair report %+v: want quarantines for traffic", rep)
	}
	// Every version was corrupt, so there was nothing to fall back to:
	// the loss stays visible through fsck instead of being erased.
	if len(rep.Reverted) != 0 {
		t.Fatalf("reverted %v with no intact fallback", rep.Reverted)
	}
	fr, err := h.c.FSCKContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fr.OK() {
		t.Fatal("fsck clean while the manifest references quarantined versions")
	}
}

// statusRecorder remembers the status of the last response it carried.
type statusRecorder struct{ last int }

func (s *statusRecorder) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := http.DefaultTransport.RoundTrip(r)
	if err == nil {
		s.last = resp.StatusCode
	}
	return resp, err
}

// TestMalformedWritesAre400 posts the three client mistakes the write
// path used to answer with 500 internal: each is the caller's fault, so
// the wire says 400, the client classifies it ErrInvalidRange (tasmctl
// exits 3), nothing is stored, and nothing panicked.
func TestMalformedWritesAre400(t *testing.T) {
	h := newHarness(t, server.Config{})
	ctx := context.Background()
	rec := &statusRecorder{}
	c, err := client.New(h.ts.URL, client.WithHTTPClient(&http.Client{Transport: rec}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	good := func(n int) []*tasm.Frame {
		fs := make([]*tasm.Frame, n)
		for i := range fs {
			fs[i] = tasm.NewFrame(192, 96)
		}
		return fs
	}
	small := tasm.Layout{RowHeights: []int{64}, ColWidths: []int{64}}
	whole := tasm.Layout{RowHeights: []int{96}, ColWidths: []int{192}}
	for _, tc := range []struct {
		name string
		call func() error
		msg  []string // fragments the remote message must carry
	}{
		{"retile with a layout that does not cover the frame", func() error {
			_, err := c.RetileSOTContext(ctx, "traffic", 0, small)
			return err
		}, []string{"64x64", "192x96"}},
		{"ingest of mixed-size frames", func() error {
			_, err := c.IngestContext(ctx, "mixed", append(good(7), tasm.NewFrame(64, 64)), 10)
			return err
		}, []string{"frame 7", "64x64", "192x96"}},
		{"tiled ingest with a layout count other than the SOT count", func() error {
			_, err := c.IngestTiledContext(ctx, "miscounted", good(3), 10, []tasm.Layout{whole, whole})
			return err
		}, []string{"2 layouts for 1 SOTs"}},
	} {
		err := tc.call()
		if !errors.Is(err, tasm.ErrInvalidRange) || rec.last != http.StatusBadRequest {
			t.Errorf("%s: status %d, err %v; want 400 classified ErrInvalidRange", tc.name, rec.last, err)
			continue
		}
		for _, frag := range tc.msg {
			if !strings.Contains(err.Error(), frag) {
				t.Errorf("%s: message %q does not name %q", tc.name, err, frag)
			}
		}
	}
	if vids, err := c.VideosContext(ctx); err != nil || len(vids) != 1 || vids[0] != "traffic" {
		t.Errorf("videos after the rejected writes = %v (err %v), want only traffic", vids, err)
	}
	if n, ok := metricValue(t, h.ts.URL, "", "tasm_request_panics_total"); !ok || n != 0 {
		t.Errorf("tasm_request_panics_total = %d (found %v), want 0", n, ok)
	}
}

// TestBadIndexAndLiveWritesAre4xx: an index write naming a video the
// catalog does not hold is 404 video_not_found (accepted, the rows would
// be unreachable and inherited by the next ingest of the name); a
// malformed detection and a negative live retention are the caller's
// 400, classified with the sentinel the client maps to its exit code.
// Nothing is written and nothing panicked.
func TestBadIndexAndLiveWritesAre4xx(t *testing.T) {
	h := newHarness(t, server.Config{})
	ctx := context.Background()
	rec := &statusRecorder{}
	c, err := client.New(h.ts.URL, client.WithHTTPClient(&http.Client{Transport: rec}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before, err := c.LookupDetectionsContext(ctx, "traffic", "car", 0, 40)
	if err != nil {
		t.Fatal(err)
	}
	box := tasm.Rect{X0: 10, Y0: 10, X1: 40, Y1: 40}
	add := func(video string, ds ...tasm.Detection) func() error {
		return func() error { return c.AddDetectionsContext(ctx, video, ds) }
	}
	for _, tc := range []struct {
		name   string
		call   func() error
		status int
		want   error
	}{
		{"detections for an unknown video", add("nope", tasm.Detection{Frame: 1, Label: "car", Box: box}),
			http.StatusNotFound, tasm.ErrVideoNotFound},
		{"markdetected for an unknown video", func() error { return c.MarkDetectedContext(ctx, "nope", "car", 0, 5) },
			http.StatusNotFound, tasm.ErrVideoNotFound},
		{"negative frame", add("traffic", tasm.Detection{Frame: -1, Label: "car", Box: box}),
			http.StatusBadRequest, tasm.ErrInvalidRange},
		{"inverted box, after a well-formed detection in the same batch", add("traffic",
			tasm.Detection{Frame: 1, Label: "car", Box: box},
			tasm.Detection{Frame: 1, Label: "car", Box: tasm.Rect{X0: 40, Y0: 40, X1: 10, Y1: 10}}),
			http.StatusBadRequest, tasm.ErrInvalidRange},
		{"empty label", add("traffic", tasm.Detection{Frame: 1, Box: box}),
			http.StatusBadRequest, tasm.ErrInvalidName},
		{"live create with a negative retention bound", func() error {
			return c.CreateLiveContext(ctx, "cam", 64, 32, 10, &tasm.RetentionPolicy{MaxAgeFrames: -3})
		}, http.StatusBadRequest, tasm.ErrInvalidRange},
	} {
		if err := tc.call(); !errors.Is(err, tc.want) || rec.last != tc.status {
			t.Errorf("%s: status %d, err %v; want %d classified %v", tc.name, rec.last, err, tc.status, tc.want)
		}
	}
	if after, err := c.LookupDetectionsContext(ctx, "traffic", "car", 0, 40); err != nil || len(after) != len(before) {
		t.Errorf("car detections after the rejected writes = %d (err %v), want the %d from before", len(after), err, len(before))
	}
	if vids, err := c.VideosContext(ctx); err != nil || len(vids) != 1 || vids[0] != "traffic" {
		t.Errorf("videos after the rejected writes = %v (err %v), want only traffic", vids, err)
	}
	if n, ok := metricValue(t, h.ts.URL, "", "tasm_request_panics_total"); !ok || n != 0 {
		t.Errorf("tasm_request_panics_total = %d (found %v), want 0", n, ok)
	}
}
