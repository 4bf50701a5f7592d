package api_test

// Surface identity: tasmd and tasm-router serve one route table through
// one middleware stack, so these tests range over that table on both
// daemons and pin what the refactor promised not to change — the
// routes, the /metrics families and label names, the span names each
// tier records.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/server"
	"github.com/tasm-repro/tasm/internal/shard"
)

// daemons starts a fresh 2-shard fleet: two tasmd handlers over empty
// stores and a router over them. It returns the tasmds' and the
// router's base URLs.
func daemons(t *testing.T) (tasmds []string, router string) {
	t.Helper()
	var entries []shard.MapEntry
	for i := 0; i < 2; i++ {
		sm, err := tasm.Open(t.TempDir(), tasm.WithGOPLength(5))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sm.Close() })
		ts := httptest.NewServer(server.New(sm, server.Config{}))
		t.Cleanup(ts.Close)
		tasmds = append(tasmds, ts.URL)
		entries = append(entries, shard.MapEntry{Name: fmt.Sprintf("s%d", i), Addr: ts.URL})
	}
	m, err := shard.NewMap(entries, 0)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(m, shard.RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rts := httptest.NewServer(rt)
	t.Cleanup(rts.Close)
	return tasmds, rts.URL
}

var (
	pathParam = regexp.MustCompile(`\{\w+\}`)
	labelName = regexp.MustCompile(`(\w+)="`)
)

// do issues one request for a route pattern ("METHOD /path/{param}"),
// path parameters filled with a placeholder, and returns the status
// and the error-envelope code (empty when the body is not an envelope).
func do(t *testing.T, base, pattern string, header http.Header) (int, string) {
	t.Helper()
	method, path, _ := strings.Cut(pattern, " ")
	path = pathParam.ReplaceAllString(path, "x")
	req, err := http.NewRequest(method, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header = header
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var env struct {
		Error rpcwire.ErrorBody `json:"error"`
	}
	_ = json.NewDecoder(res.Body).Decode(&env) // a non-envelope body leaves the code empty
	return res.StatusCode, env.Error.Code
}

// ownState are the routes answered from the daemon's own state; every
// other row of the table reaches the Backend.
var ownState = map[string]bool{"GET /v1/healthz": true, "GET /metrics": true, "GET /v1/trace/{id}": true}

// TestRouteTableServedByBothDaemons: every pattern in the table is
// mounted on both daemons (the mux's own 404/405 carry no envelope),
// and the router's only extra is GET /v1/shards.
func TestRouteTableServedByBothDaemons(t *testing.T) {
	tasmds, router := daemons(t)
	for tier, base := range map[string]string{"tasmd": tasmds[0], "router": router} {
		for _, p := range api.Patterns() {
			status, code := do(t, base, p, nil)
			if (status == http.StatusNotFound || status == http.StatusMethodNotAllowed) && code == "" {
				t.Errorf("%s: %s is not routed (status %d)", tier, p, status)
			}
		}
	}
	if status, _ := do(t, tasmds[0], "GET /v1/shards", nil); status != http.StatusNotFound {
		t.Errorf("tasmd serves /v1/shards: status %d", status)
	}
	if status, _ := do(t, router, "GET /v1/shards", nil); status != http.StatusOK {
		t.Errorf("router /v1/shards: status %d", status)
	}
}

// TestBadDeadlineHeaderRejected: every Backend-reaching route, on both
// daemons, derives its operation context from the request headers — a
// malformed Tasm-Deadline-Ms is the caller's bad_request everywhere,
// not accepted on some routes and refused on others.
func TestBadDeadlineHeaderRejected(t *testing.T) {
	tasmds, router := daemons(t)
	for tier, base := range map[string]string{"tasmd": tasmds[0], "router": router} {
		for _, p := range api.Patterns() {
			if ownState[p] {
				continue
			}
			status, code := do(t, base, p, http.Header{rpcwire.DeadlineHeader: {"soon"}})
			if status != http.StatusBadRequest || code != "bad_request" {
				t.Errorf("%s: %s with a malformed deadline: status %d code %q, want 400 bad_request", tier, p, status, code)
			}
		}
	}
}

// metricsSurface scrapes base twice (the first scrape's own request
// series exist only at the second) and reduces the exposition to its
// identity: the HELP and TYPE lines plus each family's label names.
func metricsSurface(t *testing.T, base string) []string {
	t.Helper()
	var body string
	for i := 0; i < 2; i++ {
		res, err := http.Get(base + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(res.Body)
		res.Body.Close()
		body = string(b)
	}
	if err := obs.LintExposition(body); err != nil {
		t.Errorf("%s: exposition fails lint: %v", base, err)
	}
	set := map[string]bool{}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "# HELP") || strings.HasPrefix(line, "# TYPE") {
			set[line] = true
			continue
		}
		open := strings.IndexByte(line, '{')
		if open < 0 {
			continue
		}
		name := line[:open]
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			name = strings.TrimSuffix(name, suffix)
		}
		var names []string
		for _, m := range labelName.FindAllStringSubmatch(line[open:strings.IndexByte(line, '}')], -1) {
			if m[1] != "le" {
				names = append(names, m[1])
			}
		}
		set["labels "+name+" {"+strings.Join(names, ",")+"}"] = true
	}
	out := make([]string, 0, len(set))
	for l := range set {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

// TestMetricsSurfaceGolden: the families, HELP text, types and label
// names a fresh tasmd and a fresh 2-shard router export equal the lists
// below, captured from the commit before the two handler sets became
// one.
func TestMetricsSurfaceGolden(t *testing.T) {
	tasmds, router := daemons(t)
	if res, err := http.Get(router + "/v1/videos"); err != nil { // one routed call, so the per-shard histogram has series
		t.Fatal(err)
	} else {
		res.Body.Close()
	}
	for tier, tc := range map[string]struct {
		base string
		want []string
	}{"tasmd": {tasmds[0], goldenTasmd}, "router": {router, goldenRouter}} {
		if got := metricsSurface(t, tc.base); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s /metrics surface changed:\n got: %s\nwant: %s", tier, strings.Join(got, "\n      "), strings.Join(tc.want, "\n      "))
		}
	}
}

var goldenTasmd = []string{
	"# HELP tasm_autotile_actions_failed_total Background re-tile actions that failed since open.",
	"# HELP tasm_autotile_actions_total Background re-tile actions applied since open.",
	"# HELP tasm_autotile_bytes_total Bytes written by background re-tiles since open.",
	"# HELP tasm_autotile_enabled Whether the background adaptive-tiling subsystem is enabled.",
	"# HELP tasm_autotile_paused Whether background re-tiling is currently paused.",
	"# HELP tasm_autotile_queries_observed_total Queries observed by the adaptive-tiling subsystem since open.",
	"# HELP tasm_autotile_regret Accumulated re-tiling pressure in model seconds (paper section 4.4 delta).",
	"# HELP tasm_request_panics_total Handler panics recovered into 500 responses.",
	"# HELP tasm_request_seconds Request wall time from arrival to last byte, by endpoint and tenant.",
	"# HELP tasm_request_ttfr_seconds Time to first response byte (streaming endpoints: first result), by endpoint and tenant.",
	"# HELP tasm_requests_rejected_total 503 overloaded rejections, by tenant.",
	"# HELP tasm_requests_total Responses sent, by tenant (\"-\" is unauthenticated).",
	"# HELP tasm_response_bytes_total Response body bytes written, by tenant.",
	"# HELP tasm_response_size_bytes Response body size, by endpoint and tenant.",
	"# HELP tasm_slow_queries_total Requests at or above -slow-query-threshold, by endpoint.",
	"# HELP tasm_store_corrupt_tiles_total Tile reads that failed integrity verification since open.",
	"# HELP tasm_store_recovery_sweeps_total Crash-recovery sweeps run when opening the store.",
	"# TYPE tasm_autotile_actions_failed_total counter",
	"# TYPE tasm_autotile_actions_total counter",
	"# TYPE tasm_autotile_bytes_total counter",
	"# TYPE tasm_autotile_enabled gauge",
	"# TYPE tasm_autotile_paused gauge",
	"# TYPE tasm_autotile_queries_observed_total counter",
	"# TYPE tasm_autotile_regret gauge",
	"# TYPE tasm_request_panics_total counter",
	"# TYPE tasm_request_seconds histogram",
	"# TYPE tasm_request_ttfr_seconds histogram",
	"# TYPE tasm_requests_rejected_total counter",
	"# TYPE tasm_requests_total counter",
	"# TYPE tasm_response_bytes_total counter",
	"# TYPE tasm_response_size_bytes histogram",
	"# TYPE tasm_slow_queries_total counter",
	"# TYPE tasm_store_corrupt_tiles_total counter",
	"# TYPE tasm_store_recovery_sweeps_total counter",
	"labels tasm_request_seconds {endpoint,tenant}",
	"labels tasm_request_ttfr_seconds {endpoint,tenant}",
	"labels tasm_requests_rejected_total {tenant}",
	"labels tasm_requests_total {tenant}",
	"labels tasm_response_bytes_total {tenant}",
	"labels tasm_response_size_bytes {endpoint,tenant}",
}

var goldenRouter = []string{
	"# HELP tasm_router_request_failures_total Transport-level failures observed against the shard.",
	"# HELP tasm_router_request_panics_total Handler panics recovered into 500 responses.",
	"# HELP tasm_router_request_seconds Request wall time from arrival to last byte, by endpoint.",
	"# HELP tasm_router_request_ttfr_seconds Time to first response byte (streaming endpoints: first result), by endpoint.",
	"# HELP tasm_router_requests_total Requests routed to the shard (streams and fan-out calls included).",
	"# HELP tasm_router_response_size_bytes Response body size, by endpoint.",
	"# HELP tasm_router_shard_consecutive_failures Probe and request failures since the shard's last success.",
	"# HELP tasm_router_shard_seconds Wall time of routed calls against each shard (streaming paths count the cursor open, not the relay).",
	"# HELP tasm_router_shard_up Whether the router's breaker considers the shard healthy.",
	"# HELP tasm_router_slow_queries_total Requests at or above -slow-query-threshold, by endpoint.",
	"# TYPE tasm_router_request_failures_total counter",
	"# TYPE tasm_router_request_panics_total counter",
	"# TYPE tasm_router_request_seconds histogram",
	"# TYPE tasm_router_request_ttfr_seconds histogram",
	"# TYPE tasm_router_requests_total counter",
	"# TYPE tasm_router_response_size_bytes histogram",
	"# TYPE tasm_router_shard_consecutive_failures gauge",
	"# TYPE tasm_router_shard_seconds histogram",
	"# TYPE tasm_router_shard_up gauge",
	"# TYPE tasm_router_slow_queries_total counter",
	"labels tasm_router_request_failures_total {shard}",
	"labels tasm_router_request_seconds {endpoint}",
	"labels tasm_router_request_ttfr_seconds {endpoint}",
	"labels tasm_router_requests_total {shard}",
	"labels tasm_router_response_size_bytes {endpoint}",
	"labels tasm_router_shard_consecutive_failures {shard}",
	"labels tasm_router_shard_seconds {shard}",
	"labels tasm_router_shard_up {shard}",
}

// spanNames fetches a finished request's trace from base's ring and
// returns the set of span names it recorded, nil when the ring has no
// such id.
func spanNames(t *testing.T, base, id string) map[string]bool {
	t.Helper()
	c, err := client.New(base)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	raw, err := c.TraceContext(context.Background(), id)
	if errors.Is(err, client.ErrTraceNotFound) {
		return nil
	}
	if err != nil {
		t.Fatalf("trace %s on %s: %v", id, base, err)
	}
	var rec struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &rec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, s := range rec.Spans {
		names[s.Name] = true
	}
	return names
}

// TestSpanNamesPerTier: the tier-level span names are unchanged —
// auth, admit, handle, flush on tasmd; route, merge (relay on a live
// tail), flush on the router — and neither tier records the other's.
func TestSpanNamesPerTier(t *testing.T) {
	tasmds, router := daemons(t)
	rc, err := client.New(router, client.WithEncoding(client.Binary))
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ctx := context.Background()
	frames := make([]*tasm.Frame, 10)
	for i := range frames {
		frames[i] = tasm.NewFrame(64, 32)
	}
	if err := rc.CreateLiveContext(ctx, "cam", 64, 32, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := rc.AppendContext(ctx, "cam", frames); err != nil {
		t.Fatal(err)
	}
	if err := rc.SealContext(ctx, "cam"); err != nil {
		t.Fatal(err)
	}

	scan, err := rc.ScanSQLCursor(ctx, "SELECT car FROM cam")
	if err != nil {
		t.Fatal(err)
	}
	for scan.Next() {
	}
	if err := scan.Err(); err != nil {
		t.Fatal(err)
	}
	tail, err := rc.Subscribe(ctx, "cam", 0)
	if err != nil {
		t.Fatal(err)
	}
	for tail.Next() {
	}
	if err := tail.Err(); err != nil {
		t.Fatal(err)
	}

	check := func(what string, got map[string]bool, want, absent []string) {
		t.Helper()
		for _, n := range want {
			if !got[n] {
				t.Errorf("%s: span %q missing (have %v)", what, n, got)
			}
		}
		for _, n := range absent {
			if got[n] {
				t.Errorf("%s: unexpected span %q", what, n)
			}
		}
	}
	gateSpans := []string{"auth", "admit", "handle"}
	check("router scan", spanNames(t, router, scan.TraceID()), []string{"route", "merge", "flush"}, append([]string{"relay"}, gateSpans...))
	check("router subscribe", spanNames(t, router, tail.TraceID()), []string{"route", "relay", "flush"}, append([]string{"merge"}, gateSpans...))

	// The owning shard served the scan's one hop under the same id;
	// exactly one of the two tasmds has it.
	var shardSpans map[string]bool
	for _, base := range tasmds {
		if names := spanNames(t, base, scan.TraceID()); names != nil {
			shardSpans = names
		}
	}
	if shardSpans == nil {
		t.Fatal("no shard recorded the routed scan's trace id")
	}
	check("tasmd scan", shardSpans, []string{"auth", "admit", "handle", "flush"}, []string{"route", "merge", "relay"})
}

// keyPaths collects the dotted key paths of a decoded JSON value
// ("shards[].stats.hits"), the identity of a response body independent
// of its values.
func keyPaths(v any, prefix string, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, e := range v {
			p := strings.TrimPrefix(prefix+"."+k, ".")
			set[p] = true
			keyPaths(e, p, set)
		}
	case []any:
		for _, e := range v {
			keyPaths(e, prefix+"[]", set)
		}
	}
}

// bodyKeys issues one request (body JSON-encoded when non-nil) and
// returns the sorted key paths of its 200 response.
func bodyKeys(t *testing.T, method, url string, body any) string {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = strings.NewReader(string(b))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: status %d: %s", method, url, res.StatusCode, raw)
	}
	return sortedKeys(t, raw)
}

func sortedKeys(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("%v in %q", err, raw)
	}
	set := map[string]bool{}
	keyPaths(v, "", set)
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, " ")
}

// statsTrailer runs one scan in the given framing and returns the raw
// JSON of its terminal stats record.
func statsTrailer(t *testing.T, base, accept, sql string) []byte {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/scan", strings.NewReader(`{"sql":"`+sql+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", accept)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	raw, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK || res.Header.Get("Content-Type") != accept {
		t.Fatalf("scan as %s: status %d, content type %q", accept, res.StatusCode, res.Header.Get("Content-Type"))
	}
	if accept == rpcwire.ContentTypeNDJSON {
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		var last struct {
			Stats json.RawMessage `json:"stats"`
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Stats == nil {
			t.Fatalf("NDJSON stream does not end in a stats line: %q", lines[len(lines)-1])
		}
		return last.Stats
	}
	// Binary framing: the terminal record is 'S', u32 length, flat JSON
	// — the last '{' in the body opens it.
	open := strings.LastIndexByte(string(raw), '{')
	if open < 5 || raw[open-5] != 'S' || int(binary.LittleEndian.Uint32(raw[open-4:])) != len(raw)-open {
		t.Fatalf("binary stream does not end in a stats record")
	}
	return raw[open:]
}

// TestResponseKeysGolden: the JSON keys of every response that is now
// an in-process type encoded as it is — and of the stats trailer in
// both stream framings — equal the lists below, captured from the
// commit whose rpcwire still declared a mirror struct for each. The
// same bodies come back from tasmd and through the router, whose
// /v1/stats adds the per-shard breakdown.
func TestResponseKeysGolden(t *testing.T) {
	const (
		ingestKeys = "bytes encode_wall_ns sots"
		cacheKeys  = "budget bytes_cached entries evictions hits invalidations misses"
		scanKeys   = "assemble_wall_ns cache_evictions cache_hits cache_misses decode_wall_ns frames_decoded index_wall_ns pixels_decoded regions_returned sots_touched tiles_decoded"
	)
	tasmds, router := daemons(t)
	for tier, base := range map[string]string{"tasmd": tasmds[0], "router": router} {
		frames := make([]rpcwire.Frame, 10)
		for i := range frames {
			frames[i] = rpcwire.FromFrame(tasm.NewFrame(128, 64))
		}
		statsKeys := cacheKeys
		if tier == "router" {
			statsKeys += " shards shards[].addr shards[].healthy shards[].shard shards[].stats"
			for _, k := range strings.Fields(cacheKeys) {
				statsKeys += " shards[].stats." + k
			}
		}
		det := tasm.Detection{Frame: 1, Label: "car", Box: tasm.Rect{X0: 10, Y0: 10, X1: 40, Y1: 40}}
		for _, step := range []struct {
			method, path string
			body         any
			want         string
		}{
			{"POST", "/v1/ingest", rpcwire.IngestRequest{Video: "v", FPS: 10, Frames: frames}, ingestKeys},
			{"POST", "/v1/metadata", rpcwire.MetadataRequest{Video: "v", Detections: []tasm.Detection{det}}, ""},
			{"GET", "/v1/detections?video=v&label=car&from=0&to=10", nil,
				"detections detections[].box detections[].box.x0 detections[].box.x1 detections[].box.y0 detections[].box.y1 detections[].frame detections[].label"},
			{"POST", "/v1/retile", rpcwire.RetileRequest{Video: "v", SOT: 0,
				Layout: rpcwire.Layout{RowHeights: []int{64}, ColWidths: []int{64, 64}}}, "bytes decode_wall_ns encode_wall_ns"},
			{"POST", "/v1/live", rpcwire.CreateLiveRequest{Video: "cam", W: 128, H: 64, FPS: 10}, ""},
			{"POST", "/v1/append", rpcwire.AppendRequest{Video: "cam", Frames: frames}, "bytes encode_wall_ns frame_count frames sots"},
			{"POST", "/v1/retention", rpcwire.RetentionRequest{Video: "cam", Retention: &tasm.RetentionPolicy{MaxAgeFrames: 1}},
				"freed_bytes removed trimmed_to"},
			{"POST", "/v1/gc", nil, "deferred removed"},
			{"POST", "/v1/fsck", nil, "leases orphans problems sots tiles videos"},
			{"POST", "/v1/repairstore", nil, "quarantined reverted videos"},
			{"GET", "/v1/stats", nil, statsKeys},
			{"GET", "/v1/autotile/status", nil,
				"actions_applied actions_failed bytes_spent enabled io_budget paused queries_dropped queries_observed queries_pending regret"},
		} {
			if got := bodyKeys(t, step.method, base+step.path, step.body); got != step.want {
				t.Errorf("%s: %s %s keys:\n got %s\nwant %s", tier, step.method, step.path, got, step.want)
			}
		}
		for _, accept := range []string{rpcwire.ContentTypeNDJSON, rpcwire.ContentTypeBinary} {
			if got := sortedKeys(t, statsTrailer(t, base, accept, "SELECT car FROM v")); got != scanKeys {
				t.Errorf("%s: stats trailer as %s:\n got %s\nwant %s", tier, accept, got, scanKeys)
			}
		}
	}
}
