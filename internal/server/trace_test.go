package server_test

// End-to-end tests of the tracing surface and the latency histograms:
// the trace id a client installs is the id the daemon echoes, the key
// the trace ring serves the span timeline under, and the histograms
// count exactly one observation per request even when streams race.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/server"
)

// traceRecord is the subset of the daemon's trace JSON the assertions
// need; the full schema stays owned by internal/obs.
type traceRecord struct {
	TraceID string            `json:"trace_id"`
	Attrs   map[string]string `json:"attrs"`
	Spans   []struct {
		Name  string            `json:"name"`
		Attrs map[string]string `json:"attrs"`
	} `json:"spans"`
}

// TestTraceRoundTrip: a caller-chosen trace id survives the whole
// round trip — cursor, response header, and the /v1/trace/{id} ring —
// and the record carries the middleware's spans plus the streaming
// flush span with its record count.
func TestTraceRoundTrip(t *testing.T) {
	h := newHarness(t, server.Config{})
	tid := client.NewTraceID()
	ctx := client.WithTraceID(context.Background(), tid)

	cur, err := h.c.ScanSQLCursor(ctx, trafficSQL)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	regions := 0
	for cur.Next() {
		regions++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if regions == 0 {
		t.Fatal("scan returned no regions")
	}
	if got := cur.TraceID(); got != tid {
		t.Fatalf("cursor trace id %q, want %q", got, tid)
	}

	// The ring indexes the record at request completion, which lands
	// moments after the client reads the last byte.
	var rec traceRecord
	waitFor(t, "trace record in the ring", func() bool {
		raw, err := h.c.TraceContext(context.Background(), tid)
		if err != nil {
			return false
		}
		return json.Unmarshal(raw, &rec) == nil
	})
	if rec.TraceID != tid {
		t.Fatalf("record trace id %q, want %q", rec.TraceID, tid)
	}
	if rec.Attrs["endpoint"] != "POST /v1/scan" {
		t.Fatalf("endpoint attr %q", rec.Attrs["endpoint"])
	}
	if rec.Attrs["status"] != "200" {
		t.Fatalf("status attr %q", rec.Attrs["status"])
	}
	spans := map[string]map[string]string{}
	for _, s := range rec.Spans {
		spans[s.Name] = s.Attrs
	}
	for _, want := range []string{"auth", "admit", "handle", "flush"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("record missing span %q; have %v", want, rec.Spans)
		}
	}
	if got := spans["flush"]["records"]; got != fmt.Sprint(regions) {
		t.Fatalf("flush span records = %q, want %d", got, regions)
	}

	// A miss is the typed sentinel, not a silent empty record.
	if _, err := h.c.TraceContext(context.Background(), "nosuchtrace"); !errors.Is(err, client.ErrTraceNotFound) {
		t.Fatalf("unknown id: err = %v, want ErrTraceNotFound", err)
	}
}

// TestInvalidTraceIDReplaced: a header that fails validation is not
// adopted — the daemon mints its own and echoes that instead, so junk
// ids never become ring keys.
func TestInvalidTraceIDReplaced(t *testing.T) {
	h := newHarness(t, server.Config{})
	req, err := http.NewRequest(http.MethodGet, h.ts.URL+"/v1/videos", nil)
	if err != nil {
		t.Fatal(err)
	}
	bad := "not a valid id!" // spaces and '!' are outside the alphabet
	req.Header.Set("Tasm-Trace-Id", bad)
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, res.Body)
	res.Body.Close()
	echoed := res.Header.Get("Tasm-Trace-Id")
	if echoed == bad || echoed == "" {
		t.Fatalf("echoed id %q; want a freshly minted replacement", echoed)
	}
}

// TestMetricsExpositionLinted: the live exposition — after real
// traffic has populated the labeled series — passes the HELP/TYPE
// lint, so no series ships undocumented.
func TestMetricsExpositionLinted(t *testing.T) {
	h := newHarness(t, server.Config{})
	if _, _, err := h.c.ScanSQLContext(context.Background(), trafficSQL); err != nil {
		t.Fatal(err)
	}
	res, err := http.Get(h.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if err := obs.LintExposition(string(body)); err != nil {
		t.Fatalf("live exposition fails lint: %v", err)
	}
}

// TestHistogramCountsConcurrentStreams: racing streaming scans each
// count exactly once in the wall, TTFR, and size histograms. Run under
// -race this also exercises the histogram locking.
func TestHistogramCountsConcurrentStreams(t *testing.T) {
	h := newHarness(t, server.Config{})
	const workers, perWorker = 8, 3

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, _, err := h.c.ScanSQLContext(context.Background(), trafficSQL); err != nil {
					errCh <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	want := fmt.Sprintf("%d", workers*perWorker)
	for _, series := range []string{
		`tasm_request_seconds_count{endpoint="POST /v1/scan",tenant="-"} `,
		`tasm_request_ttfr_seconds_count{endpoint="POST /v1/scan",tenant="-"} `,
		`tasm_response_size_bytes_count{endpoint="POST /v1/scan",tenant="-"} `,
	} {
		// The deferred observation can land moments after the client
		// reads a stream's last byte; poll the scrape.
		waitFor(t, series+want, func() bool {
			res, err := http.Get(h.ts.URL + "/metrics")
			if err != nil {
				return false
			}
			body, _ := io.ReadAll(res.Body)
			res.Body.Close()
			return strings.Contains(string(body), series+want+"\n")
		})
	}
}

// requestHist is one endpoint's tasm_request_seconds series as scraped:
// cumulative bucket counts by upper bound, _count and _sum.
type requestHist struct {
	cum   map[float64]int64
	count int64
	sum   float64
}

// scrapeScanHist reads POST /v1/scan's request-wall histogram off /metrics.
func scrapeScanHist(t *testing.T, url string) requestHist {
	t.Helper()
	res, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(res.Body)
	res.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	const labels = `{endpoint="POST /v1/scan",tenant="-"`
	h := requestHist{cum: map[float64]int64{}}
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, "tasm_request_seconds_bucket"+labels+`,le="`); ok {
			le, n, _ := strings.Cut(rest, `"} `)
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					t.Fatalf("bad le in %q: %v", line, err)
				}
			}
			if h.cum[bound], err = strconv.ParseInt(n, 10, 64); err != nil {
				t.Fatalf("bad count in %q: %v", line, err)
			}
		} else if rest, ok := strings.CutPrefix(line, "tasm_request_seconds_count"+labels+"} "); ok {
			if h.count, err = strconv.ParseInt(rest, 10, 64); err != nil {
				t.Fatalf("bad count in %q: %v", line, err)
			}
		} else if rest, ok := strings.CutPrefix(line, "tasm_request_seconds_sum"+labels+"} "); ok {
			if h.sum, err = strconv.ParseFloat(rest, 64); err != nil {
				t.Fatalf("bad sum in %q: %v", line, err)
			}
		}
	}
	return h
}

// TestRequestHistogramAgreesWithClient is the closed-loop cross-check of
// the /metrics pipeline: after N sequential scans the request-wall
// histogram has counted exactly N, and it reports no latency the client
// did not see. The client's wall contains the server's by construction —
// it starts before the request is sent, and it ends at the body's EOF,
// which net/http sends only after ServeHTTP has taken its reading and
// returned — so at every bucket bound at least as many server readings
// as client readings lie at or below it. At any quantile (p50, p99) that
// says the bucket holding the server's quantile starts below the client's
// exact one. The other side (the client's quantile within that bucket's
// upper bound) is not asserted: the difference is the loopback round trip
// plus scheduling, and on a busy machine it crosses bucket bounds.
func TestRequestHistogramAgreesWithClient(t *testing.T) {
	h := newHarness(t, server.Config{})
	const n = 40
	before := scrapeScanHist(t, h.ts.URL)
	walls := make([]float64, n)
	for i := range walls {
		start := time.Now()
		res, err := http.Post(h.ts.URL+"/v1/scan", "application/json", strings.NewReader(`{"sql":"`+trafficSQL+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		_, err = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		walls[i] = time.Since(start).Seconds()
		if err != nil || res.StatusCode != http.StatusOK {
			t.Fatalf("scan %d: status %d, %v", i, res.StatusCode, err)
		}
		if res.ContentLength != -1 {
			t.Fatal("scan response was not streamed; its EOF no longer orders the two clocks")
		}
	}
	after := scrapeScanHist(t, h.ts.URL)

	if got := after.count - before.count; got != n {
		t.Fatalf("tasm_request_seconds_count moved by %d over %d requests", got, n)
	}
	if got := after.cum[math.Inf(1)] - before.cum[math.Inf(1)]; got != n {
		t.Fatalf("+Inf bucket moved by %d over %d requests", got, n)
	}
	var clientSum float64
	for _, d := range walls {
		clientSum += d
	}
	if got := after.sum - before.sum; got <= 0 || got > clientSum {
		t.Fatalf("server wall sum %.6fs over %d requests; the client saw %.6fs in total", got, n, clientSum)
	}
	sort.Float64s(walls)
	for _, b := range obs.DefaultLatencyBuckets {
		srv := after.cum[b] - before.cum[b]
		atOrBelow := int64(sort.SearchFloat64s(walls, math.Nextafter(b, math.Inf(1))))
		if srv < atOrBelow {
			t.Errorf("le=%g: %d server readings but %d client readings at or below it", b, srv, atOrBelow)
		}
	}
}
