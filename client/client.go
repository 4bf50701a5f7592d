// Package client is the Go client for tasmd, the TASM network front
// end. A Client mirrors the tasm.StorageManager surface — the same
// method names, the same types, and the same error taxonomy: failures
// reconstruct the exact tasm.Err* sentinel the server classified, so
//
//	errors.Is(err, tasm.ErrVideoNotFound)
//
// holds for a remote miss exactly as it does in-process, and context
// deadline/cancellation errors round-trip as context.DeadlineExceeded
// and context.Canceled.
//
// Clients are built with functional options:
//
//	c, err := client.New("tasmd.example:7878",
//	    client.WithEncoding(client.Binary),   // raw-plane wire framing
//	    client.WithToken(token),              // bearer auth (tasmd -token-file)
//	    client.WithTLS(tlsCfg),               // https transport
//	    client.WithRetry(client.RetryPolicy{MaxAttempts: 4}),
//	)
//	cur, err := c.ScanSQLCursor(ctx, "SELECT car FROM traffic")
//	defer cur.Close()
//	for cur.Next() { consume(cur.Result()) }
//	if err := cur.Err(); err != nil { ... }
//
// The streaming reads — ScanCursor, ScanSQLCursor, DecodeFramesCursor
// — decode the server's stream incrementally (the first result is
// available as soon as the server flushes its first record, while
// later SOTs are still decoding) and handle either wire framing
// transparently: WithEncoding only changes what the client *asks* for;
// what arrives is decoded by the response's Content-Type, so a v1
// daemon answering a v2 client still works.
//
// A context deadline travels with every request (the Tasm-Deadline-Ms
// header), so the server bounds its own work instead of discovering
// the timeout only when the client hangs up.
package client

import (
	"bytes"
	"context"
	"crypto/tls"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// Serving-layer sentinels, re-exported for callers that classify remote
// failures without importing the wire package.
var (
	// ErrBadRequest: the server could not interpret the request
	// (malformed body, unparseable SQL, bad header).
	ErrBadRequest = rpcwire.ErrBadRequest
	// ErrOverloaded: the daemon's concurrent-request limit (global or
	// tenant quota) was hit; the request did no work and is safe to
	// retry — Retryable reports true and RetryAfter carries the
	// server's requested backoff. WithRetry retries it automatically.
	ErrOverloaded = rpcwire.ErrOverloaded
	// ErrUnauthorized: a token-protected daemon refused the request
	// (missing or unknown bearer token). Not retryable.
	ErrUnauthorized = rpcwire.ErrUnauthorized
	// ErrShardUnavailable: a tasm-router could not reach the shard
	// owning the requested video (breaker open, or the shard died
	// mid-request). Other shards keep serving; retry once the shard
	// recovers or the map is updated.
	ErrShardUnavailable = tasm.ErrShardUnavailable
	// ErrTraceNotFound: a TraceContext lookup for an id no longer in
	// the daemon's ring of recent finished requests.
	ErrTraceNotFound = rpcwire.ErrTraceNotFound
)

// Encoding selects the wire framing the client asks the server for on
// streaming reads.
type Encoding int

const (
	// NDJSON is wire protocol v1: one JSON object per line, pixel
	// planes base64-encoded. The server default — curl-able.
	NDJSON Encoding = iota
	// Binary is wire protocol v2 (application/x-tasm-frames):
	// length-prefixed records with raw pixel planes — ~25-30% fewer
	// bytes per region. Decoded output is byte-identical to NDJSON.
	Binary
)

// RetryPolicy drives automatic retries of safely retryable failures —
// today exactly the limiter's 503 overloaded rejections, which the
// server guarantees did no work. The backoff doubles per attempt from
// BaseDelay up to MaxDelay, and a server Retry-After longer than the
// computed backoff wins.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first;
	// <= 1 disables retries.
	MaxAttempts int
	// BaseDelay is the wait before the first retry (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 2s).
	MaxDelay time.Duration
}

// Client talks to one tasmd. It is safe for concurrent use; streams
// opened from it are independent requests.
type Client struct {
	base       string
	hc         *http.Client
	customHC   bool
	enc        Encoding
	token      string
	tlsCfg     *tls.Config
	clientCert *tls.Certificate
	retry      RetryPolicy
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (timeouts, proxies, custom
// TLS dialing). The default client has no overall timeout — streaming
// scans are long-lived by design; bound them with a context instead.
// Mutually exclusive with WithTLS (configure the transport yourself).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc, c.customHC = hc, true }
}

// WithEncoding selects the stream framing to request (default NDJSON).
// Decoding always follows the response's Content-Type, so the option
// never changes what results look like — only how many bytes they cost
// on the wire.
func WithEncoding(e Encoding) Option {
	return func(c *Client) { c.enc = e }
}

// WithToken attaches a bearer token to every request — the credential
// a tasmd -token-file daemon maps to this client's tenant.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithTLS dials the daemon over HTTPS with the given configuration
// (nil uses the defaults). An addr without an explicit scheme then
// defaults to https://.
func WithTLS(cfg *tls.Config) Option {
	return func(c *Client) {
		if cfg == nil {
			cfg = &tls.Config{}
		}
		c.tlsCfg = cfg
	}
}

// WithClientCert presents a client certificate during the TLS
// handshake — the credential an mTLS daemon (tasmd or tasm-router run
// with -tls-client-ca) verifies before serving anything. It implies
// HTTPS; combine with WithTLS to also configure the server-side trust
// (RootCAs etc.), and like WithTLS it is mutually exclusive with
// WithHTTPClient.
func WithClientCert(cert tls.Certificate) Option {
	return func(c *Client) { c.clientCert = &cert }
}

// WithRetry enables automatic retries per the policy.
func WithRetry(p RetryPolicy) Option {
	return func(c *Client) { c.retry = p }
}

// New returns a client for the daemon at addr ("host:port" or a full
// http:// / https:// URL), configured by the options. It does not
// touch the network; use Ping to probe.
func New(addr string, opts ...Option) (*Client, error) {
	c := &Client{}
	for _, opt := range opts {
		opt(c)
	}
	if c.tlsCfg != nil && c.customHC {
		return nil, fmt.Errorf("client: WithTLS and WithHTTPClient are mutually exclusive; set TLSClientConfig on your transport")
	}
	if c.clientCert != nil {
		if c.customHC {
			return nil, fmt.Errorf("client: WithClientCert and WithHTTPClient are mutually exclusive; set Certificates on your transport")
		}
		if c.tlsCfg == nil {
			c.tlsCfg = &tls.Config{}
		}
		c.tlsCfg.Certificates = append(c.tlsCfg.Certificates, *c.clientCert)
	}
	if !strings.Contains(addr, "://") {
		if c.tlsCfg != nil {
			addr = "https://" + addr
		} else {
			addr = "http://" + addr
		}
	}
	u, err := url.Parse(addr)
	if err != nil || u.Host == "" {
		return nil, fmt.Errorf("client: invalid address %q", addr)
	}
	if c.tlsCfg != nil && u.Scheme != "https" {
		return nil, fmt.Errorf("client: WithTLS requires an https address, got %q", addr)
	}
	c.base = strings.TrimSuffix(u.String(), "/")
	if c.hc == nil {
		c.hc = &http.Client{}
		if c.tlsCfg != nil {
			tr := http.DefaultTransport.(*http.Transport).Clone()
			tr.TLSClientConfig = c.tlsCfg
			c.hc = &http.Client{Transport: tr}
		}
	}
	if c.retry.MaxAttempts > 1 {
		if c.retry.BaseDelay <= 0 {
			c.retry.BaseDelay = 100 * time.Millisecond
		}
		if c.retry.MaxDelay <= 0 {
			c.retry.MaxDelay = 2 * time.Second
		}
	}
	return c, nil
}

// Retryable reports whether err is safe to retry as-is: the server
// rejected the request before doing any work (limiter 503s and live
// append backpressure 429s — both guarantee nothing was written), or
// the connection died before the request could have reached a handler
// — dial refused (daemon restarting, LB flap) and connection reset on
// send. Auth failures, bad requests, storage-manager errors, and
// failures after a response started are not.
func Retryable(err error) bool {
	if errors.Is(err, ErrOverloaded) || errors.Is(err, tasm.ErrIngestBackpressure) {
		return true
	}
	var te *transientError
	return errors.As(err, &te)
}

// transientError marks a transport failure that happened before the
// server could have done any work, making the request safe to repeat.
// transportError applies it to connection-refused and connection-reset
// dial failures so WithRetry (and the router's shard calls) ride the
// same backoff as limiter rejections.
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

// RetryAfter returns the backoff the server requested alongside err
// (the Retry-After header on a 503), when it named one.
func RetryAfter(err error) (time.Duration, bool) {
	var re *rpcwire.RemoteError
	if errors.As(err, &re) && re.RetryAfter > 0 {
		return re.RetryAfter, true
	}
	return 0, false
}

// withRetry runs op under the client's retry policy: retryable
// failures back off (honoring a longer server Retry-After) and try
// again; everything else returns immediately.
func (c *Client) withRetry(ctx context.Context, op func() error) error {
	if c.retry.MaxAttempts <= 1 {
		return op()
	}
	delay := c.retry.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if err = op(); err == nil || !Retryable(err) || attempt >= c.retry.MaxAttempts {
			return err
		}
		wait := delay
		if ra, ok := RetryAfter(err); ok && ra > wait {
			wait = ra
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("client: %v: %w", err, ctx.Err())
		}
		if delay *= 2; delay > c.retry.MaxDelay {
			delay = c.retry.MaxDelay
		}
	}
}

// Close releases idle connections. Open cursors are unaffected; close
// them individually.
func (c *Client) Close() error {
	c.hc.CloseIdleConnections()
	return nil
}

// Ping checks the daemon is up and speaking the v1 protocol.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/v1/healthz", nil, nil)
}

// ---- catalog ----
//
// Every operation is context-first and has exactly one spelling: the
// default transport deliberately has no timeout (streams are
// long-lived), so the context is the only lever that keeps a hung
// daemon from hanging the caller. This method set is also the
// api.Backend contract the daemons serve.

// VideosContext lists stored video names under a context.
func (c *Client) VideosContext(ctx context.Context) ([]string, error) {
	var resp rpcwire.VideosResponse
	if err := c.do(ctx, http.MethodGet, "/v1/videos", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Videos, nil
}

// VideoInfoContext fetches one video's combined catalog record — meta,
// byte footprint, and indexed labels — in a single round trip (the
// server computes the on-disk byte walk once per call). MetaContext is
// the single-field view of the same endpoint.
func (c *Client) VideoInfoContext(ctx context.Context, video string) (tasm.VideoMeta, int64, []string, error) {
	info, err := c.videoInfo(ctx, video)
	return info.Meta, info.Bytes, info.Labels, err
}

// videoInfo fetches the combined catalog record.
func (c *Client) videoInfo(ctx context.Context, video string) (rpcwire.VideoInfo, error) {
	var resp rpcwire.VideoInfo
	err := c.do(ctx, http.MethodGet, "/v1/videos/"+url.PathEscape(video), nil, &resp)
	return resp, err
}

// MetaContext returns a stored video's catalog record.
func (c *Client) MetaContext(ctx context.Context, video string) (tasm.VideoMeta, error) {
	info, err := c.videoInfo(ctx, video)
	return info.Meta, err
}

// DeleteVideoContext removes a stored video, its index records, and any
// server-side cached decodes.
func (c *Client) DeleteVideoContext(ctx context.Context, video string) error {
	return c.do(ctx, http.MethodDelete, "/v1/videos/"+url.PathEscape(video), nil, nil)
}

// ---- ingest ----

// IngestContext uploads frames and stores them as a new untiled video.
func (c *Client) IngestContext(ctx context.Context, video string, frames []*tasm.Frame, fps int) (tasm.IngestStats, error) {
	return c.ingest(ctx, video, frames, fps, nil)
}

// IngestTiledContext uploads frames with caller-chosen per-SOT layouts
// (the edge-camera upload path).
func (c *Client) IngestTiledContext(ctx context.Context, video string, frames []*tasm.Frame, fps int, layouts []tasm.Layout) (tasm.IngestStats, error) {
	return c.ingest(ctx, video, frames, fps, layouts)
}

func (c *Client) ingest(ctx context.Context, video string, frames []*tasm.Frame, fps int, layouts []tasm.Layout) (tasm.IngestStats, error) {
	req := rpcwire.IngestRequest{Video: video, FPS: fps, Frames: make([]rpcwire.Frame, len(frames))}
	for i, f := range frames {
		req.Frames[i] = rpcwire.FromFrame(f)
	}
	for _, l := range layouts {
		req.Layouts = append(req.Layouts, rpcwire.FromLayout(l))
	}
	var st tasm.IngestStats
	err := c.do(ctx, http.MethodPost, "/v1/ingest", req, &st)
	return st, err
}

// ---- semantic index ----

// AddDetectionsContext records a batch of detections.
// (Detection batches can be large; the upload honors cancellation.)
func (c *Client) AddDetectionsContext(ctx context.Context, video string, ds []tasm.Detection) error {
	return c.do(ctx, http.MethodPost, "/v1/metadata", rpcwire.MetadataRequest{Video: video, Detections: ds}, nil)
}

// MarkDetectedContext records that frames [from, to) were fully processed by a
// detector for label.
func (c *Client) MarkDetectedContext(ctx context.Context, video, label string, from, to int) error {
	req := rpcwire.MarkDetectedRequest{Video: video, Label: label, From: from, To: to}
	return c.do(ctx, http.MethodPost, "/v1/markdetected", req, nil)
}

// LookupDetectionsContext returns indexed detections for (video, label) within
// [fromFrame, toFrame).
func (c *Client) LookupDetectionsContext(ctx context.Context, video, label string, fromFrame, toFrame int) ([]tasm.Detection, error) {
	q := url.Values{}
	q.Set("video", video)
	q.Set("label", label)
	q.Set("from", strconv.Itoa(fromFrame))
	q.Set("to", strconv.Itoa(toFrame))
	var resp rpcwire.DetectionsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/detections?"+q.Encode(), nil, &resp); err != nil {
		return nil, err
	}
	return resp.Detections, nil
}

// ---- scans ----

// ScanContext materializes a remote Scan under a context.
func (c *Client) ScanContext(ctx context.Context, q tasm.Query) ([]tasm.RegionResult, tasm.ScanStats, error) {
	cur, err := c.ScanCursor(ctx, q)
	if err != nil {
		return nil, tasm.ScanStats{}, err
	}
	return drainScan(cur)
}

// ScanSQLContext materializes a remote Scan in the SELECT form.
func (c *Client) ScanSQLContext(ctx context.Context, sql string) ([]tasm.RegionResult, tasm.ScanStats, error) {
	cur, err := c.ScanSQLCursor(ctx, sql)
	if err != nil {
		return nil, tasm.ScanStats{}, err
	}
	return drainScan(cur)
}

func drainScan(cur *ScanCursor) ([]tasm.RegionResult, tasm.ScanStats, error) {
	defer cur.Close()
	var out []tasm.RegionResult
	for cur.Next() {
		out = append(out, cur.Result())
	}
	if err := cur.Err(); err != nil {
		return nil, cur.Stats(), err
	}
	return out, cur.Stats(), nil
}

// ScanCursor starts a remote streaming Scan: results decode off the
// NDJSON stream incrementally, in frame order. The caller must drain
// the cursor or Close it; Close cancels the request, which makes the
// server release its read leases.
func (c *Client) ScanCursor(ctx context.Context, q tasm.Query) (*ScanCursor, error) {
	wq := rpcwire.FromQuery(q)
	return c.scanCursor(ctx, rpcwire.ScanRequest{Query: &wq})
}

// ScanSQLCursor starts a remote streaming Scan from a SELECT string
// (parsed server-side).
func (c *Client) ScanSQLCursor(ctx context.Context, sql string) (*ScanCursor, error) {
	return c.scanCursor(ctx, rpcwire.ScanRequest{SQL: sql})
}

func (c *Client) scanCursor(ctx context.Context, req rpcwire.ScanRequest) (*ScanCursor, error) {
	s, err := c.startStream(ctx, "/v1/scan", req)
	if err != nil {
		return nil, err
	}
	return &ScanCursor{s: s}, nil
}

// DecodeFramesContext materializes whole reassembled frames [from, to)
// under a context.
func (c *Client) DecodeFramesContext(ctx context.Context, video string, from, to int) ([]*tasm.Frame, tasm.ScanStats, error) {
	cur, err := c.DecodeFramesCursor(ctx, video, from, to)
	if err != nil {
		return nil, tasm.ScanStats{}, err
	}
	defer cur.Close()
	var out []*tasm.Frame
	for cur.Next() {
		out = append(out, cur.Result().Pixels)
	}
	if err := cur.Err(); err != nil {
		return nil, cur.Stats(), err
	}
	return out, cur.Stats(), nil
}

// DecodeFramesCursor starts a remote streaming whole-frame decode;
// frames arrive in order as each SOT's tiles decode server-side.
func (c *Client) DecodeFramesCursor(ctx context.Context, video string, from, to int) (*FrameCursor, error) {
	s, err := c.startStream(ctx, "/v1/decodeframes", rpcwire.DecodeFramesRequest{Video: video, From: from, To: to})
	if err != nil {
		return nil, err
	}
	return &FrameCursor{s: s}, nil
}

// ---- layout tuning ----

// DesignLayoutContext asks the server to partition a SOT around the indexed
// boxes of the given labels.
func (c *Client) DesignLayoutContext(ctx context.Context, video string, sotID int, labels []string) (tasm.Layout, error) {
	req := rpcwire.DesignLayoutRequest{Video: video, SOT: sotID, Labels: labels}
	var resp rpcwire.DesignLayoutResponse
	if err := c.do(ctx, http.MethodPost, "/v1/designlayout", req, &resp); err != nil {
		return tasm.Layout{}, err
	}
	return resp.Layout.ToLayout(), nil
}

// RetileSOTContext re-encodes one SOT with the given layout under a
// context.
func (c *Client) RetileSOTContext(ctx context.Context, video string, sotID int, l tasm.Layout) (tasm.RetileStats, error) {
	req := rpcwire.RetileRequest{Video: video, SOT: sotID, Layout: rpcwire.FromLayout(l)}
	var st tasm.RetileStats
	err := c.do(ctx, http.MethodPost, "/v1/retile", req, &st)
	return st, err
}

// ---- maintenance ----

// GCContext reclaims dead storage server-side.
func (c *Client) GCContext(ctx context.Context) (tasm.GCReport, error) {
	var rep tasm.GCReport
	err := c.do(ctx, http.MethodPost, "/v1/gc", nil, &rep)
	return rep, err
}

// FSCKContext verifies the server's store against the bytes on disk.
func (c *Client) FSCKContext(ctx context.Context) (tasm.FsckReport, error) {
	var rep tasm.FsckReport
	err := c.do(ctx, http.MethodPost, "/v1/fsck", nil, &rep)
	return rep, err
}

// RepairStoreContext quarantines corrupt tile versions server-side and falls
// back to the newest intact earlier version of each — the storage half
// of `tasmctl fsck -repair`, run against a remote daemon.
func (c *Client) RepairStoreContext(ctx context.Context) (tasm.RepairReport, error) {
	var rep tasm.RepairReport
	err := c.do(ctx, http.MethodPost, "/v1/repairstore", nil, &rep)
	return rep, err
}

// CacheStatsContext snapshots the daemon's decoded-tile cache counters.
// Unlike the in-process form this can fail (the daemon may be down).
func (c *Client) CacheStatsContext(ctx context.Context) (tasm.CacheStats, error) {
	var st tasm.CacheStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// StatsContext fetches GET /v1/stats whole: the totals together with
// the per-shard breakdown a tasm-router includes in its aggregation.
// Against a plain tasmd Shards is nil and the totals are the daemon's
// own — callers distinguish a router by a non-nil breakdown, which is
// how `tasmctl stats` decides whether to print the per-shard table.
func (c *Client) StatsContext(ctx context.Context) (rpcwire.ShardedCacheStats, error) {
	var st rpcwire.ShardedCacheStats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &st)
	return st, err
}

// AutotileStatusContext snapshots the daemon's background adaptive-tiling
// subsystem; Enabled false means the daemon runs without -autotile.
func (c *Client) AutotileStatusContext(ctx context.Context) (tasm.AutotileStatus, error) {
	var st tasm.AutotileStatus
	err := c.do(ctx, http.MethodGet, "/v1/autotile/status", nil, &st)
	return st, err
}

// AutotilePauseContext suspends the daemon's background re-tiling; observation
// continues, so evidence keeps accumulating for when it resumes. reason
// (optional) is surfaced in the status. Fails with ErrAutotileDisabled
// on a daemon without -autotile.
func (c *Client) AutotilePauseContext(ctx context.Context, reason string) error {
	return c.do(ctx, http.MethodPost, "/v1/autotile/pause", rpcwire.AutotilePauseRequest{Reason: reason}, nil)
}

// AutotileResumeContext lifts a pause — operator-initiated or the loop's own
// pause-on-error — and kicks a decision cycle.
func (c *Client) AutotileResumeContext(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/autotile/resume", nil, nil)
}

// ---- transport ----

// setDeadline forwards a context deadline as the Tasm-Deadline-Ms
// header so the server bounds its own work.
func setDeadline(r *http.Request, ctx context.Context) {
	if d, ok := ctx.Deadline(); ok {
		ms := int64(math.Ceil(float64(time.Until(d)) / float64(time.Millisecond)))
		if ms < 1 {
			ms = 1
		}
		r.Header.Set(rpcwire.DeadlineHeader, strconv.FormatInt(ms, 10))
	}
}

// applyHeaders attaches the client-level contract headers: the context
// deadline, the bearer token, and the trace id (resolved once per
// logical operation by traceID so retried attempts correlate under one
// id).
func (c *Client) applyHeaders(hr *http.Request, ctx context.Context, tid string) {
	setDeadline(hr, ctx)
	hr.Header.Set(obs.TraceHeader, tid)
	if c.token != "" {
		hr.Header.Set("Authorization", "Bearer "+c.token)
	}
}

// do runs one unary request with a JSON body (req nil = no body)
// through send.
func (c *Client) do(ctx context.Context, method, path string, req, resp any) error {
	if req == nil {
		return c.send(ctx, method, path, "", nil, resp)
	}
	data, err := json.Marshal(req)
	if err != nil {
		return fmt.Errorf("client: encoding request: %w", err)
	}
	return c.send(ctx, method, path, "application/json", data, resp)
}

// send is the one unary request path: body (nil = none) goes out as
// contentType under the retry policy, a 200 response's JSON decodes
// into resp (nil = discarded), and a non-200 response decodes through
// the error envelope into a sentinel-wrapping error.
func (c *Client) send(ctx context.Context, method, path, contentType string, body []byte, resp any) error {
	tid := traceID(ctx)
	return c.withRetry(ctx, func() error {
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		hr, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return fmt.Errorf("client: %w", err)
		}
		if contentType != "" {
			hr.Header.Set("Content-Type", contentType)
		}
		c.applyHeaders(hr, ctx, tid)
		res, err := c.hc.Do(hr)
		if err != nil {
			return transportError(ctx, err)
		}
		defer func() {
			io.Copy(io.Discard, io.LimitReader(res.Body, 1<<20)) //nolint:errcheck // keep-alive best effort
			res.Body.Close()
		}()
		if res.StatusCode != http.StatusOK {
			return decodeErrorResponse(res)
		}
		if resp != nil {
			if err := json.NewDecoder(res.Body).Decode(resp); err != nil {
				return fmt.Errorf("client: decoding response: %w", err)
			}
		}
		return nil
	})
}

// transportError classifies a failed round trip: a context the caller
// cancelled (or whose deadline passed) surfaces as that context error
// so errors.Is matches; connection-refused and connection-reset are
// marked transient (Retryable reports true — the request never reached
// a handler); anything else is a plain transport failure.
func transportError(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("client: %v: %w", err, ctx.Err())
	}
	if errors.Is(err, syscall.ECONNREFUSED) || errors.Is(err, syscall.ECONNRESET) {
		return fmt.Errorf("client: %w", &transientError{err})
	}
	return fmt.Errorf("client: %w", err)
}

// decodeErrorResponse turns a non-200 response into the reconstructed
// sentinel-wrapping error, carrying along any Retry-After the server
// sent (surfaced via RetryAfter and honored by WithRetry).
func decodeErrorResponse(res *http.Response) error {
	data, err := io.ReadAll(io.LimitReader(res.Body, 1<<20))
	if err != nil {
		return fmt.Errorf("client: HTTP %d (unreadable body: %v)", res.StatusCode, err)
	}
	var envelope struct {
		Error rpcwire.ErrorBody `json:"error"`
	}
	if err := json.Unmarshal(data, &envelope); err != nil || envelope.Error.Code == "" {
		return fmt.Errorf("client: HTTP %d: %s", res.StatusCode, strings.TrimSpace(string(data)))
	}
	derr := rpcwire.DecodeError(envelope.Error)
	if secs, err := strconv.Atoi(res.Header.Get("Retry-After")); err == nil && secs >= 0 {
		var re *rpcwire.RemoteError
		if errors.As(derr, &re) {
			re.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return derr
}
