package shard

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// RouterConfig tunes the routing tier.
type RouterConfig struct {
	// Logger receives diagnostics: recovered panics, shard up/down
	// transitions; nil discards.
	Logger *log.Logger
	// AccessLogger receives per-request access lines; nil falls back to
	// Logger.
	AccessLogger *log.Logger
	// HealthInterval is the period between /v1/healthz probes of every
	// shard; <= 0 means DefaultHealthInterval.
	HealthInterval time.Duration
	// BreakerThreshold is the consecutive-failure count (probes and
	// routed requests combined) that marks a shard down; <= 0 means
	// DefaultBreakerThreshold.
	BreakerThreshold int
	// ShardToken is the bearer token for router→shard requests, for
	// shard fleets running tasmd -token-file. Empty sends no token.
	ShardToken string
	// MaxBodyBytes bounds a request body; <= 0 means 1 GiB (matching
	// tasmd — the router forwards ingests, so the bounds must agree).
	MaxBodyBytes int64
	// SlowQueryThreshold logs any request whose wall time reaches it
	// (level=slow_query, and the tasm_router_slow_queries_total counter
	// ticks); 0 disables the slow-query log.
	SlowQueryThreshold time.Duration
	// TraceCapacity bounds the /v1/trace/{id} ring of recent finished
	// requests; <= 0 means obs.DefaultTraceCapacity.
	TraceCapacity int
}

// Router is the stateless scale-out tier: the shared HTTP surface
// (internal/api — tasmd's exact route table and middleware, so client/
// and tasmctl -addr work against it unchanged) over a Backend that
// routes each operation across a consistent-hash shard map.
// Video-scoped operations go to the owning shard; store-scoped ones
// (catalog, stats, gc, fsck, autotile) fan out to every shard and
// merge; scans scatter per-video remote cursors and gather them
// through the frame-order Merge. There is no auth or admission layer
// here — the shards enforce their own (the router forwards its
// configured shard token), and the router does no storage work worth
// admission-controlling. The inbound trace id travels the request
// context into every shard hop (the backend clients forward it as
// Tasm-Trace-Id), so one id indexes the trace rings of the router and
// every shard that served the request.
//
// "Stateless" is precise: the router holds no video data and no
// catalog, only the shard map and per-shard health — kill it and start
// another with the same map file and nothing is lost.
type Router struct {
	*api.Handler
	cfg       RouterConfig
	shardWall *obs.HistogramVec // {shard} seconds

	mu     sync.Mutex
	m      *Map
	states map[string]*shardState
	order  []*shardState // current map's entry order, for deterministic fan-out

	stopCh    chan struct{}
	probeWG   sync.WaitGroup
	closeOnce sync.Once
}

// NewRouter builds the routing tier over an initial map and starts the
// health prober. Callers own the returned Router's lifecycle: Close
// stops the prober and releases backend connections.
func NewRouter(m *Map, cfg RouterConfig) (*Router, error) {
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	if cfg.AccessLogger == nil {
		cfg.AccessLogger = cfg.Logger
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = DefaultBreakerThreshold
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 30
	}
	rt := &Router{
		cfg:    cfg,
		states: make(map[string]*shardState),
		stopCh: make(chan struct{}),
	}
	if err := rt.SetMap(m); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	rt.registerShardSeries(reg)
	rt.Handler = api.New(rt, api.Config{
		Logger:             cfg.Logger,
		AccessLogger:       cfg.AccessLogger,
		MaxBodyBytes:       cfg.MaxBodyBytes,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		TraceCapacity:      cfg.TraceCapacity,
		Registry:           reg,
		MetricsPrefix:      "tasm_router",
		Tier:               "router",
	})
	rt.shardWall = reg.NewHistogramVec("tasm_router_shard_seconds",
		"Wall time of routed calls against each shard (streaming paths count the cursor open, not the relay).",
		obs.DefaultLatencyBuckets, "shard")
	rt.HandleFunc("GET /v1/shards", func(w http.ResponseWriter, r *http.Request) { rpcwire.WriteJSON(w, rt.shards()) })

	rt.probeWG.Add(1)
	go rt.probeLoop()
	return rt, nil
}

// SetMap atomically replaces the shard map (tasm-router calls it on
// SIGHUP). Per-shard state is keyed by name and survives the swap when
// the address is unchanged — health and counters carry over — while a
// shard whose address moved gets a fresh client and a clean breaker.
// In-flight requests finish against the clients they started with.
func (rt *Router) SetMap(m *Map) error {
	entries := m.Shards()
	fresh := make(map[string]*shardState, len(entries))
	order := make([]*shardState, 0, len(entries))

	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, e := range entries {
		if st := rt.states[e.Name]; st != nil && st.addr == e.Addr {
			fresh[e.Name] = st
			order = append(order, st)
			continue
		}
		c, err := client.New(e.Addr,
			client.WithEncoding(client.Binary),
			client.WithToken(rt.cfg.ShardToken),
			client.WithRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: 50 * time.Millisecond}))
		if err != nil {
			for _, st := range order {
				if rt.states[st.name] == nil { // only the ones this call created
					_ = st.c.Close()
				}
			}
			return fmt.Errorf("shard %s: %w", e.Name, err)
		}
		st := &shardState{name: e.Name, addr: e.Addr, c: c}
		fresh[e.Name] = st
		order = append(order, st)
	}
	for name, st := range rt.states {
		if fresh[name] != st {
			_ = st.c.Close() // dropped or re-addressed: release idle conns
		}
	}
	rt.m, rt.states, rt.order = m, fresh, order
	return nil
}

// Map returns the current shard map.
func (rt *Router) Map() *Map {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.m
}

// statesSnapshot returns the current shards in map order.
func (rt *Router) statesSnapshot() []*shardState {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return append([]*shardState(nil), rt.order...)
}

// Close stops the health prober and releases backend connections.
func (rt *Router) Close() {
	rt.closeOnce.Do(func() {
		close(rt.stopCh)
		rt.probeWG.Wait()
		for _, st := range rt.statesSnapshot() {
			_ = st.c.Close()
		}
	})
}

// ---- routing and error classification ----

// owner resolves the shard owning video and fails fast (without
// dialing) when its breaker is open.
func (rt *Router) owner(video string) (*shardState, error) {
	rt.mu.Lock()
	e := rt.m.Owner(video)
	st := rt.states[e.Name]
	rt.mu.Unlock()
	if st.isDown() {
		return nil, rt.downErr(st)
	}
	st.requests.Add(1)
	return st, nil
}

// downErr is the fail-fast error for an open breaker.
func (rt *Router) downErr(st *shardState) error {
	_, consec := st.snapshot()
	return fmt.Errorf("%w: shard %s (%s): breaker open after %d consecutive failures",
		tasmerr.ErrShardUnavailable, st.name, st.addr, consec)
}

// classify folds one routed call's outcome into the shard's breaker and
// translates transport failures into ErrShardUnavailable. A typed
// remote error passes through untouched — the shard is alive and spoke
// the protocol; video_not_found from a healthy shard is the caller's
// problem, not an outage — and context errors belong to the caller, so
// they neither feed the breaker nor get reclassified.
func (rt *Router) classify(st *shardState, err error) error {
	if err == nil {
		if st.recordSuccess() {
			rt.cfg.Logger.Printf("shard %s (%s) up", st.name, st.addr)
		}
		return nil
	}
	var re *rpcwire.RemoteError
	if errors.As(err, &re) {
		if st.recordSuccess() {
			rt.cfg.Logger.Printf("shard %s (%s) up", st.name, st.addr)
		}
		return err
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	if st.recordFailure(rt.cfg.BreakerThreshold) {
		rt.cfg.Logger.Printf("shard %s (%s) down: %v", st.name, st.addr, err)
	}
	return fmt.Errorf("%w: shard %s (%s): %v", tasmerr.ErrShardUnavailable, st.name, st.addr, err)
}

// fanResult is one shard's outcome in a fan-out aggregation.
type fanResult[T any] struct {
	st  *shardState
	val T
	err error
}

// fanOut runs fn against every shard concurrently, classifying each
// outcome. Down shards fail fast without dialing. Results come back in
// map order, with the first failure in that order — so "first error
// wins" is deterministic.
func fanOut[T any](rt *Router, fn func(c *client.Client) (T, error)) ([]fanResult[T], error) {
	states := rt.statesSnapshot()
	out := make([]fanResult[T], len(states))
	var wg sync.WaitGroup
	for i, st := range states {
		wg.Add(1)
		go func(i int, st *shardState) {
			defer wg.Done()
			out[i].st = st
			if st.isDown() {
				out[i].err = rt.downErr(st)
				return
			}
			st.requests.Add(1)
			t0 := time.Now()
			v, err := fn(st.c)
			rt.observeShard(st, t0)
			out[i].val, out[i].err = v, rt.classify(st, err)
		}(i, st)
	}
	wg.Wait()
	for _, r := range out {
		if r.err != nil {
			return out, r.err
		}
	}
	return out, nil
}

// routed runs one video-scoped operation against the owning shard,
// timing it and folding its outcome into the shard's breaker.
func (rt *Router) routed(video string, fn func(c *client.Client) error) error {
	st, err := rt.owner(video)
	if err != nil {
		return err
	}
	t0 := time.Now()
	err = fn(st.c)
	rt.observeShard(st, t0)
	return rt.classify(st, err)
}

// observeShard folds one routed call's wall time into the per-shard
// latency histogram.
func (rt *Router) observeShard(st *shardState, begin time.Time) {
	rt.shardWall.With(st.name).Observe(time.Since(begin).Seconds())
}

// prefixAll tags report lines with the shard they came from, so a
// merged fsck/gc report still tells the operator where to look.
func prefixAll(shard string, lines []string) []string {
	out := make([]string, len(lines))
	for i, l := range lines {
		out[i] = shard + ": " + l
	}
	return out
}

// shards is GET /v1/shards, the router's one route beside the shared
// table: the live map and per-shard breaker state.
func (rt *Router) shards() rpcwire.ShardsResponse {
	rt.mu.Lock()
	m, order := rt.m, append([]*shardState(nil), rt.order...)
	rt.mu.Unlock()
	resp := rpcwire.ShardsResponse{Replicas: m.Replicas()}
	for _, st := range order {
		down, consec := st.snapshot()
		resp.Shards = append(resp.Shards, rpcwire.ShardInfo{
			Name: st.name, Addr: st.addr, Healthy: !down, ConsecutiveFailures: consec,
		})
	}
	return resp
}

// ---- api.Backend: video-scoped operations route to the owner ----

func (rt *Router) VideoInfoContext(ctx context.Context, video string) (meta tasm.VideoMeta, bytes int64, labels []string, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		meta, bytes, labels, err = c.VideoInfoContext(ctx, video)
		return err
	})
	return meta, bytes, labels, err
}

func (rt *Router) DeleteVideoContext(ctx context.Context, video string) error {
	return rt.routed(video, func(c *client.Client) error { return c.DeleteVideoContext(ctx, video) })
}

func (rt *Router) IngestContext(ctx context.Context, video string, frames []*tasm.Frame, fps int) (st tasm.IngestStats, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		st, err = c.IngestContext(ctx, video, frames, fps)
		return err
	})
	return st, err
}

func (rt *Router) IngestTiledContext(ctx context.Context, video string, frames []*tasm.Frame, fps int, layouts []tasm.Layout) (st tasm.IngestStats, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		st, err = c.IngestTiledContext(ctx, video, frames, fps, layouts)
		return err
	})
	return st, err
}

func (rt *Router) CreateLiveContext(ctx context.Context, video string, w, h, fps int, pol *tasm.RetentionPolicy) error {
	return rt.routed(video, func(c *client.Client) error { return c.CreateLiveContext(ctx, video, w, h, fps, pol) })
}

// AppendContext re-frames the batch over the always-binary router→shard
// hop. A shard's backpressure 429 passes through typed, so the caller's
// retry logic behaves identically through the router.
func (rt *Router) AppendContext(ctx context.Context, video string, frames []*tasm.Frame) (st tasm.AppendStats, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		st, err = c.AppendContext(ctx, video, frames)
		return err
	})
	return st, err
}

func (rt *Router) SealContext(ctx context.Context, video string) error {
	return rt.routed(video, func(c *client.Client) error { return c.SealContext(ctx, video) })
}

func (rt *Router) SetRetentionContext(ctx context.Context, video string, pol *tasm.RetentionPolicy) (rep tasm.TrimReport, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		rep, err = c.SetRetentionContext(ctx, video, pol)
		return err
	})
	return rep, err
}

func (rt *Router) AddDetectionsContext(ctx context.Context, video string, ds []tasm.Detection) error {
	return rt.routed(video, func(c *client.Client) error { return c.AddDetectionsContext(ctx, video, ds) })
}

func (rt *Router) MarkDetectedContext(ctx context.Context, video, label string, from, to int) error {
	return rt.routed(video, func(c *client.Client) error { return c.MarkDetectedContext(ctx, video, label, from, to) })
}

func (rt *Router) LookupDetectionsContext(ctx context.Context, video, label string, from, to int) (ds []tasm.Detection, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		ds, err = c.LookupDetectionsContext(ctx, video, label, from, to)
		return err
	})
	return ds, err
}

func (rt *Router) DesignLayoutContext(ctx context.Context, video string, sotID int, labels []string) (l tasm.Layout, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		l, err = c.DesignLayoutContext(ctx, video, sotID, labels)
		return err
	})
	return l, err
}

func (rt *Router) RetileSOTContext(ctx context.Context, video string, sotID int, l tasm.Layout) (st tasm.RetileStats, err error) {
	err = rt.routed(video, func(c *client.Client) (err error) {
		st, err = c.RetileSOTContext(ctx, video, sotID, l)
		return err
	})
	return st, err
}

// ---- api.Backend: store-scoped operations fan out and merge ----

func (rt *Router) VideosContext(ctx context.Context) ([]string, error) {
	results, err := fanOut(rt, func(c *client.Client) ([]string, error) { return c.VideosContext(ctx) })
	// A partial catalog is a silent lie — fail loudly instead.
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	var all []string
	for _, res := range results {
		for _, v := range res.val {
			if !seen[v] {
				seen[v] = true
				all = append(all, v)
			}
		}
	}
	sort.Strings(all)
	return all, nil
}

func (rt *Router) GCContext(ctx context.Context) (merged tasm.GCReport, err error) {
	results, err := fanOut(rt, func(c *client.Client) (tasm.GCReport, error) { return c.GCContext(ctx) })
	if err != nil {
		return merged, err
	}
	for _, res := range results {
		merged.Removed = append(merged.Removed, prefixAll(res.st.name, res.val.Removed)...)
		merged.Deferred = append(merged.Deferred, prefixAll(res.st.name, res.val.Deferred)...)
	}
	return merged, nil
}

func (rt *Router) FSCKContext(ctx context.Context) (merged tasm.FsckReport, err error) {
	results, err := fanOut(rt, func(c *client.Client) (tasm.FsckReport, error) { return c.FSCKContext(ctx) })
	// An unreachable shard must fail the check: "clean" may not be
	// claimed for state that could not be verified.
	if err != nil {
		return merged, err
	}
	for _, res := range results {
		merged.Videos += res.val.Videos
		merged.SOTs += res.val.SOTs
		merged.Tiles += res.val.Tiles
		merged.Leases += res.val.Leases
		merged.Problems = append(merged.Problems, prefixAll(res.st.name, res.val.Problems)...)
		merged.Orphans = append(merged.Orphans, prefixAll(res.st.name, res.val.Orphans)...)
	}
	return merged, nil
}

func (rt *Router) RepairStoreContext(ctx context.Context) (merged tasm.RepairReport, err error) {
	results, err := fanOut(rt, func(c *client.Client) (tasm.RepairReport, error) { return c.RepairStoreContext(ctx) })
	if err != nil {
		return merged, err
	}
	for _, res := range results {
		merged.Quarantined = append(merged.Quarantined, prefixAll(res.st.name, res.val.Quarantined)...)
		merged.Reverted = append(merged.Reverted, prefixAll(res.st.name, res.val.Reverted)...)
		merged.Videos = append(merged.Videos, prefixAll(res.st.name, res.val.Videos)...)
	}
	return merged, nil
}

// StatsContext degrades gracefully where the other aggregations fail
// loudly: stats are observability, and an outage is exactly when the
// operator needs the per-shard view — so a down shard appears in the
// breakdown with its error while the totals cover the healthy ones.
func (rt *Router) StatsContext(ctx context.Context) (rpcwire.ShardedCacheStats, error) {
	results, _ := fanOut(rt, func(c *client.Client) (tasm.CacheStats, error) { return c.CacheStatsContext(ctx) })
	var resp rpcwire.ShardedCacheStats
	for _, res := range results {
		down, _ := res.st.snapshot()
		sc := rpcwire.ShardCacheStats{Shard: res.st.name, Addr: res.st.addr, Healthy: !down}
		if res.err != nil {
			sc.Error = res.err.Error()
		} else {
			sc.Stats = res.val
			resp.Hits += sc.Stats.Hits
			resp.Misses += sc.Stats.Misses
			resp.Evictions += sc.Stats.Evictions
			resp.Invalidations += sc.Stats.Invalidations
			resp.BytesCached += sc.Stats.BytesCached
			resp.Entries += sc.Stats.Entries
			resp.Budget += sc.Stats.Budget
		}
		resp.Shards = append(resp.Shards, sc)
	}
	return resp, nil
}

func (rt *Router) AutotileStatusContext(ctx context.Context) (merged tasm.AutotileStatus, err error) {
	results, err := fanOut(rt, func(c *client.Client) (tasm.AutotileStatus, error) { return c.AutotileStatusContext(ctx) })
	if err != nil {
		return merged, err
	}
	for _, res := range results {
		s := res.val
		merged.Enabled = merged.Enabled || s.Enabled
		merged.Paused = merged.Paused || s.Paused
		if merged.PauseReason == "" {
			merged.PauseReason = s.PauseReason
		}
		merged.QueriesObserved += s.QueriesObserved
		merged.QueriesPending += s.QueriesPending
		merged.QueriesDropped += s.QueriesDropped
		merged.ActionsApplied += s.ActionsApplied
		merged.ActionsFailed += s.ActionsFailed
		merged.BytesSpent += s.BytesSpent
		merged.IOBudget += s.IOBudget
		merged.Regret += s.Regret
		if merged.LastAction == "" {
			merged.LastAction = s.LastAction
		}
		if merged.LastError == "" {
			merged.LastError = s.LastError
		}
	}
	return merged, nil
}

func (rt *Router) AutotilePauseContext(ctx context.Context, reason string) error {
	_, err := fanOut(rt, func(c *client.Client) (struct{}, error) { return struct{}{}, c.AutotilePauseContext(ctx, reason) })
	return err
}

func (rt *Router) AutotileResumeContext(ctx context.Context) error {
	_, err := fanOut(rt, func(c *client.Client) (struct{}, error) { return struct{}{}, c.AutotileResumeContext(ctx) })
	return err
}

// ---- api.Backend: streams scatter and relay ----

// shardCursor relays one shard's remote cursor, classifying its
// terminal error exactly once: a typed remote failure (the shard
// reported video_not_found, the stream trailer carried a sentinel)
// passes through so the caller gets the exact tasm.Err* identity; a
// transport-level death mid-stream — the SIGKILLed-shard case — feeds
// the breaker and becomes ErrShardUnavailable.
type shardCursor[T any] struct {
	api.Cursor[T]
	rt         *Router
	st         *shardState
	classified error
	done       bool
}

func (c *shardCursor[T]) Err() error {
	err := c.Cursor.Err()
	if err == nil {
		return nil
	}
	if !c.done {
		c.done = true
		c.classified = c.rt.classify(c.st, err)
	}
	return c.classified
}

// relay opens one stream against the shard owning video. (open returns
// the client's concrete cursor so a failed open's nil never reaches an
// interface.)
func relay[T any, C api.Cursor[T]](rt *Router, video string, open func(c *client.Client) (C, error)) (*shardCursor[T], error) {
	st, err := rt.owner(video)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	cur, err := open(st.c)
	rt.observeShard(st, t0)
	if err != nil {
		return nil, rt.classify(st, err)
	}
	return &shardCursor[T]{Cursor: cur, rt: rt, st: st}, nil
}

// spanned times a routed stream from open to Close as one span on the
// request trace: merge for a gathered read, relay for a live tail.
type spanned[T any] struct {
	api.Cursor[T]
	end   func(attrs ...string)
	attrs []string
}

func (s *spanned[T]) Close() error {
	err := s.Cursor.Close()
	if s.end != nil {
		s.end(s.attrs...)
		s.end = nil
	}
	return err
}

// ScanCursor is the scatter-gather core: one remote cursor per queried
// video, opened concurrently against the owning shards, gathered
// through the frame-order Merge (router→shard always runs binary; the
// caller's framing is negotiated independently). Opening fails the
// request whole, while a shard dying mid-stream surfaces
// shard_unavailable through the stream trailer after the regions
// already delivered.
func (rt *Router) ScanCursor(ctx context.Context, q tasm.Query) (api.Cursor[tasm.RegionResult], error) {
	tr := obs.FromContext(ctx)
	n := strconv.Itoa(len(q.VideoList()))
	endRoute := tr.StartSpan("route")
	cur, err := ScatterScan(q, func(sq tasm.Query) (Source[tasm.RegionResult], error) {
		return api.Lift[tasm.RegionResult](relay[tasm.RegionResult](rt, sq.Video, func(c *client.Client) (*client.ScanCursor, error) {
			return c.ScanCursor(ctx, sq)
		}))
	})
	endRoute("videos", n)
	if err != nil {
		return nil, err
	}
	return &spanned[tasm.RegionResult]{cur, tr.StartSpan("merge"), []string{"sources", n}}, nil
}

// owned relays a whole-frame stream from the shard owning video — the
// degenerate scatter (the owning set has size one), through the same
// translation so a mid-stream shard death is shard_unavailable here
// too — timed under the given span name.
func (rt *Router) owned(ctx context.Context, video, span string, open func(c *client.Client) (*client.FrameCursor, error)) (api.Cursor[tasm.FrameResult], error) {
	tr := obs.FromContext(ctx)
	endRoute := tr.StartSpan("route")
	cur, err := relay[tasm.FrameResult](rt, video, open)
	if err != nil {
		endRoute("video", video)
		return nil, err
	}
	endRoute("video", video, "shard", cur.st.name)
	return &spanned[tasm.FrameResult]{cur, tr.StartSpan(span), []string{"shard", cur.st.name}}, nil
}

func (rt *Router) DecodeFramesCursor(ctx context.Context, video string, from, to int) (api.Cursor[tasm.FrameResult], error) {
	return rt.owned(ctx, video, "merge", func(c *client.Client) (*client.FrameCursor, error) {
		return c.DecodeFramesCursor(ctx, video, from, to)
	})
}

// Subscribe relays a live tail from the owning shard: one upstream
// subscription held for as long as the caller stays connected. A SIGHUP
// map reload does not touch it (in-flight requests keep the shard
// client they started with; only new subscriptions see the new map),
// and a shard SIGKILLed mid-tail surfaces shard_unavailable through the
// stream's error trailer, the client's cue to resubscribe from its
// watermark once the shard returns.
func (rt *Router) Subscribe(ctx context.Context, video string, from int) (api.Cursor[tasm.FrameResult], error) {
	return rt.owned(ctx, video, "relay", func(c *client.Client) (*client.FrameCursor, error) {
		return c.Subscribe(ctx, video, from)
	})
}
