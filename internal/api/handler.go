package api

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/rpcwire"
)

// Gate is the optional authentication and admission layer in front of
// the route table: tasmd's tenant gate implements it, the router has
// none (its shards enforce their own). The health probe bypasses it —
// an overloaded or locked-down daemon is still alive and must say so.
type Gate interface {
	// Admit authenticates r and takes its admission slots, recording
	// its own auth/admit spans on the request trace. The tenant is
	// meaningful even on failure (a known tenant over its quota); ""
	// is the anonymous tenant of an open daemon. release returns the
	// slots.
	Admit(r *http.Request) (tenant string, release func(), err error)
	// Observe is called once per finished request, admitted or not, so
	// the gate can keep its per-tenant serving counters.
	Observe(tenant string, status int, bytes int64)
}

// Config is what differs between the daemons serving this surface.
type Config struct {
	// Logger receives diagnostics (recovered panics, slow queries);
	// AccessLogger the per-request access lines. Both must be non-nil.
	Logger       *log.Logger
	AccessLogger *log.Logger
	// MaxBodyBytes bounds a request body.
	MaxBodyBytes int64
	// SlowQueryThreshold > 0 also logs requests at or above it as
	// level=slow_query lines; TraceCapacity bounds the trace ring.
	SlowQueryThreshold time.Duration
	TraceCapacity      int
	// Registry is the /metrics registry the request series join; the
	// caller registers its backend's own scrape-time series on it
	// before and after New, which fixes their exposition order.
	Registry *obs.Registry
	// MetricsPrefix names the request series (tasm, tasm_router).
	MetricsPrefix string
	// Tier, when set, is annotated on every request trace.
	Tier string
	// Gate is the auth/admission layer; nil serves everything. With a
	// gate the request histograms carry a tenant label.
	Gate Gate
}

// Handler is the HTTP surface over one Backend.
type Handler struct {
	b       Backend
	cfg     Config
	mux     *http.ServeMux
	metrics *requestMetrics
	traces  *obs.TraceStore
}

// route is one row of the surface. Backend-reaching rows are built with
// op, which derives the operation context; the rest answer from the
// handler's own state.
type route struct {
	pattern string
	serve   func(*Handler, http.ResponseWriter, *http.Request)
}

// routes is the one route table: every daemon serves exactly these
// (the router adds GET /v1/shards through HandleFunc).
var routes = []route{
	{"GET /v1/healthz", (*Handler).healthz},
	{"GET /metrics", (*Handler).exposition},
	{"GET /v1/trace/{id}", (*Handler).trace},
	{"GET /v1/videos", op((*Handler).videos)},
	{"GET /v1/videos/{video}", op((*Handler).videoInfo)},
	{"DELETE /v1/videos/{video}", op((*Handler).deleteVideo)},
	{"POST /v1/ingest", op((*Handler).ingest)},
	{"POST /v1/live", op((*Handler).createLive)},
	{"POST /v1/append", op((*Handler).appendFrames)},
	{"GET /v1/subscribe", op((*Handler).subscribe)},
	{"POST /v1/seal", op((*Handler).seal)},
	{"POST /v1/retention", op((*Handler).retention)},
	{"POST /v1/metadata", op((*Handler).metadata)},
	{"POST /v1/markdetected", op((*Handler).markDetected)},
	{"GET /v1/detections", op((*Handler).detections)},
	{"POST /v1/scan", op((*Handler).scan)},
	{"POST /v1/decodeframes", op((*Handler).decodeFrames)},
	{"POST /v1/retile", op((*Handler).retile)},
	{"POST /v1/designlayout", op((*Handler).designLayout)},
	{"POST /v1/gc", op((*Handler).gc)},
	{"POST /v1/fsck", op((*Handler).fsck)},
	{"POST /v1/repairstore", op((*Handler).repairStore)},
	{"GET /v1/stats", op((*Handler).stats)},
	{"GET /v1/autotile/status", op((*Handler).autotileStatus)},
	{"POST /v1/autotile/pause", op((*Handler).autotilePause)},
	{"POST /v1/autotile/resume", op((*Handler).autotileResume)},
}

// op lifts a Backend-reaching handler into a route: the operation
// context — the request context (cancelled on client disconnect),
// bounded by Tasm-Deadline-Ms, carrying Tasm-Cache-Budget — is derived
// exactly once here and handed down, so every route validates the
// headers and every backend hop sees the caller's deadline.
func op(fn func(*Handler, context.Context, http.ResponseWriter, *http.Request)) func(*Handler, http.ResponseWriter, *http.Request) {
	return func(h *Handler, w http.ResponseWriter, r *http.Request) {
		ctx, cancel, err := rpcwire.RequestContext(r)
		if err != nil {
			rpcwire.WriteError(w, err)
			return
		}
		defer cancel()
		fn(h, ctx, w, r)
	}
}

// New builds the surface over b.
func New(b Backend, cfg Config) *Handler {
	h := &Handler{
		b:       b,
		cfg:     cfg,
		mux:     http.NewServeMux(),
		metrics: newRequestMetrics(cfg.Registry, cfg.MetricsPrefix, cfg.Gate != nil),
		traces:  obs.NewTraceStore(cfg.TraceCapacity),
	}
	for _, rt := range routes {
		h.mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) { rt.serve(h, w, r) })
	}
	return h
}

// HandleFunc adds a route beside the shared table (the router's
// GET /v1/shards). It must be called before the handler serves.
func (h *Handler) HandleFunc(pattern string, fn http.HandlerFunc) { h.mux.HandleFunc(pattern, fn) }

// ServeHTTP is the middleware stack: recover → trace → gate (when
// configured: authenticate, then admit) → observe → body cap → route.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	lw := &responseWriter{ResponseWriter: w}
	start := time.Now()
	gated := h.cfg.Gate != nil
	tenant := ""

	// Adopt the caller's trace id (the client mints one per operation;
	// the router forwards its inbound id on every shard hop) or mint
	// one here so every request is traceable. The id is echoed on the
	// response before any handler runs, and the trace itself travels
	// the request context down into the backend.
	tid := r.Header.Get(obs.TraceHeader)
	if !obs.ValidTraceID(tid) {
		tid = obs.NewTraceID()
	}
	tr := obs.NewTrace(tid)
	tr.Annotate("method", r.Method)
	tr.Annotate("path", r.URL.Path)
	if h.cfg.Tier != "" {
		tr.Annotate("tier", h.cfg.Tier)
	}
	lw.Header().Set(obs.TraceHeader, tid)
	r = r.WithContext(obs.WithTrace(r.Context(), tr))

	defer func() {
		m := h.metrics
		if p := recover(); p != nil {
			m.panics.With().Inc()
			h.cfg.Logger.Printf("panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
			if !lw.wrote {
				rpcwire.WriteError(lw, fmt.Errorf("internal panic: %v", p))
			}
		}
		// r.Pattern is filled in by the mux; requests that never
		// reached it (gate rejections) or matched nothing group under
		// a synthetic endpoint label so the histograms stay
		// low-cardinality.
		endpoint := r.Pattern
		if endpoint == "" {
			endpoint = "unmatched"
		}
		dur := time.Since(start)
		status := lw.status()
		labels := []string{endpoint}
		if gated {
			if tenant == "" {
				tenant = "-"
			}
			labels = append(labels, tenant)
			h.cfg.Gate.Observe(tenant, status, lw.bytes)
			tr.Annotate("tenant", tenant)
		}
		m.reqWall.With(labels...).Observe(dur.Seconds())
		var ttfr time.Duration
		if !lw.firstWrite.IsZero() {
			ttfr = lw.firstWrite.Sub(start)
			m.reqTTFR.With(labels...).Observe(ttfr.Seconds())
		}
		m.respSize.With(labels...).Observe(float64(lw.bytes))

		tr.Annotate("endpoint", endpoint)
		tr.Annotate("status", strconv.Itoa(status))
		h.traces.Put(tr.Snapshot())

		rec := obs.AccessRecord{
			Level:    "access",
			TraceID:  tid,
			Method:   r.Method,
			Path:     r.URL.Path,
			Endpoint: endpoint,
			Status:   status,
			Bytes:    lw.bytes,
			DurMS:    obs.Msec(dur),
			TTFRMS:   obs.Msec(ttfr),
			Remote:   r.RemoteAddr,
			Tenant:   tenant,
		}
		h.cfg.AccessLogger.Print(rec.Line())
		if thr := h.cfg.SlowQueryThreshold; thr > 0 && dur >= thr {
			m.slow.With(endpoint).Inc()
			rec.Level = "slow_query"
			rec.ThresholdMS = obs.Msec(thr)
			h.cfg.Logger.Print(rec.Line())
		}
	}()

	if gated && r.URL.Path != "/v1/healthz" {
		tn, release, err := h.cfg.Gate.Admit(r)
		tenant = tn
		if err != nil {
			// The limiter's politeness contract: a 503 carries both the
			// canonical envelope (typed, retryable client-side) and a
			// Retry-After the client's backoff honors.
			if errors.Is(err, rpcwire.ErrOverloaded) {
				lw.Header().Set("Retry-After", "1")
			}
			rpcwire.WriteError(lw, err)
			return
		}
		defer release()
		defer tr.StartSpan("handle")()
	}
	r.Body = http.MaxBytesReader(lw, r.Body, h.cfg.MaxBodyBytes)
	h.mux.ServeHTTP(lw, r)
}

// responseWriter captures status, byte count and the first-body-byte
// time (TTFR: streaming endpoints commit the header before the first
// decode, so the first Write is the first result) for the access log
// and histograms, and keeps http.Flusher reachable through the wrap
// (the streaming endpoints flush per record).
type responseWriter struct {
	http.ResponseWriter
	code       int
	bytes      int64
	wrote      bool
	firstWrite time.Time
}

func (w *responseWriter) WriteHeader(code int) {
	if !w.wrote {
		w.wrote, w.code = true, code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(p []byte) (int, error) {
	if !w.wrote {
		w.wrote, w.code = true, http.StatusOK
	}
	if w.firstWrite.IsZero() {
		w.firstWrite = time.Now()
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *responseWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *responseWriter) status() int {
	if !w.wrote {
		return http.StatusOK
	}
	return w.code
}

// requestMetrics is the request series every daemon exports, named by
// prefix; with a gate the histograms carry a tenant label too.
type requestMetrics struct {
	panics   *obs.CounterVec   // unlabeled
	slow     *obs.CounterVec   // {endpoint}
	reqWall  *obs.HistogramVec // {endpoint[, tenant]} seconds
	reqTTFR  *obs.HistogramVec // {endpoint[, tenant]} seconds
	respSize *obs.HistogramVec // {endpoint[, tenant]} bytes
}

func newRequestMetrics(reg *obs.Registry, prefix string, tenant bool) *requestMetrics {
	labels, by := []string{"endpoint"}, ", by endpoint."
	if tenant {
		labels, by = append(labels, "tenant"), ", by endpoint and tenant."
	}
	return &requestMetrics{
		panics: reg.NewCounterVec(prefix+"_request_panics_total", "Handler panics recovered into 500 responses."),
		slow:   reg.NewCounterVec(prefix+"_slow_queries_total", "Requests at or above -slow-query-threshold, by endpoint.", "endpoint"),
		reqWall: reg.NewHistogramVec(prefix+"_request_seconds",
			"Request wall time from arrival to last byte"+by, obs.DefaultLatencyBuckets, labels...),
		reqTTFR: reg.NewHistogramVec(prefix+"_request_ttfr_seconds",
			"Time to first response byte (streaming endpoints: first result)"+by, obs.DefaultLatencyBuckets, labels...),
		respSize: reg.NewHistogramVec(prefix+"_response_size_bytes",
			"Response body size"+by, obs.DefaultSizeBuckets, labels...),
	}
}

// ---- request/response helpers ----

// readBody decodes a JSON request body into v, answering bad_request
// (and reporting false) when it does not parse.
func readBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := rpcwire.ReadJSON(r, v); err != nil {
		rpcwire.WriteError(w, err)
		return false
	}
	return true
}

// fail writes err's mapped status and envelope. Live-append
// backpressure also carries Retry-After: nothing was written, and the
// header is the client's cue to back off and retry.
func fail(w http.ResponseWriter, err error) {
	if errors.Is(err, tasm.ErrIngestBackpressure) {
		w.Header().Set("Retry-After", "1")
	}
	rpcwire.WriteError(w, err)
}

// reply finishes a unary operation: the JSON result, or the mapped
// error.
func reply(w http.ResponseWriter, v any, err error) {
	if err != nil {
		fail(w, err)
		return
	}
	rpcwire.WriteJSON(w, v)
}

// stream finishes a streaming operation: a constructor error fails the
// request whole, before the 200; otherwise cur drains into the
// negotiated framing, one line per result, and is closed — releasing
// leases or cancelling shard requests — on every path.
func stream[T any](w http.ResponseWriter, r *http.Request, cur Cursor[T], err error, line func(T) rpcwire.StreamLine) {
	if err != nil {
		fail(w, err)
		return
	}
	defer cur.Close()
	rpcwire.ServeStream(w, r, cur, func(c Cursor[T]) rpcwire.StreamLine { return line(c.Result()) })
}

func regionLine(res tasm.RegionResult) rpcwire.StreamLine {
	reg := rpcwire.FromRegion(res)
	return rpcwire.StreamLine{Region: &reg}
}

func frameLine(res tasm.FrameResult) rpcwire.StreamLine {
	fl := rpcwire.FromFrameResult(res)
	return rpcwire.StreamLine{Frame: &fl}
}

// toFrames validates uploaded frames at the boundary: a malformed
// upload is the caller's bad_request, never backend work.
func toFrames(wire []rpcwire.Frame) ([]*tasm.Frame, error) {
	frames := make([]*tasm.Frame, len(wire))
	for i, wf := range wire {
		var err error
		if frames[i], err = wf.ToFrame(); err != nil {
			return nil, fmt.Errorf("frame %d: %w", i, err)
		}
	}
	return frames, nil
}

// ---- handlers that answer from the daemon's own state ----

func (h *Handler) healthz(w http.ResponseWriter, r *http.Request) {
	rpcwire.WriteJSON(w, struct {
		OK bool `json:"ok"`
	}{true})
}

// exposition serves the Prometheus text format. Every series lives in
// the obs.Registry, which refuses one registered without a HELP line.
// Like every endpoint but the health probe it sits behind the gate:
// serving totals per tenant are operator data, not public data.
func (h *Handler) exposition(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = h.cfg.Registry.WriteText(w)
}

// trace serves one finished request's span timeline from this daemon's
// ring (a router's shards keep their own spans under the same id). A
// miss is trace_not_found/404: the ring holds only the most recent
// requests, and in-flight requests are inserted at completion.
func (h *Handler) trace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := h.traces.Get(id)
	if !ok {
		rpcwire.WriteError(w, fmt.Errorf("%w: id %q is not among the most recent finished requests", rpcwire.ErrTraceNotFound, id))
		return
	}
	rpcwire.WriteJSON(w, rec)
}

// ---- catalog and ingest ----

func (h *Handler) videos(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	videos, err := h.b.VideosContext(ctx)
	reply(w, rpcwire.VideosResponse{Videos: videos}, err)
}

func (h *Handler) videoInfo(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	meta, bytes, labels, err := h.b.VideoInfoContext(ctx, r.PathValue("video"))
	reply(w, rpcwire.VideoInfo{Meta: meta, Bytes: bytes, Labels: labels}, err)
}

func (h *Handler) deleteVideo(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	reply(w, struct{}{}, h.b.DeleteVideoContext(ctx, r.PathValue("video")))
}

func (h *Handler) ingest(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.IngestRequest
	if !readBody(w, r, &req) {
		return
	}
	frames, err := toFrames(req.Frames)
	if err != nil {
		fail(w, err)
		return
	}
	var st tasm.IngestStats
	if len(req.Layouts) > 0 {
		layouts := make([]tasm.Layout, len(req.Layouts))
		for i, wl := range req.Layouts {
			layouts[i] = wl.ToLayout()
		}
		st, err = h.b.IngestTiledContext(ctx, req.Video, frames, req.FPS, layouts)
	} else {
		st, err = h.b.IngestContext(ctx, req.Video, frames, req.FPS)
	}
	reply(w, st, err)
}

// ---- live ingest ----

func (h *Handler) createLive(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.CreateLiveRequest
	if !readBody(w, r, &req) {
		return
	}
	reply(w, struct{}{}, h.b.CreateLiveContext(ctx, req.Video, req.W, req.H, req.FPS, req.Retention))
}

// appendFrames appends a batch of frames to a live video. The body is
// either the v2 binary framing (Content-Type application/x-tasm-frames:
// a TASMFRM2 stream of 'F' records, the video named by ?video=) or the
// JSON AppendRequest fallback. A full commit queue answers 429 with
// Retry-After, nothing having been written.
func (h *Handler) appendFrames(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var video string
	var frames []*tasm.Frame
	if strings.HasPrefix(r.Header.Get("Content-Type"), rpcwire.ContentTypeBinary) {
		video = r.URL.Query().Get("video")
		if video == "" {
			fail(w, fmt.Errorf("%w: binary append needs ?video=", rpcwire.ErrBadRequest))
			return
		}
		fr := rpcwire.NewFrameStreamReader(r.Body)
		for {
			line, err := fr.ReadLine()
			if err == io.EOF {
				break
			}
			if err != nil {
				fail(w, fmt.Errorf("%w: append stream: %v", rpcwire.ErrBadRequest, err))
				return
			}
			if line.Frame == nil {
				fail(w, fmt.Errorf("%w: append stream carries only frame records", rpcwire.ErrBadRequest))
				return
			}
			f, err := line.Frame.Pixels.ToFrame()
			if err != nil {
				fail(w, fmt.Errorf("frame %d: %w", len(frames), err))
				return
			}
			frames = append(frames, f)
		}
	} else {
		var req rpcwire.AppendRequest
		if !readBody(w, r, &req) {
			return
		}
		var err error
		if frames, err = toFrames(req.Frames); err != nil {
			fail(w, err)
			return
		}
		video = req.Video
	}
	st, err := h.b.AppendContext(ctx, video, frames)
	reply(w, st, err)
}

// subscribe is the live-tail read path: a long-lived stream of whole
// frames, in both framings, that begins at ?from= (the client's resume
// watermark, clamped to the retention horizon), replays every
// already-committed frame past it, then blocks — flushed up to date —
// and emits each newly committed SOT's frames as appends land. On a
// sealed video the stream drains and ends with the stats trailer; a
// deleted video ends it with the video_deleted error trailer.
func (h *Handler) subscribe(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	qs := r.URL.Query()
	video := qs.Get("video")
	if video == "" {
		fail(w, fmt.Errorf("%w: need video", rpcwire.ErrBadRequest))
		return
	}
	from := 0
	if s := qs.Get("from"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 {
			fail(w, fmt.Errorf("%w: from=%q", rpcwire.ErrBadRequest, s))
			return
		}
		from = v
	}
	cur, err := h.b.Subscribe(ctx, video, from)
	stream(w, r, cur, err, frameLine)
}

func (h *Handler) seal(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.SealRequest
	if !readBody(w, r, &req) {
		return
	}
	reply(w, struct{}{}, h.b.SealContext(ctx, req.Video))
}

func (h *Handler) retention(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.RetentionRequest
	if !readBody(w, r, &req) {
		return
	}
	rep, err := h.b.SetRetentionContext(ctx, req.Video, req.Retention)
	reply(w, rep, err)
}

// ---- semantic index ----

func (h *Handler) metadata(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.MetadataRequest
	if !readBody(w, r, &req) {
		return
	}
	reply(w, struct{}{}, h.b.AddDetectionsContext(ctx, req.Video, req.Detections))
}

func (h *Handler) markDetected(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.MarkDetectedRequest
	if !readBody(w, r, &req) {
		return
	}
	reply(w, struct{}{}, h.b.MarkDetectedContext(ctx, req.Video, req.Label, req.From, req.To))
}

func (h *Handler) detections(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	video, label := q.Get("video"), q.Get("label")
	from, err1 := strconv.Atoi(q.Get("from"))
	to, err2 := strconv.Atoi(q.Get("to"))
	if video == "" || label == "" || err1 != nil || err2 != nil {
		fail(w, fmt.Errorf("%w: need video, label, from, to", rpcwire.ErrBadRequest))
		return
	}
	ds, err := h.b.LookupDetectionsContext(ctx, video, label, from, to)
	if ds == nil {
		ds = []tasm.Detection{} // an empty lookup is "detections":[] on the wire, not null
	}
	reply(w, rpcwire.DetectionsResponse{Detections: ds}, err)
}

// ---- streaming reads ----

// scan streams a Scan's regions in frame order. A multi-video query is
// the backend's to scatter — per-video engine cursors locally, per-shard
// remote cursors in a fleet, gathered by the same merge — so a scan
// through tasmd and one scattered across shards produce identical
// bytes.
func (h *Handler) scan(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.ScanRequest
	if !readBody(w, r, &req) {
		return
	}
	if (req.SQL == "") == (req.Query == nil) {
		fail(w, fmt.Errorf("%w: exactly one of sql and query must be set", rpcwire.ErrBadRequest))
		return
	}
	var q tasm.Query
	if req.SQL != "" {
		// Parse here rather than in the backend so that only a genuine
		// parse failure is classified as the client's bad request;
		// constructor errors below (unknown video, invalid range,
		// store I/O) keep their own classification.
		var err error
		if q, err = tasm.ParseQuery(req.SQL); err != nil {
			fail(w, fmt.Errorf("%w: %v", rpcwire.ErrBadRequest, err))
			return
		}
	} else {
		q = req.Query.ToQuery()
	}
	cur, err := h.b.ScanCursor(ctx, q)
	stream(w, r, cur, err, regionLine)
}

func (h *Handler) decodeFrames(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.DecodeFramesRequest
	if !readBody(w, r, &req) {
		return
	}
	cur, err := h.b.DecodeFramesCursor(ctx, req.Video, req.From, req.To)
	stream(w, r, cur, err, frameLine)
}

// ---- layout tuning ----

func (h *Handler) retile(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.RetileRequest
	if !readBody(w, r, &req) {
		return
	}
	st, err := h.b.RetileSOTContext(ctx, req.Video, req.SOT, req.Layout.ToLayout())
	reply(w, st, err)
}

func (h *Handler) designLayout(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.DesignLayoutRequest
	if !readBody(w, r, &req) {
		return
	}
	l, err := h.b.DesignLayoutContext(ctx, req.Video, req.SOT, req.Labels)
	reply(w, rpcwire.DesignLayoutResponse{Layout: rpcwire.FromLayout(l)}, err)
}

// ---- maintenance ----

func (h *Handler) gc(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	rep, err := h.b.GCContext(ctx)
	reply(w, rep, err)
}

// fsck verifies only; repair is its own endpoint (/v1/repairstore).
func (h *Handler) fsck(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	rep, err := h.b.FSCKContext(ctx)
	reply(w, rep, err)
}

// repairStore quarantines corrupt tile versions and falls back to
// intact earlier ones — the network form of `tasmctl fsck -repair`. It
// is store-wide: the repair pass is one critical section, so there is
// no per-video progress to stream.
func (h *Handler) repairStore(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	rep, err := h.b.RepairStoreContext(ctx)
	reply(w, rep, err)
}

func (h *Handler) stats(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	st, err := h.b.StatsContext(ctx)
	reply(w, st, err)
}

// autotileStatus reports the background re-tiler's snapshot; without
// -autotile it answers 200 with Enabled false (observability of a
// disabled subsystem is not an error).
func (h *Handler) autotileStatus(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	st, err := h.b.AutotileStatusContext(ctx)
	reply(w, st, err)
}

// autotilePause suspends background re-tiling. The body is an optional
// AutotilePauseRequest carrying the operator's reason; on a daemon
// without -autotile the call is autotile_disabled/400.
func (h *Handler) autotilePause(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	var req rpcwire.AutotilePauseRequest
	if r.ContentLength != 0 && !readBody(w, r, &req) {
		return
	}
	reply(w, struct{}{}, h.b.AutotilePauseContext(ctx, req.Reason))
}

// autotileResume lifts a pause (operator- or error-initiated) and kicks
// a decision cycle.
func (h *Handler) autotileResume(ctx context.Context, w http.ResponseWriter, r *http.Request) {
	reply(w, struct{}{}, h.b.AutotileResumeContext(ctx))
}
