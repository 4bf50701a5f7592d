// Package tasm is a tile-based storage manager for video analytics, a
// from-scratch Go reproduction of "TASM: A Tile-Based Storage Manager for
// Video Analytics" (Daum et al., ICDE 2021).
//
// TASM stores video as independently decodable spatial tiles, maintains a
// semantic index of object detections (label + bounding box, clustered on
// (video, label, time)), and physically tunes each video's tile layout to
// the query workload so that object-retrieval queries decode only the
// pixels they need. Layouts can be chosen up front when the workload is
// known (KQKO), evolve lazily as detections arrive, or adapt online with
// the paper's regret-based policy.
//
// Basic usage (API v2: context-first, streaming):
//
//	sm, err := tasm.Open(dir)                        // tile store + semantic index
//	sm.IngestContext(ctx, "traffic", frames, 30)     // untiled, one SOT per GOP
//	sm.AddMetadata("traffic", f, "car", x1, y1, x2, y2)
//	res, stats, err := sm.ScanSQLContext(ctx, "SELECT car FROM traffic WHERE 30 <= t < 90")
//
// Long scans should stream instead of materializing: a cursor yields each
// pixel region in frame order as its tiles decode, with bounded buffering,
// and cancelling ctx stops the decode work and releases every read lease:
//
//	cur, err := sm.ScanCursor(ctx, q)
//	defer cur.Close()
//	for cur.Next() {
//	    consume(cur.Result())
//	}
//	if err := cur.Err(); err != nil { ... }
//
// Failures are classified by exported sentinel errors — ErrVideoNotFound,
// ErrInvalidRange, ErrRetileConflict, … — matchable with errors.Is across
// every layer. Every operation that decodes, encodes or re-tiles has one
// spelling and takes a context first; only catalog and index lookups
// (Meta, AddDetections, GC, …) do without one.
//
// Enable adaptive tiling to let the storage manager re-tile itself in the
// background as it observes queries — every query path (blocking,
// streaming, remote) feeds the observer, and a background goroutine
// applies re-tile decisions under MVCC without blocking queries:
//
//	sm, _ := tasm.Open(dir, tasm.WithAdaptiveTiling())
package tasm

import (
	"context"
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/tasm-repro/tasm/internal/adapt"
	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/policy"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tasmerr"
	"github.com/tasm-repro/tasm/internal/tilecache"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// The error taxonomy: every failure the storage manager reports wraps one
// of these sentinels (use errors.Is to classify). This is the stable
// contract an RPC front end maps onto status codes.
var (
	// ErrVideoNotFound: the named video is not in the catalog.
	ErrVideoNotFound = tasmerr.ErrVideoNotFound
	// ErrVideoExists: an ingest under a name that is already stored.
	ErrVideoExists = tasmerr.ErrVideoExists
	// ErrInvalidName: a video name the store refuses.
	ErrInvalidName = tasmerr.ErrInvalidName
	// ErrInvalidRange: a frame range empty or inverted after clamping.
	ErrInvalidRange = tasmerr.ErrInvalidRange
	// ErrSOTNotFound: an operation addressed a SOT id the video lacks.
	ErrSOTNotFound = tasmerr.ErrSOTNotFound
	// ErrVideoDeleted: the operation lost a race with DeleteVideo.
	ErrVideoDeleted = tasmerr.ErrVideoDeleted
	// ErrRetileConflict: a re-tile lost a race with another re-tile.
	ErrRetileConflict = tasmerr.ErrRetileConflict
	// ErrCursorClosed: a cursor was closed before exhaustion.
	ErrCursorClosed = tasmerr.ErrCursorClosed
	// ErrNoFrames: an ingest of an empty frame sequence.
	ErrNoFrames = tasmerr.ErrNoFrames
	// ErrStoreLocked: the storage directory's cross-process ownership
	// lease is held by another process (typically a live tasmd). Open
	// with WithForceOpen only to recover a store whose owner is gone.
	ErrStoreLocked = tasmerr.ErrStoreLocked
	// ErrAutotileDisabled: an autotile control call (pause, resume, kick)
	// on a storage manager opened without WithAdaptiveTiling.
	ErrAutotileDisabled = tasmerr.ErrAutotileDisabled
	// ErrTileCorrupt: stored bytes failed integrity verification — a
	// tile file no longer matches the CRC32C sealed into the catalog
	// when it was written, or no longer parses. RepairStoreContext (or
	// `tasmctl fsck -repair`) quarantines the damaged version and falls
	// back to an earlier intact one when the store still holds it.
	ErrTileCorrupt = tasmerr.ErrTileCorrupt
	// ErrShardUnavailable: a scale-out operation could not reach the
	// tasmd shard owning the addressed video — its breaker is open
	// after consecutive failures, or the request died at the transport
	// layer. Returned by tasm-router (and surfaced through client/);
	// a single-node storage manager never produces it.
	ErrShardUnavailable = tasmerr.ErrShardUnavailable
	// ErrIngestBackpressure: a live append found the video's bounded
	// commit queue full. Nothing was written; the append is safe to
	// retry after a short delay. The serving layer maps it to HTTP 429
	// with a Retry-After header.
	ErrIngestBackpressure = tasmerr.ErrIngestBackpressure
	// ErrVideoSealed: an append-path operation (AppendGOPContext, SealVideo,
	// SetRetention) addressed a video that is not live — batch-ingested,
	// or already sealed. Sealing is one-way.
	ErrVideoSealed = tasmerr.ErrVideoSealed
)

// Re-exported building blocks. These are aliases so values returned by the
// storage manager interoperate with user code without conversion.
type (
	// Frame is a planar YCbCr 4:2:0 video frame.
	Frame = frame.Frame
	// Rect is a half-open pixel rectangle.
	Rect = geom.Rect
	// Detection is a labeled bounding box on one frame.
	Detection = semindex.Detection
	// Layout is a tile layout: rows and columns spanning the frame.
	Layout = layout.Layout
	// Query is a parsed Scan request.
	Query = query.Query
	// Predicate is a CNF label predicate.
	Predicate = query.Predicate
	// RegionResult is one retrieved pixel region.
	RegionResult = core.RegionResult
	// ScanStats reports the work a Scan performed.
	ScanStats = core.ScanStats
	// RetileStats reports the work of a re-tiling operation.
	RetileStats = core.RetileStats
	// IngestStats reports the work of an ingest.
	IngestStats = core.IngestStats
	// Cursor streams a Scan's pixel regions in frame order as they
	// decode (see StorageManager.ScanCursor).
	Cursor = core.ScanCursor
	// FrameCursor streams whole reassembled frames in order (see
	// StorageManager.DecodeFramesCursor).
	FrameCursor = core.FrameCursor
	// FrameResult is one streamed whole frame: absolute index + pixels.
	FrameResult = core.FrameResult
	// VideoMeta is a stored video's catalog record.
	VideoMeta = tilestore.VideoMeta
	// SOTMeta describes one sequence of tiles.
	SOTMeta = tilestore.SOTMeta
	// RetentionPolicy bounds how much history a live video keeps.
	RetentionPolicy = tilestore.RetentionPolicy
	// TrimReport describes what one retention trim removed.
	TrimReport = tilestore.TrimReport
	// AppendStats reports the work of one AppendGOPContext call.
	AppendStats = core.AppendStats
	// SubscribeCursor is a live tail over a video's committed frames
	// (see StorageManager.Subscribe).
	SubscribeCursor = core.SubscribeCursor
)

// NewFrame allocates a zeroed frame with even dimensions.
func NewFrame(w, h int) *Frame { return frame.New(w, h) }

// R constructs a rectangle covering [x0,x1) x [y0,y1).
func R(x0, y0, x1, y1 int) Rect { return geom.R(x0, y0, x1, y1) }

// PSNR returns the luma peak signal-to-noise ratio between two frames.
func PSNR(a, b *Frame) float64 { return frame.PSNR(a, b) }

// SequencePSNR returns the PSNR over two equal-length frame sequences.
func SequencePSNR(a, b []*Frame) float64 { return frame.SequencePSNR(a, b) }

// ParseQuery parses "SELECT <predicate> FROM <video> [WHERE <time>]".
func ParseQuery(s string) (Query, error) { return query.Parse(s) }

// ParsePredicate parses a CNF label predicate such as
// "(car OR bicycle) AND red".
func ParsePredicate(s string) (Predicate, error) { return query.ParsePredicate(s) }

// Granularity selects fine- or coarse-grained non-uniform layouts.
type Granularity = layout.Granularity

// Granularity values.
const (
	Fine   = layout.Fine
	Coarse = layout.Coarse
)

// Option configures a storage manager.
type Option func(*settings)

type settings struct {
	cfg      core.Config
	adaptive bool
	autotile adapt.Config
}

// WithGOPLength sets the keyframe interval in frames; SOTs span one GOP.
func WithGOPLength(frames int) Option {
	return func(s *settings) { s.cfg.Codec.GOPLength = frames }
}

// WithAlpha sets the do-not-tile threshold on P(L)/P(ω) (default 0.8).
func WithAlpha(alpha float64) Option {
	return func(s *settings) { s.cfg.Alpha = alpha }
}

// WithEta sets the regret policy's retile threshold multiplier (default 1).
func WithEta(eta float64) Option {
	return func(s *settings) { s.cfg.Eta = eta }
}

// WithGranularity selects fine or coarse non-uniform layouts (default
// Fine).
func WithGranularity(g Granularity) Option {
	return func(s *settings) { s.cfg.Granularity = g }
}

// WithMinTileSize sets the smallest legal tile (default 64×64).
func WithMinTileSize(w, h int) Option {
	return func(s *settings) { s.cfg.MinTileW, s.cfg.MinTileH = w, h }
}

// WithParallelism bounds concurrent tile decodes within one Scan or
// DecodeFrames call. Decode jobs fan out across every (SOT, tile) pair the
// request touches, so long time ranges scale even when each SOT needs only
// one tile. The paper's prototype decodes tiles sequentially (the default,
// 1); higher values are an extension of this reproduction.
func WithParallelism(n int) Option {
	return func(s *settings) { s.cfg.Parallelism = n }
}

// WithCacheBudget enables the in-memory cache of decoded tile GOPs,
// bounded to the given number of bytes. Repeated scans over the same
// regions (the dominant pattern in analytics workloads) then skip the
// decode entirely and pay only pixel assembly. The cache is invalidated
// automatically when a SOT is re-tiled or a video deleted. A budget of 0
// (the default) disables caching, matching the paper's prototype.
func WithCacheBudget(bytes int64) Option {
	return func(s *settings) { s.cfg.CacheBudget = bytes }
}

// WithAdaptiveTiling enables the background adaptive-tiling subsystem
// (paper §4.4): every query — blocking, streaming, or served remotely —
// feeds a lock-cheap observer, and a background goroutine folds the
// observations into the regret policy and applies its re-tile decisions
// under MVCC. Queries never wait on re-tiling; in-flight scans keep
// reading their snapshots while layouts change underneath. Control and
// inspect the subsystem with AutotileStatus, AutotilePause,
// AutotileResume, and AutotileKick (or their tasmctl / HTTP
// counterparts).
func WithAdaptiveTiling() Option {
	return func(s *settings) { s.adaptive = true }
}

// WithRetileIOBudget caps the background re-tiler's sustained write rate
// in bytes per second: after committing a re-tile the loop idles long
// enough that, on average, committed bytes stay at or below the budget,
// keeping background churn from starving foreground I/O. 0 (the default)
// is unthrottled. Implies nothing unless WithAdaptiveTiling is also set.
func WithRetileIOBudget(bytesPerSec int64) Option {
	return func(s *settings) { s.autotile.IOBudget = bytesPerSec }
}

// WithAutotileInterval sets the background re-tiler's poll cadence
// (default 500ms). Shorter reacts faster; longer batches more
// observations per decision cycle.
func WithAutotileInterval(d time.Duration) Option {
	return func(s *settings) { s.autotile.Interval = d }
}

// WithAutotileLogger directs the background re-tiler's action and pause
// diagnostics to logger (default: silent).
func WithAutotileLogger(logger *log.Logger) Option {
	return func(s *settings) { s.autotile.Logger = logger }
}

// WithAppendQueueDepth bounds how many live-append commits may be
// pending per video before AppendGOPContext refuses with ErrIngestBackpressure
// (default 4). Deeper queues smooth burstier producers at the cost of
// more buffered frames in memory.
func WithAppendQueueDepth(n int) Option {
	return func(s *settings) { s.cfg.AppendQueueDepth = n }
}

// WithForceOpen skips the storage directory's cross-process ownership
// lease. By default Open takes an exclusive flock on the store, so a
// second opener — a tasmctl -dir pointed at a live tasmd's directory —
// fails fast with ErrStoreLocked instead of reading stale caches. Force
// is the recovery escape hatch (lock holder unreachable, say a hung
// process on a shared mount); against a live owner it reintroduces
// exactly the stale-cache corruption the lease exists to prevent.
func WithForceOpen() Option {
	return func(s *settings) { s.cfg.ForceOpen = true }
}

// WithRequestCacheBudget returns a context capping how many bytes of
// newly decoded tiles the operations run under it may insert into the
// shared decoded-tile cache (0 = insert nothing). Reads still hit the
// cache — the budget bounds pollution, not reuse: a one-off sequential
// sweep run under a zero budget cannot evict the working set repeated
// queries depend on. Remote callers set the same knob per request with
// the Tasm-Cache-Budget header (client.WithCacheBudget).
func WithRequestCacheBudget(ctx context.Context, bytes int64) context.Context {
	return core.WithCacheAdmissionBudget(ctx, bytes)
}

// StorageManager is TASM: the tile-aware bottom layer of a VDBMS.
type StorageManager struct {
	m       *core.Manager
	retiler *adapt.Retiler // nil unless WithAdaptiveTiling
}

// Open creates or opens a storage manager rooted at dir.
func Open(dir string, opts ...Option) (*StorageManager, error) {
	s := settings{cfg: core.DefaultConfig()}
	for _, opt := range opts {
		opt(&s)
	}
	m, err := core.Open(dir, s.cfg)
	if err != nil {
		return nil, err
	}
	sm := &StorageManager{m: m}
	if s.adaptive {
		// Warm-and-pin only pays off when there is a cache to warm.
		s.autotile.Warm = s.cfg.CacheBudget > 0
		sm.retiler = adapt.NewRetiler(m, nil, s.autotile)
		m.SetQueryObserver(sm.retiler)
		sm.retiler.Start()
	}
	return sm, nil
}

// Close stops the background re-tiler (waiting out any in-flight re-tile's
// atomic commit), then closes the semantic index and the store.
func (s *StorageManager) Close() error {
	if s.retiler != nil {
		s.retiler.Close()
	}
	return s.m.Close()
}

// AutotileStatus is a point-in-time snapshot of the background
// adaptive-tiling subsystem.
type AutotileStatus = adapt.Status

// AutotileStatus snapshots the background re-tiler. With adaptive tiling
// disabled it returns the zero Status (Enabled false).
func (s *StorageManager) AutotileStatus() AutotileStatus {
	if s.retiler == nil {
		return AutotileStatus{}
	}
	return s.retiler.Status()
}

// AutotilePause suspends background re-tiling; observation continues, so
// evidence keeps accumulating for when it resumes. reason is surfaced in
// AutotileStatus (empty = a generic operator message).
func (s *StorageManager) AutotilePause(reason string) error {
	if s.retiler == nil {
		return fmt.Errorf("tasm: %w", ErrAutotileDisabled)
	}
	s.retiler.Pause(reason)
	return nil
}

// AutotileResume lifts a pause — operator-initiated or the loop's own
// pause-on-error — and immediately kicks a decision cycle.
func (s *StorageManager) AutotileResume() error {
	if s.retiler == nil {
		return fmt.Errorf("tasm: %w", ErrAutotileDisabled)
	}
	s.retiler.Resume()
	return nil
}

// AutotileKick synchronously drains all pending observations through the
// decision layer and applies the resulting re-tiles, returning how many
// were applied. The background loop does the same on its own clock; Kick
// exists for tests, benchmarks, and one-shot tools that need determinism.
func (s *StorageManager) AutotileKick(ctx context.Context) (int, error) {
	if s.retiler == nil {
		return 0, fmt.Errorf("tasm: %w", ErrAutotileDisabled)
	}
	return s.retiler.Kick(ctx)
}

// IngestContext stores frames as a new untiled video (one SOT per GOP).
// Cancellation aborts the encode within one frame's work and leaves no
// partial video behind.
func (s *StorageManager) IngestContext(ctx context.Context, video string, frames []*Frame, fps int) (IngestStats, error) {
	return s.m.IngestContext(ctx, video, frames, fps)
}

// IngestTiledContext stores frames with caller-chosen per-SOT layouts,
// the edge camera upload path. Frames of mixed size, a layout that does not
// cover the frame, or a layout count other than one per GOP fail with
// ErrInvalidRange before anything is encoded.
func (s *StorageManager) IngestTiledContext(ctx context.Context, video string, frames []*Frame, fps int, layouts []Layout) (IngestStats, error) {
	return s.m.IngestTiledContext(ctx, video, frames, fps, layouts)
}

// CreateLiveVideo opens an open-ended video in append mode: it starts
// empty and grows one GOP at a time via AppendGOPContext until SealVideo
// converts it to an ordinary batch video. pol (optional) bounds how
// much history the store keeps; expired SOTs age out through the same
// tombstone machinery re-tiling uses, so in-flight reads finish on
// their snapshots.
func (s *StorageManager) CreateLiveVideo(video string, w, h, fps int, pol *RetentionPolicy) error {
	return s.m.CreateLiveVideo(video, w, h, fps, pol)
}

// AppendGOPContext appends frames to a live video. Frames are chunked
// into SOTs of the configured GOP length; each completed SOT becomes
// visible to readers atomically at its manifest commit, so a crash
// mid-append loses at most the uncommitted tail, never a torn SOT.
// When the video's bounded commit queue is full the call fails fast
// with ErrIngestBackpressure and writes nothing. Expiry of ctx while
// waiting on the commit queue returns ctx's error (an already-ordered
// commit still completes).
func (s *StorageManager) AppendGOPContext(ctx context.Context, video string, frames []*Frame) (AppendStats, error) {
	return s.m.AppendGOPContext(ctx, video, frames)
}

// SealVideo converts a live video into an ordinary batch video:
// further appends fail with ErrVideoSealed, and tails that have caught
// up terminate cleanly instead of waiting for more commits. Sealing is
// one-way.
func (s *StorageManager) SealVideo(video string) error {
	return s.m.SealVideo(video)
}

// SetRetention replaces a live video's retention policy (nil clears
// it) and immediately trims whatever the new policy expires.
func (s *StorageManager) SetRetention(video string, pol *RetentionPolicy) (TrimReport, error) {
	return s.m.SetRetention(video, pol)
}

// TrimExpired applies a live video's retention policy now. Appends run
// it automatically; this is for operators reclaiming space on an idle
// stream.
func (s *StorageManager) TrimExpired(video string) (TrimReport, error) {
	return s.m.TrimExpired(video)
}

// Subscribe opens a live tail on video starting at frame from
// (clamped to the retention horizon): the cursor yields every frame
// committed at or after its watermark in order, exactly once, blocking
// in Next while it is caught up and waking as appends commit. On a
// sealed video the cursor drains the remaining frames and terminates
// cleanly, so replaying history and tailing new commits are the same
// operation. Cancel ctx or Close to stop; deleting the video cancels
// the subscription with ErrVideoDeleted.
func (s *StorageManager) Subscribe(ctx context.Context, video string, from int) (*SubscribeCursor, error) {
	return s.m.Subscribe(ctx, video, from)
}

// AddMetadata records an object detection produced during query processing
// (the paper's AddMetadata(video, frame, label, x1, y1, x2, y2)). Like
// AddDetections and MarkDetected it needs a stored video: a name the
// catalog does not hold is ErrVideoNotFound.
func (s *StorageManager) AddMetadata(video string, frameIdx int, label string, x1, y1, x2, y2 int) error {
	return s.m.AddMetadata(video, frameIdx, label, x1, y1, x2, y2)
}

// AddDetections records a batch of detections.
func (s *StorageManager) AddDetections(video string, ds []Detection) error {
	return s.m.AddDetections(video, ds)
}

// MarkDetected records that frames [from, to) of video have been fully
// processed by an object detector for label, so absence of detections
// there is definitive. The lazy tiling policy relies on this.
func (s *StorageManager) MarkDetected(video, label string, from, to int) error {
	return s.m.MarkDetected(video, label, from, to)
}

// ScanContext answers a query: it returns the pixel regions matching the
// query's label predicate within its time range, decoding only the tiles
// that contain them. With adaptive tiling enabled, the query feeds the
// background observer; re-tiling happens asynchronously, never on the
// query path. Cancellation or deadline expiry stops in-flight tile decodes
// within one frame's work, releases every read lease the request holds,
// and returns an error wrapping ctx.Err().
//
// A multi-video query ("FROM a,b") scans each video in turn and merges
// the results into one globally frame-ordered slice: regions sharing a
// frame number keep FROM-list order between videos and scan order
// within one — the same ordering the serving layer's streaming merge
// produces, so local and remote multi-video results are identical.
func (s *StorageManager) ScanContext(ctx context.Context, q Query) ([]RegionResult, ScanStats, error) {
	vids := q.VideoList()
	if len(vids) == 1 {
		return s.m.ScanContext(ctx, q)
	}
	var all []RegionResult
	var agg ScanStats
	for _, v := range vids {
		sq := q
		sq.Video, sq.Videos = v, nil
		rs, st, err := s.m.ScanContext(ctx, sq)
		agg.Add(st)
		if err != nil {
			return nil, agg, err
		}
		all = append(all, rs...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].Frame < all[j].Frame })
	return all, agg, nil
}

// ScanCursor starts a streaming Scan: pixel regions are yielded in frame
// order as each SOT's tiles decode, with bounded buffering for
// backpressure, instead of materializing every region up front. The
// caller must drain the cursor or Close it; either way all read leases
// are released by the time Next reports false (or Close returns).
// Streaming scans feed the adaptive-tiling observer exactly like blocking
// ones: every query path funnels through the same cursor construction.
//
// A local streaming cursor serves one video. Multi-video queries are
// merged above the engine — drain ScanContext, or scan through tasmd /
// tasm-router, whose serving layer merges per-video cursors into one
// frame-ordered stream — so a multi-video query here is rejected
// (wrapping ErrInvalidName) rather than silently scanning only the
// first video.
func (s *StorageManager) ScanCursor(ctx context.Context, q Query) (*Cursor, error) {
	if vids := q.VideoList(); len(vids) > 1 {
		return nil, fmt.Errorf("%w: a local streaming cursor serves one video, query names %d (drain ScanContext, or scan through tasmd/tasm-router)", tasmerr.ErrInvalidName, len(vids))
	}
	return s.m.ScanCursor(ctx, q)
}

// ScanSQLContext parses and executes a query in the evaluation's SELECT
// form (see ScanContext).
func (s *StorageManager) ScanSQLContext(ctx context.Context, sql string) ([]RegionResult, ScanStats, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, ScanStats{}, err
	}
	return s.ScanContext(ctx, q)
}

// ScanSQLCursor parses a SELECT query and starts a streaming Scan.
func (s *StorageManager) ScanSQLCursor(ctx context.Context, sql string) (*Cursor, error) {
	q, err := query.Parse(sql)
	if err != nil {
		return nil, err
	}
	return s.ScanCursor(ctx, q)
}

// DecodeFramesContext decodes and reassembles whole frames [from, to),
// regardless of tiling — the path object detectors run on. Cancellation
// stops in-flight decodes and releases the read leases.
func (s *StorageManager) DecodeFramesContext(ctx context.Context, video string, from, to int) ([]*Frame, ScanStats, error) {
	return s.m.DecodeFramesContext(ctx, video, from, to)
}

// DecodeFramesCursor streams whole reassembled frames in order as each
// SOT's tiles decode — the path a detector pipelines on, consuming frame
// k while frame k+GOP is still decoding. The caller must drain the
// cursor or Close it.
func (s *StorageManager) DecodeFramesCursor(ctx context.Context, video string, from, to int) (*FrameCursor, error) {
	return s.m.FrameCursor(ctx, video, from, to)
}

// Meta returns a stored video's catalog record (frame count, SOTs, current
// layouts).
func (s *StorageManager) Meta(video string) (VideoMeta, error) { return s.m.Meta(video) }

// Videos lists stored video names.
func (s *StorageManager) Videos() ([]string, error) { return s.m.Store().ListVideos() }

// VideoBytes returns a video's total storage footprint in bytes.
func (s *StorageManager) VideoBytes(video string) (int64, error) { return s.m.VideoBytes(video) }

// DeleteVideo removes a stored video: its tiles, its semantic-index
// records, and any cached decodes. A video later ingested under the same
// name starts completely fresh.
func (s *StorageManager) DeleteVideo(video string) error { return s.m.DeleteVideo(video) }

// CacheStats reports the decoded-tile cache's cumulative counters (all
// zero unless WithCacheBudget enabled the cache).
type CacheStats = tilecache.Stats

// CacheStats snapshots the decoded-tile cache counters.
func (s *StorageManager) CacheStats() CacheStats { return s.m.CacheStats() }

// GCReport describes what one storage GC pass reclaimed.
type GCReport = tilestore.GCReport

// FsckReport summarizes a store consistency check.
type FsckReport = tilestore.FsckReport

// GC reclaims dead storage: SOT version directories superseded by a
// re-tile, staging debris from interrupted writes, and orphan directories
// left by a crashed ingest. Versions still pinned by in-flight reads are
// reported as deferred and reclaimed when those reads finish.
func (s *StorageManager) GC() (GCReport, error) { return s.m.Store().GC() }

// FSCK verifies every stored video's manifest against the tile files on
// disk (existence, decodability, frame counts, dimensions) and reports
// orphan directories that GC would reclaim. It never repairs.
func (s *StorageManager) FSCK() (FsckReport, error) { return s.m.Store().FSCK() }

// RepairReport describes what one RepairStoreContext pass changed.
type RepairReport = tilestore.RepairReport

// RepairStoreContext validates every SOT's live tiles against the checksums
// sealed into the catalog, quarantines corrupt version directories into
// the tombstone area, and falls back to the newest earlier version that
// still verifies, dropping the repaired videos' cached decodes. SOTs with no intact fallback stay referenced (and keep
// failing FSCK) so data loss stays visible. This is the repair half of
// `tasmctl fsck -repair`.
//
// ctx is checked before the pass starts (the pass itself is a single
// store-wide critical section).
func (s *StorageManager) RepairStoreContext(ctx context.Context) (RepairReport, error) {
	if err := ctx.Err(); err != nil {
		return RepairReport{}, err
	}
	return s.m.RepairStore()
}

// StoreMetrics is a snapshot of the store's durability counters.
type StoreMetrics = tilestore.Metrics

// StoreMetrics snapshots the tile store's durability counters: tiles
// that failed integrity verification since open, and recovery sweeps
// run at open.
func (s *StorageManager) StoreMetrics() StoreMetrics { return s.m.Store().Metrics() }

// Labels returns the distinct labels indexed for a video.
func (s *StorageManager) Labels(video string) ([]string, error) { return s.m.Index().Labels(video) }

// LookupDetections returns indexed detections for (video, label) within
// [fromFrame, toFrame).
func (s *StorageManager) LookupDetections(video, label string, fromFrame, toFrame int) ([]Detection, error) {
	return s.m.Index().Lookup(video, label, fromFrame, toFrame)
}

// RetileSOTContext re-encodes one SOT with the given layout (one that does
// not cover the video's frame fails with ErrInvalidRange). Cancellation
// aborts the decode/re-encode with nothing committed; once the atomic tile
// swap begins it completes.
func (s *StorageManager) RetileSOTContext(ctx context.Context, video string, sotID int, l Layout) (RetileStats, error) {
	return s.m.RetileSOTContext(ctx, video, sotID, l)
}

// DesignLayout partitions a SOT around the indexed boxes of the given
// labels (fine- or coarse-grained per the manager's configuration),
// returning the untiled layout when tiling cannot help.
func (s *StorageManager) DesignLayout(video string, sotID int, labels []string) (Layout, error) {
	meta, err := s.m.Meta(video)
	if err != nil {
		return Layout{}, err
	}
	sot, err := meta.SOTByID(sotID)
	if err != nil {
		return Layout{}, err
	}
	return policy.DesignLayout(s.m, video, sot, labels, s.m.Config().Granularity)
}

// applyPlan executes a tiling policy's plan and returns the number of SOTs
// re-tiled; err is the planner's own failure, passed through.
func applyPlan(ctx context.Context, m *core.Manager, actions []policy.Action, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	if _, err := policy.Apply(ctx, m, actions); err != nil {
		return 0, err
	}
	return len(actions), nil
}

// PlanKQKOContext computes the known-queries/known-objects plan for a
// workload and applies it (paper §4.2). It returns the number of SOTs
// re-tiled; cancellation stops between (or within) re-tiles, leaving
// completed ones committed.
func (s *StorageManager) PlanKQKOContext(ctx context.Context, video string, workload []Query) (int, error) {
	cfg := s.m.Config()
	k := policy.KQKO{Granularity: cfg.Granularity, Alpha: cfg.Alpha}
	actions, err := k.Plan(s.m, video, workload)
	return applyPlan(ctx, s.m, actions, err)
}

// PretileAllObjectsContext tiles every SOT around all indexed objects (the
// paper's "all objects" baseline). It returns the number of SOTs re-tiled.
func (s *StorageManager) PretileAllObjectsContext(ctx context.Context, video string) (int, error) {
	actions, err := policy.AllObjects(s.m, video, s.m.Config().Granularity)
	return applyPlan(ctx, s.m, actions, err)
}

// Detected reports whether frames [from, to) of video have been fully
// processed by a detector for label (see MarkDetected).
func (s *StorageManager) Detected(video, label string, from, to int) (bool, error) {
	return s.m.Index().DetectedAll(video, label, from, to)
}

// LazyTiler drives the paper's lazy-detection tiling strategy (§4.3): the
// query classes OQ are known upfront, and each SOT is tiled with KQKO as
// soon as the semantic index holds complete locations for OQ in its range.
type LazyTiler struct {
	p *policy.LazyKnownQueries
	m *core.Manager
}

// NewLazyTiler returns a lazy tiler for the known query classes.
func (s *StorageManager) NewLazyTiler(queryClasses []string) *LazyTiler {
	p := policy.NewLazyKnownQueries(queryClasses)
	cfg := s.m.Config()
	p.Granularity = cfg.Granularity
	p.Alpha = cfg.Alpha
	return &LazyTiler{p: p, m: s.m}
}

// ObserveQueryContext is called after a query's detections have been
// indexed; it re-tiles any SOTs whose object locations have become fully
// known and returns how many were re-tiled.
func (lt *LazyTiler) ObserveQueryContext(ctx context.Context, q Query) (int, error) {
	actions, err := lt.p.ObserveQuery(lt.m, q)
	return applyPlan(ctx, lt.m, actions, err)
}

// UniformLayout builds an aligned rows×cols layout for a stored video.
func (s *StorageManager) UniformLayout(video string, rows, cols int) (Layout, error) {
	meta, err := s.m.Meta(video)
	if err != nil {
		return Layout{}, err
	}
	cfg := s.m.Config()
	return layout.Uniform(rows, cols, cfg.Constraints(meta.W, meta.H))
}

// ExportStitchedContext homomorphically stitches one SOT's tiles into a
// single serialized video stream without transcoding.
func (s *StorageManager) ExportStitchedContext(ctx context.Context, video string, sotID int) ([]byte, error) {
	st, err := s.m.StitchSOTContext(ctx, video, sotID)
	if err != nil {
		return nil, err
	}
	return st.Bytes(), nil
}

// DecodeStitched decodes a stream produced by ExportStitchedContext back into
// full frames.
func DecodeStitched(data []byte) ([]*Frame, error) {
	st, err := container.ParseStitched(data)
	if err != nil {
		return nil, err
	}
	frames, _, err := st.DecodeRange(0, st.FrameCount())
	return frames, err
}
