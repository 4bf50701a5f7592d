// Package core implements the TASM storage manager (paper §3): the bottom
// layer of a VDBMS that stores videos as independently decodable tiles,
// maintains the semantic index, answers Scan(video, L, T) requests by
// decoding only the tiles containing the requested objects, and re-tiles
// sequences of tiles (SOTs) when a policy decides a new layout pays off.
package core

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/live"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tasmerr"
	"github.com/tasm-repro/tasm/internal/tilecache"
	"github.com/tasm-repro/tasm/internal/tilestore"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

// Config bundles the storage manager's tuning parameters.
type Config struct {
	// Codec parameters used for ingest and re-encoding.
	Codec vcodec.Params
	// Alpha is the do-not-tile threshold on P(L)/P(ω) (paper §3.4.4).
	Alpha float64
	// Eta scales the re-encode cost in the regret policy's retile rule
	// δ > η·R (paper §4.4).
	Eta float64
	// Model estimates decode and encode costs.
	Model costmodel.Model
	// Granularity selects fine or coarse non-uniform layouts.
	Granularity layout.Granularity
	// Align, MinTileW, MinTileH are the codec's layout constraints.
	Align, MinTileW, MinTileH int
	// Parallelism bounds concurrent tile decodes within one Scan or
	// DecodeFrames call. Decode jobs fan out across every (SOT, tile)
	// pair the request touches, so a query spanning many SOTs scales even
	// when each SOT needs a single tile. The paper's prototype "does not
	// parallelize encoding or decoding multiple tiles at once", so the
	// default is 1; higher values are an extension this reproduction adds.
	Parallelism int
	// CacheBudget bounds the in-memory cache of decoded tile GOPs in
	// bytes. 0 disables caching (every scan decodes from disk, the
	// paper's behavior).
	CacheBudget int64
	// AppendQueueDepth bounds pending live-append commits per video;
	// a full queue rejects appends with tasmerr.ErrIngestBackpressure.
	// <= 0 selects live.DefaultQueueDepth.
	AppendQueueDepth int
	// ForceOpen skips the store's cross-process ownership lease — the
	// tasmctl -force escape hatch for recovering a directory whose lock
	// holder is unreachable. Unsafe against a live owner: both processes
	// then serve from caches the other invalidates.
	ForceOpen bool
}

// DefaultConfig returns the configuration used throughout the evaluation.
func DefaultConfig() Config {
	return Config{
		Codec:       vcodec.DefaultParams(),
		Alpha:       costmodel.DefaultAlpha,
		Eta:         1.0,
		Model:       costmodel.Default(),
		Granularity: layout.Fine,
		Align:       16,
		MinTileW:    64,
		MinTileH:    64,
		Parallelism: 1,
	}
}

// Constraints returns the layout constraints for a w×h video.
func (c Config) Constraints(w, h int) layout.Constraints {
	return layout.Constraints{FrameW: w, FrameH: h, Align: c.Align, MinWidth: c.MinTileW, MinHeight: c.MinTileH}
}

// Manager is the tile-aware storage manager. Reads (ScanContext,
// DecodeFramesContext, StitchSOTContext, VideoBytes) pin the SOT versions
// of their catalog snapshot with store read leases, so they run fully
// concurrent with RetileSOTContext: the store keeps a superseded version's
// tile files on disk until the last lease on it drops (MVCC; see tilestore).
type Manager struct {
	cfg   Config
	store *tilestore.Store
	index *semindex.Index
	cache *tilecache.Cache // nil when Config.CacheBudget <= 0

	// retileMu serializes RetileSOTContext per video (map[string]*sync.Mutex):
	// concurrent retiles of one video would base their re-encodes on each
	// other's uncommitted state. Readers never take these locks.
	retileMu sync.Map

	// planMu makes DeleteVideo's two steps (index, then store) one event
	// for a scan's planning phase (snapshot, then index lookup), held
	// shared: without it a scan could take its lease on the still-stored
	// video and then read the already-emptied index — an empty answer
	// for a video that was never re-ingested. Decoding runs outside it.
	planMu sync.RWMutex

	// flights deduplicates concurrent decodes of the same (SOT, tile) when
	// the decoded-tile cache is enabled: N scans of one region pay one
	// disk decode.
	flights flightGroup

	// observer, when installed via SetQueryObserver, receives every
	// query-path request and informs cache admission (see observer.go).
	observer QueryObserver

	// hub wakes /v1/subscribe tails as live-append commits land, and
	// ingest is the bounded per-video commit queue behind AppendGOPContext
	// (see internal/live and live.go in this package).
	hub    *live.Hub
	ingest *live.Ingestor
}

// Open creates or opens a storage manager rooted at dir (tiles under
// dir/tiles, semantic index log at dir/semindex.log). It takes the store's
// cross-process ownership lease: a second Open of the same directory —
// tasmctl -dir against a live tasmd, say — fails fast with
// tasmerr.ErrStoreLocked instead of reading stale caches. Config.ForceOpen
// skips the lease for recovery.
func Open(dir string, cfg Config) (*Manager, error) {
	var sopts []tilestore.OpenOption
	if !cfg.ForceOpen {
		sopts = append(sopts, tilestore.WithLock())
	}
	st, err := tilestore.Open(filepath.Join(dir, "tiles"), sopts...)
	if err != nil {
		return nil, err
	}
	ix, err := semindex.Open(filepath.Join(dir, "semindex.log"))
	if err != nil {
		st.Close()
		return nil, err
	}
	return &Manager{
		cfg: cfg, store: st, index: ix, cache: tilecache.New(cfg.CacheBudget),
		hub: live.NewHub(), ingest: live.NewIngestor(cfg.AppendQueueDepth),
	}, nil
}

// Close closes the semantic index and releases the store's ownership
// lease.
func (m *Manager) Close() error {
	err := m.index.Close()
	if serr := m.store.Close(); err == nil {
		err = serr
	}
	return err
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Index exposes the semantic index.
func (m *Manager) Index() *semindex.Index { return m.index }

// Store exposes the physical tile store.
func (m *Manager) Store() *tilestore.Store { return m.store }

// Meta returns the catalog record for a video.
func (m *Manager) Meta(video string) (tilestore.VideoMeta, error) { return m.store.Meta(video) }

// IngestStats reports the work done by an ingest.
type IngestStats struct {
	EncodeWall time.Duration `json:"encode_wall_ns"`
	Bytes      int64         `json:"bytes"`
	SOTs       int           `json:"sots"`
}

// IngestContext stores frames as an untiled video: one SOT per GOP, each
// with the 1×1 layout ω, so later re-tiling of any SOT is independent of
// the others. Cancellation aborts the encode within one frame's work and
// leaves no partial video behind.
func (m *Manager) IngestContext(ctx context.Context, video string, frames []*frame.Frame, fps int) (IngestStats, error) {
	n := len(frames)
	if n == 0 {
		return IngestStats{}, fmt.Errorf("core: %w", tasmerr.ErrNoFrames)
	}
	gop := m.cfg.Codec.GOPLength
	if gop <= 0 {
		gop = vcodec.DefaultParams().GOPLength
	}
	w, h := frames[0].W, frames[0].H
	layouts := make([]layout.Layout, 0, (n+gop-1)/gop)
	for from := 0; from < n; from += gop {
		layouts = append(layouts, layout.Single(w, h))
	}
	return m.IngestTiledContext(ctx, video, frames, fps, layouts)
}

// IngestTiledContext stores frames with a caller-chosen layout per SOT
// (SOTs are GOP-length chunks). This is the path edge cameras use to upload
// pre-tiled video (paper §4.3, "Edge tiling"). Every frame's size and every
// layout is checked before any encode, so a malformed request fails with
// tasmerr.ErrInvalidRange having done no work. The encode — the expensive
// phase — checks the context every frame; the final catalog commit is
// atomic and is not interrupted once entered.
func (m *Manager) IngestTiledContext(ctx context.Context, video string, frames []*frame.Frame, fps int, layouts []layout.Layout) (IngestStats, error) {
	n := len(frames)
	if n == 0 {
		return IngestStats{}, fmt.Errorf("core: %w", tasmerr.ErrNoFrames)
	}
	w, h := frames[0].W, frames[0].H
	gop := m.cfg.Codec.GOPLength
	if gop <= 0 {
		gop = vcodec.DefaultParams().GOPLength
	}
	numSOTs := (n + gop - 1) / gop
	if len(layouts) != numSOTs {
		return IngestStats{}, fmt.Errorf("core: ingest %q: %w: %d layouts for %d SOTs", video, tasmerr.ErrInvalidRange, len(layouts), numSOTs)
	}
	for i, f := range frames {
		if f.W != w || f.H != h {
			return IngestStats{}, fmt.Errorf("core: ingest %q: %w: frame %d is %dx%d, frame 0 is %dx%d",
				video, tasmerr.ErrInvalidRange, i, f.W, f.H, w, h)
		}
	}
	cons := m.cfg.Constraints(w, h)
	for si, l := range layouts {
		if err := l.Validate(cons); err != nil {
			return IngestStats{}, fmt.Errorf("core: ingest %q: %w: SOT %d: %w", video, tasmerr.ErrInvalidRange, si, err)
		}
	}
	meta := tilestore.VideoMeta{
		Name: video, W: w, H: h, FPS: fps, GOPLength: gop, FrameCount: n,
	}
	var sotTiles [][]*container.Video
	start := time.Now()
	for si, l := range layouts {
		from := si * gop
		to := min(from+gop, n)
		tiles, err := container.EncodeTiledContext(ctx, frames[from:to], l, fps, m.cfg.Codec)
		if err != nil {
			return IngestStats{}, fmt.Errorf("core: SOT %d: %w", si, err)
		}
		meta.SOTs = append(meta.SOTs, tilestore.SOTMeta{ID: si, From: from, To: to, L: l})
		sotTiles = append(sotTiles, tiles)
	}
	encodeWall := time.Since(start)
	if err := m.store.CreateVideo(meta, sotTiles); err != nil {
		return IngestStats{}, err
	}
	bytes, err := m.store.VideoBytes(video)
	if err != nil {
		return IngestStats{}, err
	}
	// A fresh ingest starts with a clean observation slate — relevant when
	// a name is reused after DeleteVideo (belt and braces; deletion already
	// forgets) or when an observer was installed over a prior generation.
	if m.observer != nil {
		m.observer.ForgetVideo(video)
	}
	return IngestStats{EncodeWall: encodeWall, Bytes: bytes, SOTs: numSOTs}, nil
}

// AddMetadata records an object detection, the paper's
// AddMetadata(video, frame, label, x1, y1, x2, y2) call.
func (m *Manager) AddMetadata(video string, frameIdx int, label string, x1, y1, x2, y2 int) error {
	return m.AddDetections(video, []semindex.Detection{{
		Frame: frameIdx, Label: label, Box: geom.R(x1, y1, x2, y2),
	}})
}

// AddDetections records a batch of detections.
func (m *Manager) AddDetections(video string, ds []semindex.Detection) error {
	return m.indexWrite(video, func() error { return m.index.AddBatch(video, ds) })
}

// MarkDetected records that frames [from, to) of video were fully
// processed by a detector for label.
func (m *Manager) MarkDetected(video, label string, from, to int) error {
	return m.indexWrite(video, func() error { return m.index.MarkDetected(video, label, from, to) })
}

// indexWrite runs a semantic-index write for a video the catalog holds;
// any other name is tasmerr.ErrVideoNotFound. Index rows for a name
// with no video could not be removed (DeleteVideo refuses the name) and
// would be inherited by the next ingest under it. planMu, held shared,
// orders the check-then-write against DeleteVideo's index-then-store
// commit.
func (m *Manager) indexWrite(video string, write func() error) error {
	m.planMu.RLock()
	defer m.planMu.RUnlock()
	if _, err := m.store.Meta(video); err != nil {
		return err
	}
	return write()
}

// RegionResult is one retrieved pixel region: the requested rectangle
// (snapped outward to even coordinates for 4:2:0 alignment) and its decoded
// pixels.
type RegionResult struct {
	Frame  int
	Region geom.Rect
	Pixels *frame.Frame
}

// ScanStats reports the work a Scan performed. DecodeWall is the measured
// decode time — the quantity every figure in the paper's evaluation plots —
// and covers only draining the tile-decode pool; cropping and blitting the
// decoded tiles into result pixels is reported separately as AssembleWall,
// so the paper's metric is not inflated by assembly.
type ScanStats struct {
	IndexWall       time.Duration `json:"index_wall_ns"`
	DecodeWall      time.Duration `json:"decode_wall_ns"`
	AssembleWall    time.Duration `json:"assemble_wall_ns"`
	PixelsDecoded   int64         `json:"pixels_decoded"`
	TilesDecoded    int           `json:"tiles_decoded"`
	FramesDecoded   int64         `json:"frames_decoded"`
	RegionsReturned int           `json:"regions_returned"`
	SOTsTouched     int           `json:"sots_touched"`
	// CacheHits counts (SOT, tile) decode requests served from the
	// decoded-tile cache; CacheMisses counts the ones that had to decode
	// from disk; CacheEvictions counts entries evicted to make room for
	// this request's decodes. All zero when the cache is disabled (then
	// every request is a disk decode, but not a "miss" of a cache that
	// does not exist).
	CacheHits      int `json:"cache_hits"`
	CacheMisses    int `json:"cache_misses"`
	CacheEvictions int `json:"cache_evictions"`
}

// Add folds o into s. Every field is additive (walls sum sequential
// per-video or per-chunk work), so this is the one place merged,
// multi-video and live-tail stats are summed: a new counter is added here
// once (TestScanStatsAddCoversEveryField fails until it is).
func (s *ScanStats) Add(o ScanStats) {
	s.IndexWall += o.IndexWall
	s.DecodeWall += o.DecodeWall
	s.AssembleWall += o.AssembleWall
	s.PixelsDecoded += o.PixelsDecoded
	s.TilesDecoded += o.TilesDecoded
	s.FramesDecoded += o.FramesDecoded
	s.RegionsReturned += o.RegionsReturned
	s.SOTsTouched += o.SOTsTouched
	s.CacheHits += o.CacheHits
	s.CacheMisses += o.CacheMisses
	s.CacheEvictions += o.CacheEvictions
}

// clampRange applies the storage manager's shared frame-range semantics,
// used identically by ScanContext, DecodeFramesContext, and QueryDemand:
// first clamp the request to the video (from < 0 becomes 0; to < 0 — the
// "to the end" sentinel — or to > frameCount becomes frameCount), then
// validate — a range that is empty or inverted after clamping is an error,
// never a silent empty result.
func clampRange(video string, from, to, frameCount int) (int, int, error) {
	cf, ct := from, to
	if cf < 0 {
		cf = 0
	}
	if ct < 0 || ct > frameCount {
		ct = frameCount
	}
	if cf >= ct {
		return 0, 0, fmt.Errorf("core: video %q: %w: empty frame range [%d,%d) after clamping to %d frames", video, tasmerr.ErrInvalidRange, from, to, frameCount)
	}
	return cf, ct, nil
}

// unboundedWindow admits every SOT to the decode pipeline at once — the
// materializing wrappers' setting, preserving the pre-cursor batch
// behavior of flattening all (SOT, tile) jobs across the worker pool.
const unboundedWindow = 1 << 30

// ScanContext implements the paper's Scan(video, L, T) access method: it
// consults the semantic index for the boxes matching the label predicate
// within the time range, determines which tiles contain them, decodes only
// those tiles, and returns the matching pixel regions. Cancellation or
// deadline expiry stops in-flight tile decodes within one frame's work,
// releases the request's read leases, and returns an error wrapping
// ctx.Err().
//
// The whole request runs under a store snapshot lease: the tile files of
// every SOT version the catalog snapshot names stay on disk until the scan
// finishes, even if a concurrent re-tile swaps the live layout. The
// request's frame range follows the clamp-then-validate semantics of
// clampRange. Results are produced by draining a ScanCursor (with an
// unbounded decode-ahead window, since everything is materialized
// anyway), so the streaming and materializing paths cannot diverge;
// order is deterministic — SOTs ascending, frame offsets ascending
// within each SOT.
func (m *Manager) ScanContext(ctx context.Context, q query.Query) ([]RegionResult, ScanStats, error) {
	c, err := m.scanCursor(ctx, q, unboundedWindow)
	if err != nil {
		return nil, ScanStats{}, err
	}
	var out []RegionResult
	for c.Next() {
		out = append(out, c.Result())
	}
	if err := c.Err(); err != nil {
		return nil, c.Stats(), err
	}
	return out, c.Stats(), nil
}

// sotPlan is the decode plan for one SOT of a Scan: the regions requested
// per frame offset, the sorted offsets, and the tiles that must be decoded
// (each through its last needed offset).
type sotPlan struct {
	sot  tilestore.SOTMeta
	qf   costmodel.QueryFrames
	offs []int // sorted frame offsets with requests
	tids []int // sorted tile indices needed
	need []int // per tids entry: frames to decode from the SOT keyframe
	// decoded[k] receives tile tids[k]'s frames and results[k] that
	// decode's outcome; slots are written by exactly one decode job each,
	// so no lock is needed.
	decoded [][]*frame.Frame
	results []tileDecodeResult
}

func planSOT(sot tilestore.SOTMeta, qf costmodel.QueryFrames) *sotPlan {
	p := &sotPlan{sot: sot, qf: qf}
	lastNeeded := map[int]int{}
	for off, rs := range qf {
		p.offs = append(p.offs, off)
		for _, r := range rs {
			for _, ti := range sot.L.TilesIntersecting(r) {
				if cur, ok := lastNeeded[ti]; !ok || off > cur {
					lastNeeded[ti] = off
				}
			}
		}
	}
	sort.Ints(p.offs)
	for ti := range lastNeeded {
		p.tids = append(p.tids, ti)
	}
	sort.Ints(p.tids)
	p.need = make([]int, len(p.tids))
	for k, ti := range p.tids {
		p.need[k] = lastNeeded[ti] + 1
	}
	p.decoded = make([][]*frame.Frame, len(p.tids))
	p.results = make([]tileDecodeResult, len(p.tids))
	return p
}

// foldDecodeStats folds a successful decode job's counters into st;
// errored jobs contribute nothing (their error is surfaced separately).
// Shared by the batch and streaming paths so their accounting cannot
// diverge.
func (m *Manager) foldDecodeStats(st *ScanStats, r tileDecodeResult) {
	if r.err != nil {
		return
	}
	if r.hit {
		st.CacheHits++
	} else {
		if m.cache != nil {
			st.CacheMisses++
		}
		st.TilesDecoded++
	}
	st.CacheEvictions += r.evicted
	st.FramesDecoded += r.ds.FramesDecoded
	st.PixelsDecoded += r.ds.PixelsDecoded
}

// runJobs invokes fn(0..n-1) with at most workers goroutines, stopping
// the dispatch of further jobs once ctx is done (fn itself is expected to
// observe ctx for prompt in-job cancellation). fn must only write state
// private to its index.
func runJobs(ctx context.Context, n, workers int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// tileDecodeResult carries one decode job's outcome.
type tileDecodeResult struct {
	ds      vcodec.DecodeStats
	hit     bool
	evicted int
	err     error
}

// decodeTilePrefix returns the first n decoded frames of one tile of a
// SOT, serving from the decoded-tile cache when a long-enough prefix is
// cached. The tile is read through the caller's lease, pinning the exact
// version the catalog snapshot names. SOTs are single GOPs, so every
// decode starts at the frame-0 keyframe and a cached prefix is reusable
// by any shorter request. The returned frames are shared with the cache
// and must not be mutated.
//
// When the cache is enabled, concurrent requests for the same key are
// singleflighted: one leader decodes from disk, the rest wait and share
// its frames (reported as cache hits — the frames were served from
// memory, not re-decoded). A waiter whose own ctx expires stops waiting;
// a leader's failure is never shared, the waiters decode for themselves.
func (m *Manager) decodeTilePrefix(ctx context.Context, video string, lease *tilestore.Lease, sot tilestore.SOTMeta, ti, n int) ([]*frame.Frame, tileDecodeResult) {
	var r tileDecodeResult
	if err := ctx.Err(); err != nil {
		r.err = fmt.Errorf("core: %s SOT %d tile %d: %w", video, sot.ID, ti, err)
		return nil, r
	}
	if m.cache == nil {
		return m.decodeTileFromDisk(ctx, video, lease, sot, ti, n, tilecache.Key{})
	}
	k := tilecache.Key{
		Video: video, SOT: sot.ID, Tile: ti,
		Retiles: sot.Retiles,
		// Capture the generation before touching disk: if the SOT is
		// invalidated while we decode, our Put lands under the stale
		// generation and is never served.
		Gen: m.cache.Gen(video, sot.ID),
	}
	// A budget-capped request never leads a singleflight: its admission
	// decision (possibly "insert nothing") would bind every unbudgeted
	// waiter sharing the decode, suppressing caching of exactly the
	// working set the budget exists to protect. It still reads Get hits
	// above and still Puts within its own budget; it just decodes
	// privately.
	if hasCacheBudget(ctx) {
		if fs, ok := m.cache.Get(k, n); ok {
			r.hit = true
			return fs, r
		}
		return m.decodeTileFromDisk(ctx, video, lease, sot, ti, n, k)
	}
	for {
		if fs, ok := m.cache.Get(k, n); ok {
			r.hit = true
			return fs, r
		}
		f, leader := m.flights.join(k, n)
		if leader {
			// The previous leader may have Put and deregistered between
			// the miss above and this join (it Puts before it finishes,
			// so its frames are visible by now): look again before
			// decoding the same tile a second time.
			if fs, ok := m.cache.Peek(k, n); ok {
				m.flights.finish(k, f, fs, nil)
				r.hit = true
				return fs, r
			}
			frames, r := m.decodeTileFromDisk(ctx, video, lease, sot, ti, n, k)
			m.flights.finish(k, f, frames, r.err)
			return frames, r
		}
		select {
		case <-f.done:
			if f.err == nil && len(f.frames) >= n {
				r.hit = true
				return f.frames[:n:n], r
			}
			// The leader failed (possibly on its own cancelled context) or
			// delivered a shorter prefix than promised. Loop: re-check the
			// cache and re-join, so the waiters elect exactly one new
			// leader per round instead of stampeding the disk together.
			// Each round's leader returns (success or its own error), so
			// every caller terminates within len(waiters) rounds.
			if err := ctx.Err(); err != nil {
				r.err = fmt.Errorf("core: %s SOT %d tile %d: %w", video, sot.ID, ti, err)
				return nil, r
			}
		case <-ctx.Done():
			r.err = fmt.Errorf("core: %s SOT %d tile %d: %w", video, sot.ID, ti, ctx.Err())
			return nil, r
		}
	}
}

// decodeTileFromDisk reads and decodes the tile prefix through the lease,
// populating the cache when enabled (k is ignored otherwise).
func (m *Manager) decodeTileFromDisk(ctx context.Context, video string, lease *tilestore.Lease, sot tilestore.SOTMeta, ti, n int, k tilecache.Key) ([]*frame.Frame, tileDecodeResult) {
	var r tileDecodeResult
	tv, err := lease.ReadTile(sot, ti)
	if err != nil {
		r.err = err
		return nil, r
	}
	frames, ds, err := tv.DecodeRangeContext(ctx, 0, n)
	if err != nil {
		r.err = fmt.Errorf("core: %s SOT %d tile %d: %w", video, sot.ID, ti, err)
		return nil, r
	}
	r.ds = ds
	// Admission is gated twice: by the observed workload (with an observer
	// installed, ranges never queried twice do not earn cache residency —
	// see admitObserved) and by the request's cache budget (when one rides
	// the context): a capped request still reads the cache but stops
	// inserting once its budget is spent, so a one-off sweep cannot
	// evict every other request's working set.
	if m.cache != nil && m.admitObserved(ctx, video, sot) && admitCacheBytes(ctx, framesBytes(frames)) {
		r.evicted = m.cache.Put(k, frames)
	}
	return frames, r
}

// assembleSOT crops and blits the requested regions of one SOT from its
// decoded tiles, in ascending frame order.
func assembleSOT(p *sotPlan) []RegionResult {
	frameRect := geom.R(0, 0, p.sot.L.Width(), p.sot.L.Height())
	var out []RegionResult
	for _, off := range p.offs {
		for _, r := range p.qf[off] {
			region := snapEven(r).Clamp(frameRect)
			if region.Empty() {
				continue
			}
			pix := frame.New(region.Width(), region.Height())
			for k, ti := range p.tids {
				frames := p.decoded[k]
				tileRect := p.sot.L.TileRectByIndex(ti)
				inter := region.Intersect(tileRect)
				if inter.Empty() || off >= len(frames) {
					continue
				}
				crop := frames[off].Crop(inter.Translate(-tileRect.X0, -tileRect.Y0))
				pix.Blit(crop, inter.X0-region.X0, inter.Y0-region.Y0)
			}
			out = append(out, RegionResult{Frame: p.sot.From + off, Region: region, Pixels: pix})
		}
	}
	return out
}

// regionsForQuery evaluates the label predicate against the semantic index,
// returning the requested pixel regions per frame.
func (m *Manager) regionsForQuery(q query.Query, from, to int) (map[int][]geom.Rect, time.Duration, error) {
	start := time.Now()
	byLabelFrame := map[string]map[int][]geom.Rect{}
	for _, label := range q.Pred.Labels() {
		entries, err := m.index.Lookup(q.Video, label, from, to)
		if err != nil {
			return nil, 0, err
		}
		perFrame := map[int][]geom.Rect{}
		for _, e := range entries {
			perFrame[e.Frame] = append(perFrame[e.Frame], e.Box)
		}
		byLabelFrame[label] = perFrame
	}
	regions := map[int][]geom.Rect{}
	for f := from; f < to; f++ {
		boxes := map[string][]geom.Rect{}
		any := false
		for label, perFrame := range byLabelFrame {
			if bs := perFrame[f]; len(bs) > 0 {
				boxes[label] = bs
				any = true
			}
		}
		if !any {
			continue
		}
		if rs := q.Pred.Regions(boxes); len(rs) > 0 {
			regions[f] = rs
		}
	}
	return regions, time.Since(start), nil
}

func snapEven(r geom.Rect) geom.Rect {
	r.X0 &^= 1
	r.Y0 &^= 1
	if r.X1%2 != 0 {
		r.X1++
	}
	if r.Y1%2 != 0 {
		r.Y1++
	}
	return r
}

// QueryDemand returns, per touched SOT, the regions a query requests at
// each frame offset — the input to the cost model's what-if analysis. No
// decoding is performed.
func (m *Manager) QueryDemand(q query.Query) (map[int]costmodel.QueryFrames, map[int]tilestore.SOTMeta, error) {
	meta, err := m.store.Meta(q.Video)
	if err != nil {
		return nil, nil, err
	}
	from, to, err := clampRange(q.Video, q.From, q.To, meta.FrameCount)
	if err != nil {
		// The what-if analysis replays recorded workloads; a query whose
		// range has since become degenerate (e.g. the video was truncated)
		// simply contributes no demand rather than aborting the whole planning
		// pass — unlike ScanContext/DecodeFramesContext, which reject it.
		return map[int]costmodel.QueryFrames{}, map[int]tilestore.SOTMeta{}, nil
	}
	regions, _, err := m.regionsForQuery(q, from, to)
	if err != nil {
		return nil, nil, err
	}
	demands := map[int]costmodel.QueryFrames{}
	sots := map[int]tilestore.SOTMeta{}
	for _, sot := range meta.SOTsInRange(from, to) {
		qf := costmodel.QueryFrames{}
		for f := max(from, sot.From); f < min(to, sot.To); f++ {
			if rs := regions[f]; len(rs) > 0 {
				qf[f-sot.From] = rs
			}
		}
		if len(qf) > 0 {
			demands[sot.ID] = qf
			sots[sot.ID] = sot
		}
	}
	return demands, sots, nil
}

// DecodeFramesContext decodes and reassembles full frames [from, to),
// regardless of layout. This is the path detection runs on (a detector
// needs whole frames). Tile decodes across all touched SOTs share the scan
// pipeline: they are served from the decoded-tile cache when possible and
// fan out over Config.Parallelism workers. Like ScanContext, the request
// runs under a store snapshot lease, applies the clamp-then-validate range
// semantics of clampRange, and is a thin wrapper draining a FrameCursor
// (unbounded decode-ahead window), so cancellation stops in-flight decodes
// promptly and releases the read leases.
func (m *Manager) DecodeFramesContext(ctx context.Context, video string, from, to int) ([]*frame.Frame, ScanStats, error) {
	c, err := m.frameCursor(ctx, video, from, to, unboundedWindow)
	if err != nil {
		return nil, ScanStats{}, err
	}
	var out []*frame.Frame
	for c.Next() {
		out = append(out, c.Result().Pixels)
	}
	if err := c.Err(); err != nil {
		return nil, c.Stats(), err
	}
	return out, c.Stats(), nil
}

// dfJob is one (SOT, tile) decode of a whole-frame request.
type dfJob struct {
	sot    tilestore.SOTMeta
	ti     int
	lo, hi int // frame range within the SOT
	frames []*frame.Frame
	res    tileDecodeResult
}

// planFrameJobs builds the per-SOT decode jobs of a whole-frame request:
// one job per (SOT, tile), grouped by SOT so assembly never depends on a
// positional cursor.
func planFrameJobs(sots []tilestore.SOTMeta, from, to int) [][]*dfJob {
	sotJobs := make([][]*dfJob, len(sots))
	for si, sot := range sots {
		lo, hi := max(from, sot.From)-sot.From, min(to, sot.To)-sot.From
		for ti := 0; ti < sot.L.NumTiles(); ti++ {
			sotJobs[si] = append(sotJobs[si], &dfJob{sot: sot, ti: ti, lo: lo, hi: hi})
		}
	}
	return sotJobs
}

// runFrameJob decodes one (SOT, tile) job. When the cache is enabled the
// job decodes the prefix [0, hi) so the result is reusable by later
// scans; the warm-up frames before lo are decoded either way (decoding
// must start at the keyframe), so caching them is free.
func (m *Manager) runFrameJob(ctx context.Context, video string, lease *tilestore.Lease, j *dfJob) {
	if m.cache != nil {
		frames, r := m.decodeTilePrefix(ctx, video, lease, j.sot, j.ti, j.hi)
		if r.err == nil {
			frames = frames[j.lo:j.hi]
		}
		j.frames, j.res = frames, r
		return
	}
	if err := ctx.Err(); err != nil {
		j.res.err = fmt.Errorf("core: %s SOT %d tile %d: %w", video, j.sot.ID, j.ti, err)
		return
	}
	tv, err := lease.ReadTile(j.sot, j.ti)
	if err != nil {
		j.res.err = err
		return
	}
	j.frames, j.res.ds, j.res.err = tv.DecodeRangeContext(ctx, j.lo, j.hi)
}

// assembleFrameSOT blits one SOT's decoded tiles into full frames, in
// ascending frame order.
func assembleFrameSOT(w, h int, js []*dfJob) []*frame.Frame {
	if len(js) == 0 {
		return nil
	}
	full := make([]*frame.Frame, js[0].hi-js[0].lo)
	for i := range full {
		full[i] = frame.New(w, h)
	}
	for _, j := range js {
		rect := j.sot.L.TileRectByIndex(j.ti)
		for i, tf := range j.frames {
			full[i].Blit(tf, rect.X0, rect.Y0)
		}
	}
	return full
}

// decodeFramesLeased is the batch whole-frame engine, reading every tile
// through the caller's snapshot lease; from/to must already be clamped
// and valid. RetileSOTContext uses it so its decode runs under the same
// lease its commit is validated against (the public DecodeFramesContext
// path streams through FrameCursor instead).
func (m *Manager) decodeFramesLeased(ctx context.Context, video string, meta tilestore.VideoMeta, lease *tilestore.Lease, from, to int) ([]*frame.Frame, ScanStats, error) {
	var st ScanStats
	sots := meta.SOTsInRange(from, to)
	st.SOTsTouched = len(sots)
	start := time.Now()

	sotJobs := planFrameJobs(sots, from, to)
	var jobs []*dfJob
	for _, js := range sotJobs {
		jobs = append(jobs, js...)
	}
	runJobs(ctx, len(jobs), m.cfg.Parallelism, func(i int) {
		m.runFrameJob(ctx, video, lease, jobs[i])
	})

	st.DecodeWall = time.Since(start)

	if err := ctx.Err(); err != nil {
		return nil, st, fmt.Errorf("core: decode frames %s [%d,%d): %w", video, from, to, err)
	}
	var firstErr error
	for _, j := range jobs {
		m.foldDecodeStats(&st, j.res)
		if firstErr == nil {
			firstErr = j.res.err
		}
	}
	if firstErr != nil {
		return nil, st, firstErr
	}

	// Assemble full frames in order, blitting each tile at its layout
	// offset; pure pixel work, timed apart from the decode.
	assembleStart := time.Now()
	out := make([]*frame.Frame, 0, to-from)
	for _, js := range sotJobs {
		out = append(out, assembleFrameSOT(meta.W, meta.H, js)...)
	}
	st.AssembleWall = time.Since(assembleStart)
	return out, st, nil
}

// RetileStats reports the work of a re-tiling operation.
type RetileStats struct {
	DecodeWall time.Duration `json:"decode_wall_ns"`
	EncodeWall time.Duration `json:"encode_wall_ns"`
	Bytes      int64         `json:"bytes"`
}

// retileLock returns the mutex serializing re-tiles of one video.
func (m *Manager) retileLock(video string) *sync.Mutex {
	mu, _ := m.retileMu.LoadOrStore(video, &sync.Mutex{})
	return mu.(*sync.Mutex)
}

// RetileSOTContext re-encodes one SOT under a new layout: decode all
// current tiles, reassemble frames, encode with the new layout, and
// commit a new version directory. The semantic index is untouched: scans
// derive a box's tiles from the live layout. Scans concurrent with the
// re-tile are unaffected: they hold leases on the version their snapshot
// names, and the old version's files survive until the last lease drops.
// Re-tiles of one video are serialized against each other. A layout that
// does not fit the video fails with tasmerr.ErrInvalidRange before any
// decode.
//
// The decode and re-encode phases abort within one frame's work of a
// cancellation and nothing is committed; once the tile swap starts
// committing it is not interrupted (the commit itself is atomic under the
// store's catalog lock).
func (m *Manager) RetileSOTContext(ctx context.Context, video string, sotID int, l layout.Layout) (RetileStats, error) {
	mu := m.retileLock(video)
	mu.Lock()
	defer mu.Unlock()

	var rs RetileStats
	// One snapshot lease covers the whole decode→encode→commit sequence,
	// and the commit is validated against it: if the video is deleted (and
	// possibly re-ingested under the same name) mid-retile, the store
	// refuses to install tiles encoded from the deleted generation's
	// frames.
	meta, lease, err := m.store.SnapshotContext(ctx, video)
	if err != nil {
		return rs, err
	}
	defer lease.Release()
	sot, err := meta.SOTByID(sotID)
	if err != nil {
		return rs, err
	}
	if err := l.Validate(m.cfg.Constraints(meta.W, meta.H)); err != nil {
		return rs, fmt.Errorf("core: retile %s SOT %d: %w: %w", video, sotID, tasmerr.ErrInvalidRange, err)
	}
	if l.Equal(sot.L) {
		return rs, nil // already in the requested layout
	}

	frames, st, err := m.decodeFramesLeased(ctx, video, meta, lease, sot.From, sot.To)
	if err != nil {
		return rs, err
	}
	rs.DecodeWall = st.DecodeWall

	encStart := time.Now()
	tiles, err := container.EncodeTiledContext(ctx, frames, l, meta.FPS, m.cfg.Codec)
	if err != nil {
		return rs, err
	}
	rs.EncodeWall = time.Since(encStart)
	if err := m.store.ReplaceSOTLeased(lease, video, sotID, l, tiles); err != nil {
		return rs, err
	}
	// Cached decodes of the old physical layout must never be served
	// again. (Scans holding the new catalog snapshot are already safe —
	// the bumped Retiles counter is part of the cache key — but the sweep
	// frees their memory immediately.)
	m.cache.InvalidateSOT(video, sotID)
	for _, tv := range tiles {
		rs.Bytes += tv.SizeBytes()
	}
	return rs, nil
}

// RepairStore validates every SOT's live version against the checksums
// sealed into the catalog, quarantines corrupt version directories into
// .trash, and falls back to earlier intact versions where the store
// still holds one (tilestore.Store.Repair). Because a fallback changes
// a video's live layout, the repaired videos' cached decodes are
// dropped, so scans after a repair read the adopted layout, not the
// quarantined one.
func (m *Manager) RepairStore() (tilestore.RepairReport, error) {
	rep, err := m.store.Repair()
	if err != nil {
		return rep, err
	}
	for _, video := range rep.Videos {
		m.cache.InvalidateVideo(video)
	}
	return rep, nil
}

// StitchSOTContext performs homomorphic stitching of a SOT's tiles into a
// single stream (paper §3.4.5: queries for whole frames). The tile reads
// run under a snapshot lease, so a concurrent re-tile cannot swap the
// files mid-stitch; ctx is checked before the snapshot and between tile
// reads.
func (m *Manager) StitchSOTContext(ctx context.Context, video string, sotID int) (*container.Stitched, error) {
	meta, lease, err := m.store.SnapshotContext(ctx, video)
	if err != nil {
		return nil, err
	}
	defer lease.Release()
	sot, err := meta.SOTByID(sotID)
	if err != nil {
		return nil, err
	}
	tiles, err := lease.ReadAllTiles(ctx, sot)
	if err != nil {
		return nil, err
	}
	return container.Stitch(sot.L, tiles)
}

// VideoBytes returns the video's total storage footprint.
func (m *Manager) VideoBytes(video string) (int64, error) { return m.store.VideoBytes(video) }

// DeleteVideo removes a stored video: its tiles, its semantic-index
// records (so a later re-ingest under the same name is not scanned with
// the deleted video's detections), and every cached decode. The index is
// cleaned before the tiles are removed: if the index delete fails the
// video remains intact and scannable, whereas the reverse order could
// leave stale detections pointing at a re-ingested video's pixels.
func (m *Manager) DeleteVideo(video string) error {
	if _, err := m.store.Meta(video); err != nil {
		return err
	}
	if err := m.deleteIndexAndTiles(video); err != nil {
		return err
	}
	m.cache.InvalidateVideo(video)
	// An active subscriber must not hang waiting for commits that can
	// never come (or leak its lease): deliver ErrVideoDeleted as every
	// tail's terminal state, and drop the append queue's map entry.
	m.hub.CancelVideo(video, fmt.Errorf("core: subscription to %q: %w", video, tasmerr.ErrVideoDeleted))
	m.ingest.Forget(video)
	// Drop the per-video retile mutex so long-lived managers cycling many
	// video names don't accumulate one forever. A retile already holding
	// the old mutex is safe: its commit is lease-validated by the store.
	m.retileMu.Delete(video)
	// Observation state for the deleted video is evidence about frames
	// that no longer exist; drop it so the background re-tiler cannot act
	// on a deleted (or later re-ingested) video's history.
	if m.observer != nil {
		m.observer.ForgetVideo(video)
	}
	return nil
}

// deleteIndexAndTiles is DeleteVideo's commit, exclusive of every scan's
// planning phase (see planMu): a scan planned before it returns the full
// pre-delete answer from its lease, one planned after it finds no video.
func (m *Manager) deleteIndexAndTiles(video string) error {
	m.planMu.Lock()
	defer m.planMu.Unlock()
	if err := m.index.DeleteVideo(video); err != nil {
		return err
	}
	return m.store.DeleteVideo(video)
}

// CacheStats snapshots the decoded-tile cache's global counters (all zero
// when the cache is disabled).
func (m *Manager) CacheStats() tilecache.Stats { return m.cache.Stats() }
