package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/tasmerr"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// The streaming pipeline behind ScanCursor and FrameCursor.
//
// Results flow to the consumer in frame order as each (SOT, tile) decode
// lands, instead of materializing the whole request first: tile decode
// jobs fan across Config.Parallelism workers, and as soon as every tile
// of the frontmost undelivered SOT is decoded, that SOT is assembled and
// its results are handed over. Two bounds give backpressure instead of
// unbounded buffering:
//
//   - a result channel of cursorResultBuffer entries between the pipeline
//     and the consumer, and
//   - a window of sotAhead(parallelism) SOTs that may be decoded ahead of
//     the one the consumer is reading — a slow consumer therefore stalls
//     the decode workers rather than accumulating decoded pixels.
//
// The snapshot lease is released when the pipeline exits — on
// exhaustion, on the first decode error, or on context
// cancellation/Close — always before Next reports false, so "the cursor
// is done" implies "no leases are held" (a subsequent store GC defers
// nothing on this request's account).

// cursorResultBuffer bounds results assembled but not yet consumed.
const cursorResultBuffer = 16

// sotAhead bounds how many SOTs may be in flight (decoding or awaiting
// consumption) ahead of the consumer on the streaming path: enough SOTs
// to keep every worker fed past a slow frontmost SOT, with a floor of
// two so the next SOT decodes while the consumer drains the current one.
// The materializing wrappers instead pass an unbounded window — they
// hold every result anyway, and the old batch path flattened all (SOT,
// tile) jobs across the pool, a fan-out they must not regress.
func sotAhead(parallelism int) int { return max(2, 2*parallelism) }

// cursor is the shared engine; T is what one Next/Result step yields.
type cursor[T any] struct {
	m      *Manager
	ctx    context.Context
	cancel context.CancelFunc
	out    chan T
	cur    T
	done   chan struct{} // closed after lease release and stats finalize

	mu     sync.Mutex
	err    error
	stats  ScanStats
	closed bool
}

// Next advances to the next result, blocking until one is available, the
// stream ends, an error occurs, or the context is cancelled. It returns
// false on end-of-stream; consult Err to distinguish exhaustion from
// failure.
func (c *cursor[T]) Next() bool {
	v, ok := <-c.out
	if !ok {
		var zero T
		c.cur = zero
		return false
	}
	c.cur = v
	return true
}

// Result returns the value Next advanced to.
func (c *cursor[T]) Result() T { return c.cur }

// Err returns the error that terminated the stream, nil while streaming
// or after clean exhaustion. Context errors are wrapped: errors.Is(err,
// context.Canceled) and errors.Is(err, context.DeadlineExceeded) work.
func (c *cursor[T]) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats snapshots the work performed so far; after Next has returned
// false (or Close returned) it is the request's final accounting.
func (c *cursor[T]) Stats() ScanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close stops the pipeline and blocks until every decode worker has
// exited and the read leases are released. It is idempotent and safe to
// defer alongside normal draining; closing an exhausted cursor is a
// no-op. A Close before exhaustion records ErrCursorClosed so a later
// Err is not mistaken for clean exhaustion.
func (c *cursor[T]) Close() error {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		select {
		case <-c.done: // already finished; keep its error
		default:
			if c.err == nil {
				c.err = tasmerr.ErrCursorClosed
			}
		}
	}
	c.mu.Unlock()
	c.cancel()
	// Drain so the pipeline's in-flight send (if any) unblocks even if
	// the cancellation raced it, then wait for teardown.
	for range c.out {
	}
	<-c.done
	return nil
}

// setErr records the stream-terminating error, keeping the first one (a
// Close-initiated ErrCursorClosed therefore wins over the cancellation
// error the Close itself provokes in the pipeline).
func (c *cursor[T]) setErr(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// updateStats mutates the shared stats under the cursor's lock.
func (c *cursor[T]) updateStats(fn func(*ScanStats)) {
	c.mu.Lock()
	fn(&c.stats)
	c.mu.Unlock()
}

// send delivers one result to the consumer, honoring cancellation.
func (c *cursor[T]) send(v T) error {
	select {
	case c.out <- v:
		return nil
	case <-c.ctx.Done():
		return fmt.Errorf("core: result stream: %w", context.Cause(c.ctx))
	}
}

// newCursor builds an idle cursor bound to ctx.
func newCursor[T any](m *Manager, ctx context.Context) *cursor[T] {
	cctx, cancel := context.WithCancel(ctx)
	return &cursor[T]{
		m:      m,
		ctx:    cctx,
		cancel: cancel,
		out:    make(chan T, cursorResultBuffer),
		done:   make(chan struct{}),
	}
}

// finishEmpty completes a cursor that has nothing to stream (no matching
// regions, or an empty plan): the lease is dropped, the derived context
// is cancelled (else every empty scan would leak a child context on a
// long-lived parent), and the cursor is born exhausted.
func (c *cursor[T]) finishEmpty(lease *tilestore.Lease) {
	lease.Release()
	c.cancel()
	close(c.done)
	close(c.out)
}

// recordSpans reports the pipeline's stage accounting into the request
// trace (when one rides the context): decode and assemble spans carry
// the cumulative stage walls from ScanStats — overlapping parallel
// decodes already folded to busy intervals — and the cache span carries
// the tile-cache outcome for this request. Span starts anchor at the
// pipeline start; the durations are the paper's per-stage costs, not
// wall-clock sub-intervals.
func (c *cursor[T]) recordSpans(pipeStart time.Time) {
	tr := obs.FromContext(c.ctx)
	if tr == nil {
		return
	}
	st := c.Stats()
	itoa := strconv.Itoa
	tr.AddSpan("decode", pipeStart, st.DecodeWall,
		"tiles", itoa(st.TilesDecoded),
		"frames", strconv.FormatInt(st.FramesDecoded, 10),
		"sots", itoa(st.SOTsTouched))
	tr.AddSpan("assemble", pipeStart, st.AssembleWall,
		"regions", itoa(st.RegionsReturned))
	tr.AddSpan("cache", pipeStart, 0,
		"hits", itoa(st.CacheHits),
		"misses", itoa(st.CacheMisses),
		"evictions", itoa(st.CacheEvictions))
}

// pipelineSOT is one SOT's worth of decode work: jobs to run and an
// emitter that assembles and sends the SOT's results once they all land.
type pipelineSOT struct {
	jobs int
	// run decodes job k of this SOT (k < jobs). It must record its
	// outcome internally; the pipeline only orchestrates.
	run func(ctx context.Context, k int)
	// emit is called in SOT order after all of this SOT's jobs returned:
	// it surfaces the first decode error, otherwise assembles and sends.
	emit func() error
}

// start launches the pipeline over sots (already in frame order) and
// returns immediately; lease is released when the pipeline exits. window
// bounds how many SOTs may be decoded ahead of the consumer (<= 0 means
// the streaming default, sotAhead).
func (c *cursor[T]) start(lease *tilestore.Lease, sots []pipelineSOT, window int) {
	go func() {
		pipeStart := time.Now()
		err := c.pump(lease, sots, window)
		// Workers have exited: release before the consumer can observe
		// end-of-stream, so "Next is false" implies "no leases held".
		lease.Release()
		c.setErr(err)
		c.recordSpans(pipeStart)
		// done closes before out: a consumer that drained to the closed
		// out channel and immediately calls Close must find done already
		// closed, or the Close would spuriously record ErrCursorClosed
		// on a cleanly exhausted stream.
		close(c.done)
		close(c.out)
	}()
}

// pump runs dispatch, decode, and in-order emission until the stream is
// exhausted, a decode fails, or the context is cancelled. It returns
// only after every worker goroutine has exited.
func (c *cursor[T]) pump(lease *tilestore.Lease, sots []pipelineSOT, windowSize int) error {
	ctx := c.ctx

	// DecodeWall accounting: the union of intervals during which at
	// least one decode job is running. Overlapping parallel decodes
	// count once (like the batch pool-drain measurement), and idle gaps
	// where the pipeline waits on a slow consumer count zero — the stat
	// stays the paper's decode cost, not consumption wall time.
	var busyMu sync.Mutex
	var busyActive int
	var busyStart time.Time
	jobStarted := func() {
		busyMu.Lock()
		if busyActive == 0 {
			busyStart = time.Now()
		}
		busyActive++
		busyMu.Unlock()
	}
	jobFinished := func() {
		busyMu.Lock()
		busyActive--
		if busyActive == 0 {
			d := time.Since(busyStart)
			c.updateStats(func(st *ScanStats) { st.DecodeWall += d })
		}
		busyMu.Unlock()
	}

	// Per-SOT completion tracking: pending decodes, and a channel closed
	// when the SOT's last job lands.
	pending := make([]int32, len(sots))
	sotDone := make([]chan struct{}, len(sots))
	for i, s := range sots {
		sotDone[i] = make(chan struct{})
		pending[i] = int32(s.jobs)
		if s.jobs == 0 {
			close(sotDone[i])
		}
	}

	type jobRef struct{ si, k int }
	if windowSize <= 0 {
		windowSize = sotAhead(c.m.cfg.Parallelism)
	}
	windowSize = min(windowSize, len(sots))
	window := make(chan struct{}, windowSize)
	jobCh := make(chan jobRef)

	// Dispatcher: admits SOTs in order, bounded by the window, then
	// feeds their tile jobs to the workers.
	go func() {
		defer close(jobCh)
		for si := range sots {
			select {
			case window <- struct{}{}:
			case <-ctx.Done():
				return
			}
			for k := 0; k < sots[si].jobs; k++ {
				select {
				case jobCh <- jobRef{si, k}:
				case <-ctx.Done():
					return
				}
			}
		}
	}()

	var pendingMu sync.Mutex
	workers := max(1, c.m.cfg.Parallelism)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobCh {
				jobStarted()
				sots[j.si].run(ctx, j.k)
				jobFinished()
				pendingMu.Lock()
				pending[j.si]--
				last := pending[j.si] == 0
				pendingMu.Unlock()
				if last {
					close(sotDone[j.si])
				}
			}
		}()
	}

	// Emit SOTs strictly in order as they complete.
	var firstErr error
	for si := range sots {
		select {
		case <-sotDone[si]:
			if err := sots[si].emit(); err != nil {
				firstErr = err
			}
			<-window // free a decode-ahead slot
		case <-ctx.Done():
			firstErr = fmt.Errorf("core: scan cancelled: %w", context.Cause(ctx))
		}
		if firstErr != nil {
			break
		}
	}
	// Stop all remaining work and wait for the workers: the lease must
	// outlive every tile read.
	c.cancel()
	wg.Wait()
	return firstErr
}

// ScanCursor starts a streaming Scan: it plans the query under a snapshot
// lease exactly like ScanContext, then decodes in the background and yields
// RegionResults in frame order as each SOT's tiles land. Constructor
// errors (unknown video, invalid range, index failure) are returned
// immediately with no lease held; decode-time errors surface through
// Err. The caller must either drain the cursor or Close it.
func (m *Manager) ScanCursor(ctx context.Context, q query.Query) (*ScanCursor, error) {
	return m.scanCursor(ctx, q, 0)
}

// scanCursor is ScanCursor with an explicit decode-ahead window; the
// materializing ScanContext passes an unbounded window so all (SOT,
// tile) jobs flatten across the pool like the pre-cursor batch path.
func (m *Manager) scanCursor(ctx context.Context, q query.Query, window int) (*ScanCursor, error) {
	c := newCursor[RegionResult](m, ctx)
	tr := obs.FromContext(c.ctx)
	var (
		meta     tilestore.VideoMeta
		lease    *tilestore.Lease
		from, to int
		regions  map[int][]geom.Rect
	)
	// Snapshot and index lookup are one step with respect to DeleteVideo
	// (see planMu): constructor errors leave no lease held.
	err := func() (err error) {
		m.planMu.RLock()
		defer m.planMu.RUnlock()
		endLease := tr.StartSpan("lease")
		meta, lease, err = m.store.SnapshotRangeContext(c.ctx, q.Video, q.From, q.To)
		endLease("video", q.Video)
		if err != nil {
			return err
		}
		if from, to, err = clampRange(q.Video, q.From, q.To, meta.FrameCount); err != nil {
			lease.Release()
			return err
		}
		indexStart := time.Now()
		if regions, c.stats.IndexWall, err = m.regionsForQuery(q, from, to); err != nil {
			lease.Release()
			return err
		}
		tr.AddSpan("index", indexStart, c.stats.IndexWall)
		return nil
	}()
	if err != nil {
		c.cancel()
		return nil, err
	}

	// Plan every touched SOT up front: which frame offsets it must serve
	// and which tiles (decoded through which offset) it needs.
	var plans []*sotPlan
	for _, sot := range meta.SOTsInRange(from, to) {
		qf := costmodel.QueryFrames{}
		for f := max(from, sot.From); f < min(to, sot.To); f++ {
			if rs := regions[f]; len(rs) > 0 {
				qf[f-sot.From] = rs
			}
		}
		if len(qf) == 0 {
			continue
		}
		plans = append(plans, planSOT(sot, qf))
	}
	c.stats.SOTsTouched = len(plans)
	// Every scan path funnels through here — streaming cursors, the
	// materializing ScanContext draining one, and remote requests served
	// over either — so this single hook is the cursor-observation
	// guarantee: no query escapes the adaptive-tiling observer.
	m.observeScan(q, from, to, len(plans))
	sc := &ScanCursor{cursor: c}
	if len(plans) == 0 {
		c.finishEmpty(lease)
		return sc, nil
	}

	sots := make([]pipelineSOT, len(plans))
	for i, p := range plans {
		sots[i] = pipelineSOT{
			jobs: len(p.tids),
			run: func(ctx context.Context, k int) {
				frames, r := m.decodeTilePrefix(ctx, q.Video, lease, p.sot, p.tids[k], p.need[k])
				p.decoded[k] = frames
				p.results[k] = r
				c.updateStats(func(st *ScanStats) { m.foldDecodeStats(st, r) })
			},
			emit: func() error {
				for _, r := range p.results {
					if r.err != nil {
						return r.err
					}
				}
				assembleStart := time.Now()
				rs := assembleSOT(p)
				c.updateStats(func(st *ScanStats) {
					st.AssembleWall += time.Since(assembleStart)
					st.RegionsReturned += len(rs)
				})
				p.decoded, p.results = nil, nil // release pixels to GC as consumed
				for _, r := range rs {
					if err := c.send(r); err != nil {
						return err
					}
				}
				return nil
			},
		}
	}
	c.start(lease, sots, window)
	return sc, nil
}

// ScanCursor streams a Scan's RegionResults in frame order.
type ScanCursor struct {
	*cursor[RegionResult]
}

// FrameResult is one streamed whole frame: its absolute index in the
// video and its reassembled pixels.
type FrameResult struct {
	Index  int
	Pixels *frame.Frame
}

// FrameCursor starts a streaming DecodeFrames: whole frames [from, to)
// are yielded in order as each SOT's tiles decode, under the same
// snapshot-lease and clamp-then-validate semantics as DecodeFramesContext.
// The caller must either drain the cursor or Close it.
func (m *Manager) FrameCursor(ctx context.Context, video string, from, to int) (*FrameCursor, error) {
	return m.frameCursor(ctx, video, from, to, 0)
}

// frameCursor is FrameCursor with an explicit decode-ahead window (see
// scanCursor).
func (m *Manager) frameCursor(ctx context.Context, video string, from, to, window int) (*FrameCursor, error) {
	c := newCursor[FrameResult](m, ctx)
	tr := obs.FromContext(c.ctx)
	endLease := tr.StartSpan("lease")
	meta, lease, err := m.store.SnapshotRangeContext(c.ctx, video, from, to)
	endLease("video", video)
	if err != nil {
		c.cancel()
		return nil, err
	}
	from, to, err = clampRange(video, from, to, meta.FrameCount)
	if err != nil {
		lease.Release()
		c.cancel()
		return nil, err
	}
	sotMetas := meta.SOTsInRange(from, to)
	c.stats.SOTsTouched = len(sotMetas)
	// Whole-frame requests carry no label predicate: the observer counts
	// them as requests but takes no re-tiling evidence from them.
	m.observeScan(query.Query{Video: video}, from, to, len(sotMetas))
	fc := &FrameCursor{cursor: c}
	sotJobs := planFrameJobs(sotMetas, from, to)
	if len(sotJobs) == 0 {
		c.finishEmpty(lease)
		return fc, nil
	}

	sots := make([]pipelineSOT, len(sotJobs))
	for i, js := range sotJobs {
		sots[i] = pipelineSOT{
			jobs: len(js),
			run: func(ctx context.Context, k int) {
				j := js[k]
				m.runFrameJob(ctx, video, lease, j)
				c.updateStats(func(st *ScanStats) { m.foldDecodeStats(st, j.res) })
			},
			emit: func() error {
				for _, j := range js {
					if j.res.err != nil {
						return j.res.err
					}
				}
				assembleStart := time.Now()
				full := assembleFrameSOT(meta.W, meta.H, js)
				c.updateStats(func(st *ScanStats) { st.AssembleWall += time.Since(assembleStart) })
				base := js[0].sot.From + js[0].lo
				for fi, f := range full {
					if err := c.send(FrameResult{Index: base + fi, Pixels: f}); err != nil {
						return err
					}
				}
				for _, j := range js {
					j.frames = nil // release pixels to GC as consumed
				}
				return nil
			},
		}
	}
	c.start(lease, sots, window)
	return fc, nil
}

// FrameCursor streams whole reassembled frames in order.
type FrameCursor struct {
	*cursor[FrameResult]
}
