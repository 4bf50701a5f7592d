package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/layout"
)

const (
	liveCams = 4
	// camPeriod: each camera appends one GOP of 10 frames every 333 ms
	// (30 fps in real time); the four cameras are staggered, so the store
	// takes 12 commits a second.
	camPeriod = 333 * time.Millisecond
	// liveSelectHz is the fixed SELECT rate on the tiled corpus. Its period
	// (67 ms) stays above the slowest query's service time on the seed
	// commit (a cold three-SOT window of the untiled dense video, ~50 ms),
	// so the single select driver does not queue behind itself.
	liveSelectHz = 15
	// liveRamp is discarded before the measured window.
	liveRamp = time.Second
	// camLoopGOPs: a camera's content repeats after this many GOPs, so a
	// delivered frame's source is frame index modulo the loop.
	camLoopGOPs = 6
	// latenessWarn is the generator-lateness p95 (wake-up after the due
	// time, over both drivers) above which a run's latencies carry visible
	// scheduling noise; latenessLimit is where the schedule no longer means
	// what it says and the run is invalid. On two cores the drivers share
	// Ps with the decode workers, and a woken goroutine can wait out a
	// running one's 10 ms preemption slice, so 5 ms is a warning here, not
	// the invalidation line.
	latenessWarn  = 5 * time.Millisecond
	latenessLimit = 20 * time.Millisecond
)

// liveWL is live-mixed: an open loop, all in-process. One appender driver
// on a clock appends a GOP to each of cam-0..3 every 333 ms (retention
// trims continuously); one passive Subscribe tail per camera stamps
// visibility; a second driver issues SELECTs on the tiled corpus at a
// fixed rate with the cache at a quarter of the decoded working set.
// Latencies are timed from the due time. Series: op is a SELECT's latency
// (due -> drained; the answer check that follows is not in it),
// first_result is append due -> the subscriber holds the GOP's first frame,
// payload is region bytes returned plus raw bytes accepted per second of
// SELECT and append wall, over the measured window as one batch: the
// schedule fixes how much is offered, so only the time spent serving it can
// move. (Batches of one query phase were tried and were no steadier.)
type liveWL struct {
	vids []*srcVideo
	cams []*srcVideo
	ops  []selectOp
	sm   *tasm.StorageManager
	e    *env

	workingSet int64
	gops       [liveCams]int // GOPs appended so far per camera
	late       []float64     // generator lateness, ms, both drivers
	rejects    int
	backlog    bool
}

func (w *liveWL) inputs(e *env, fp *fingerprint) error {
	vids, err := genCorpus(e, corpusSpecs(e), e.sc.Frames)
	if err != nil {
		return err
	}
	w.vids, w.e = vids, e
	w.cams = nil
	for i := 0; i < liveCams; i++ {
		c, err := generate(camSpec(e, i), camLoopGOPs*e.sc.GOP, queriedLabels)
		if err != nil {
			return err
		}
		w.cams = append(w.cams, c)
	}
	w.ops = genSelectOps(e.seed*7919+19, e.sc.SeqOps, len(vids), e.sc.Frames/e.sc.GOP, e.sc.GOP, 1, 3)
	fp.videos(vids)
	fp.videos(w.cams)
	for _, o := range w.ops {
		fp.text(o.sql(vids[o.vid].name + "-t"))
	}
	fp.text(fmt.Sprintf("append every %v per camera, select %d/s", camPeriod, liveSelectHz))
	return nil
}

func (w *liveWL) setup(ctx context.Context, e *env) error {
	w.teardown()
	dir := e.dir("live")
	base := []tasm.Option{tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs)}
	// Build the corpus with an ample cache and read every queried tile
	// once: what the cache then holds is the decoded working set.
	sm, err := tasm.Open(dir, append(base, tasm.WithCacheBudget(warmCacheBudget))...)
	if err != nil {
		return err
	}
	if err := storeAll(ctx, e, sm, w.vids, "-t", true); err != nil {
		sm.Close()
		return err
	}
	for _, v := range w.vids {
		for _, l := range v.labels {
			if _, _, err := sm.ScanSQLContext(ctx, fmt.Sprintf("SELECT %s FROM %s-t", l, v.name)); err != nil {
				sm.Close()
				return err
			}
		}
	}
	w.workingSet = sm.CacheStats().BytesCached
	for _, c := range w.cams {
		pol := &tasm.RetentionPolicy{MaxAgeFrames: e.sc.CamSOTs * e.sc.GOP}
		if err := sm.CreateLiveVideo(c.name, c.spec.W, c.spec.H, c.spec.FPS, pol); err != nil {
			sm.Close()
			return fmt.Errorf("create %s: %w", c.name, err)
		}
	}
	if err := sm.Close(); err != nil {
		return err
	}
	if err := w.prefill(ctx, e, dir); err != nil {
		return err
	}
	w.sm, err = tasm.Open(dir, append(base, tasm.WithCacheBudget(w.workingSet/4))...)
	return err
}

// prefill brings every camera to its retention length, CamSOTs SOTs, so the
// run's appends each rewrite a full-length manifest and trim one SOT. It
// does what AppendGOP does per GOP (EncodeTiled on the single-tile layout,
// then the store's AppendSOT) one layer down, at core.Manager.Store(), for
// one reason: a camera's content repeats every camLoopGOPs GOPs, so each
// distinct GOP is encoded once and committed CamSOTs/camLoopGOPs times.
// Through AppendGOP the 800 encodes alone would triple this workload's
// set-up time.
func (w *liveWL) prefill(ctx context.Context, e *env, dir string) error {
	cfg := core.DefaultConfig()
	cfg.Codec.GOPLength = e.sc.GOP
	m, err := core.Open(dir, cfg)
	if err != nil {
		return err
	}
	errs := make([]error, liveCams)
	parallelDo(e.procs, liveCams, func(i int) {
		c := w.cams[i]
		single := layout.Single(c.spec.W, c.spec.H)
		var loop [camLoopGOPs][]*container.Video
		for g := range loop {
			if loop[g], errs[i] = container.EncodeTiledContext(ctx, w.camGOP(i, g), single, c.spec.FPS, cfg.Codec); errs[i] != nil {
				return
			}
		}
		for g := 0; g < e.sc.CamSOTs; g++ {
			if _, err := m.Store().AppendSOT(c.name, single, loop[g%camLoopGOPs]); err != nil {
				errs[i] = fmt.Errorf("prefill %s: %w", c.name, err)
				return
			}
		}
		w.gops[i] = e.sc.CamSOTs
	})
	if err := m.Close(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// camGOP returns the frames of camera i's g-th GOP.
func (w *liveWL) camGOP(i, g int) []*tasm.Frame {
	gop := w.e.sc.GOP
	off := (g % camLoopGOPs) * gop
	return w.cams[i].frames[off : off+gop]
}

// sleepUntil waits for due. It returns how long after due the caller runs
// and whether it had to wait at all: lateness after a wait is the
// generator's (timer and scheduler); without one, the driver was still busy
// with its previous operation — backlog, which latency-from-due charges to
// the system.
func sleepUntil(ctx context.Context, due time.Time) (late time.Duration, waited bool) {
	if d := time.Until(due); d > 0 {
		waited = true
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
		}
	}
	return max(0, time.Since(due)), waited
}

func (w *liveWL) run(ctx context.Context, e *env, r *rec, b budget) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	gop := e.sc.GOP
	ramp := liveRamp
	if b.seconds < 4 {
		ramp = liveRamp / 4
	}
	start := time.Now().Add(20 * time.Millisecond)
	measureFrom := start.Add(ramp)
	end := measureFrom.Add(time.Duration(b.seconds * float64(time.Second)))

	var mu sync.Mutex // guards due, late, rejects
	due := make([]map[int]time.Time, liveCams)
	var late []float64
	var drivers, tailers sync.WaitGroup

	// Passive tails: one per camera, from the current head, so only this
	// pass's commits are delivered.
	type tail struct {
		cur  *tasm.SubscribeCursor
		from int
		got  atomic.Int64
	}
	tails := make([]*tail, liveCams)
	for i := range tails {
		due[i] = map[int]time.Time{}
		from := w.gops[i] * gop
		cur, err := w.sm.Subscribe(ctx, w.cams[i].name, from)
		if err != nil {
			r.attempt()
			r.fail(err)
			return
		}
		tails[i] = &tail{cur: cur, from: from}
	}
	for i, t := range tails {
		tailers.Add(1)
		go func(i int, t *tail) {
			defer tailers.Done()
			cam := w.cams[i]
			for t.cur.Next() {
				now := time.Now()
				fr := t.cur.Result()
				if want := t.from + int(t.got.Load()); fr.Index != want {
					r.fail(fmt.Errorf("%s: delivered frame %d, want %d (in order, exactly once)", cam.name, fr.Index, want))
					return
				}
				t.got.Add(1)
				if err := checkFrame(cam, fr.Index%len(cam.frames), fr.Pixels); err != nil {
					r.fail(err)
					return
				}
				if fr.Index%gop != 0 {
					continue
				}
				mu.Lock()
				d, ok := due[i][fr.Index/gop]
				mu.Unlock()
				if ok && !d.Before(measureFrom) {
					r.first(now.Sub(d))
				}
			}
		}(i, t)
	}

	// Appender driver: one goroutine, cameras staggered across the period.
	appended := [liveCams]int{}
	drivers.Add(1)
	go func() {
		defer drivers.Done()
		for k := 0; ; k++ {
			d := start.Add(time.Duration(k) * camPeriod / liveCams)
			if d.After(end) || ctx.Err() != nil {
				return
			}
			lateBy, waited := sleepUntil(ctx, d)
			i := k % liveCams
			g := w.gops[i]
			mu.Lock()
			due[i][g] = d
			if waited && !d.Before(measureFrom) {
				late = append(late, ms(lateBy))
			}
			mu.Unlock()
			r.attempt()
			root := r.tr.begin("op:append")
			t0 := time.Now()
			st, err := w.sm.AppendGOPContext(ctx, w.cams[i].name, w.camGOP(i, g))
			wall := time.Since(t0)
			root.wall(spanEncode, st.EncodeWall)
			root.wall(spanCommit+"+live.queue", wall-st.EncodeWall)
			root.end()
			if err != nil {
				if errors.Is(err, tasm.ErrIngestBackpressure) {
					mu.Lock()
					w.rejects++
					mu.Unlock()
				}
				r.fail(fmt.Errorf("append %s: %w", w.cams[i].name, err))
				continue
			}
			w.gops[i]++
			appended[i]++
			if !d.Before(measureFrom) {
				r.appended(st, wall)
				r.moved(int64(gop)*frameBytes(w.cams[i].frames[0]), wall)
			}
		}
	}()

	// Select driver: fixed rate, latency from the due time.
	var selects, behind int
	drivers.Add(1)
	go func() {
		defer drivers.Done()
		period := time.Second / liveSelectHz
		for j := 0; ; j++ {
			d := start.Add(time.Duration(j) * period)
			if d.After(end) || ctx.Err() != nil {
				return
			}
			lateBy, waited := sleepUntil(ctx, d)
			selects++
			if !waited {
				behind++
			}
			o := w.ops[j%len(w.ops)]
			v := w.vids[o.vid]
			res := timedSelect(ctx, w.sm, r, v, v.name+"-t", o)
			if res.ok && !d.Before(measureFrom) {
				r.op(res.start.Sub(d) + res.wall)
				r.moved(res.bytes, res.wall)
				if waited {
					mu.Lock()
					late = append(late, ms(lateBy))
					mu.Unlock()
				}
			}
		}
	}()

	// The drivers stop by themselves at the end of the window; then give
	// the tails a moment to hold everything that was appended, and close.
	drivers.Wait()
	caughtUp := func() bool {
		for i, t := range tails {
			if int(t.got.Load()) < appended[i]*gop {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(3 * time.Second); !caughtUp() && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	for _, t := range tails {
		t.cur.Close()
	}
	tailers.Wait()
	for i, t := range tails {
		if got := int(t.got.Load()); got != appended[i]*gop {
			r.fail(fmt.Errorf("%s: subscriber holds %d frames of %d appended (exactly once)", w.cams[i].name, got, appended[i]*gop))
		}
	}
	r.endBatch()
	w.late = late
	// Backlog: the select driver found its next query already due more than
	// one time in ten, i.e. it could not keep its own schedule.
	w.backlog = behind*10 > selects
	r.setNative("live.generator_lateness_ms_p95", percentile(late, 95))
	r.setNative("live.backpressure_rejects", float64(w.rejects))
	r.setNative("tilecache.bytes_cached_mb", float64(w.sm.CacheStats().BytesCached)/1e6)
}

func (w *liveWL) stored() (stored, raw int64, err error) {
	if stored, raw, err = storedRatio(w.sm, w.vids, "-t"); err != nil {
		return 0, 0, err
	}
	for _, c := range w.cams {
		b, err := w.sm.VideoBytes(c.name)
		if err != nil {
			return 0, 0, err
		}
		meta, err := w.sm.Meta(c.name)
		if err != nil {
			return 0, 0, err
		}
		stored += b
		raw += int64(meta.FrameCount-meta.TrimmedTo) * frameBytes(c.frames[0])
	}
	return stored, raw, nil
}

func (w *liveWL) assert(r *rec) error {
	if p := percentile(w.late, 95); p > ms(latenessLimit) {
		return fmt.Errorf("live-mixed: generator lateness p95 %.2f ms > %.0f ms: the run is invalid (%w)", p, ms(latenessLimit), errTiming)
	}
	if w.backlog {
		return fmt.Errorf("live-mixed: the select driver started over a tenth of its queries behind schedule: backlog grew (%w)", errTiming)
	}
	if r.scans.evictions == 0 {
		return fmt.Errorf("live-mixed: no cache eviction with the budget at a quarter of the working set (%d B)", w.workingSet)
	}
	return nil
}

func (w *liveWL) layerInputs() layerInputs {
	return layerInputs{clip: w.cams[0], sqls: sampleSQL(w.vids, w.ops, "-t")}
}

func (w *liveWL) teardown() {
	if w.sm != nil {
		w.sm.Close()
		w.sm = nil
	}
}
