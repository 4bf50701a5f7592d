package main

import (
	"context"
	"fmt"
	"time"

	"github.com/tasm-repro/tasm"
)

// Span names shared by every workload's synthesised children. The decode
// wall the public API returns covers reading tile files, parsing their
// containers and decoding them, so one child stands for those layers.
const (
	spanIndex    = "semindex+tilestore.snapshot"
	spanDecode   = "vcodec+container+tilestore.read"
	spanAssemble = "core.assemble"
)

// batchOps is a throughput batch of the query workloads: three phases, the
// span over which the generator's (video, label, length) multiset repeats.
const batchOps = 3 * driftPhase

// warmCacheBudget is select-warm's decoded-tile cache: 256 MiB, far above
// the decoded working set (three 100-frame 320x180 videos are 26 MB fully
// decoded, and only the queried tiles are ever cached).
const warmCacheBudget = 256 << 20

// selectWL is select-cold (cache off) and select-warm (cache on, warmed):
// a closed loop of one client issuing the seeded SELECT sequence against
// the tiled copies through the streaming SQL cursor.
type selectWL struct {
	warm bool
	vids []*srcVideo
	ops  []selectOp
	sm   *tasm.StorageManager
	base tasm.CacheStats // counters when the pass started
	last []tasm.RegionResult
}

func (w *selectWL) inputs(e *env, fp *fingerprint) error {
	vids, err := genCorpus(e, corpusSpecs(e), e.sc.Frames)
	if err != nil {
		return err
	}
	w.vids = vids
	w.ops = genSelectOps(e.seed*7919+11, e.sc.SeqOps, len(vids), e.sc.Frames/e.sc.GOP, e.sc.GOP, 1, 3)
	fp.videos(vids)
	for _, o := range w.ops {
		fp.text(o.sql(vids[o.vid].name + "-t"))
	}
	return nil
}

func (w *selectWL) setup(ctx context.Context, e *env) error {
	w.teardown()
	opts := []tasm.Option{tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs)}
	if w.warm {
		opts = append(opts, tasm.WithCacheBudget(warmCacheBudget))
	}
	sm, err := tasm.Open(e.dir("select"), opts...)
	if err != nil {
		return err
	}
	w.sm = sm
	if err := storeAll(ctx, e, sm, w.vids, "-t", true); err != nil {
		return err
	}
	if w.warm {
		// One untimed pass over every (video, label): afterwards every tile
		// a query can touch is cached through its last frame.
		for _, v := range w.vids {
			for _, l := range v.labels {
				if _, _, err := sm.ScanSQLContext(ctx, fmt.Sprintf("SELECT %s FROM %s-t", l, v.name)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *selectWL) run(ctx context.Context, e *env, r *rec, b budget) {
	w.base = w.sm.CacheStats()
	b.begin()
	for i := 0; b.more(i); i++ {
		o := w.ops[i%len(w.ops)]
		v := w.vids[o.vid]
		res := timedSelect(ctx, w.sm, r, v, v.name+"-t", o)
		res.count(r)
		if res.ok {
			w.last = res.regions
		}
		if (i+1)%batchOps == 0 {
			r.endBatch()
		}
	}
	if w.warm {
		r.setNative("tilecache.bytes_cached_mb", float64(w.sm.CacheStats().BytesCached)/1e6)
	}
}

// selectResult is one finished, checked SELECT.
type selectResult struct {
	ok      bool
	regions []tasm.RegionResult
	start   time.Time     // just before the cursor opened
	wall    time.Duration // cursor open -> drained
	first   time.Duration // cursor open -> first region
	bytes   int64         // pixel payload returned
	stats   tasm.ScanStats
}

// count credits the query to all three per-operation series.
func (s selectResult) count(r *rec) {
	if s.ok {
		r.op(s.wall)
		r.first(s.first)
		r.moved(s.bytes, s.wall)
	}
}

// timedSelect runs one SELECT through the streaming cursor, synthesises
// its child spans from the returned stats, and checks the answer against
// ground truth. A failure is recorded on r and returns ok=false.
func timedSelect(ctx context.Context, sm *tasm.StorageManager, r *rec, v *srcVideo, name string, o selectOp) selectResult {
	r.attempt()
	root := r.tr.begin("op:select")
	t0 := time.Now()
	cur, err := sm.ScanSQLCursor(ctx, o.sql(name))
	if err != nil {
		root.end()
		r.fail(err)
		return selectResult{}
	}
	res := selectResult{start: t0}
	for cur.Next() {
		if len(res.regions) == 0 {
			res.first = time.Since(t0)
		}
		res.regions = append(res.regions, cur.Result())
	}
	res.wall = time.Since(t0)
	res.stats = cur.Stats()
	err = cur.Err()
	cur.Close()
	root.wall(spanIndex, res.stats.IndexWall)
	root.wall(spanDecode, res.stats.DecodeWall)
	root.wall(spanAssemble, res.stats.AssembleWall)
	root.end()
	if err == nil && len(res.regions) == 0 {
		err = fmt.Errorf("%s: empty answer", o.sql(name))
	}
	if err == nil {
		res.bytes, err = checkRegions(v, o.label, o.from, o.to, res.regions)
	}
	if err != nil {
		r.fail(err)
		return selectResult{}
	}
	res.ok = true
	r.scan(res.stats, res.wall, res.first, res.bytes)
	return res
}

func (w *selectWL) stored() (int64, int64, error) { return storedRatio(w.sm, w.vids, "-t") }

// storedRatio sums VideoBytes over the stored copies and raw pixel bytes
// over their sources.
func storedRatio(sm *tasm.StorageManager, vids []*srcVideo, suffix string) (stored, raw int64, err error) {
	for _, v := range vids {
		b, err := sm.VideoBytes(v.name + suffix)
		if err != nil {
			return 0, 0, err
		}
		stored += b
		raw += v.rawBytes()
	}
	return stored, raw, nil
}

func (w *selectWL) assert(r *rec) error {
	cs := w.sm.CacheStats()
	if !w.warm {
		if cs.Hits+cs.Misses != 0 {
			return fmt.Errorf("select-cold: tile cache saw %d lookups, want none (cache off)", cs.Hits+cs.Misses)
		}
		if r.tr != nil {
			// The traced pass must explain its operations: the children cover
			// an operation, and reading + decoding tiles is most of it.
			if c, s := r.tr.coverage("op:", spanDecode); c < 0.8 || s <= 0.5 {
				return fmt.Errorf("select-cold: child spans cover %.2f of an operation (want >= 0.8), %s is %.2f of it (want > 0.5)", c, spanDecode, s)
			}
		}
		return nil
	}
	misses, decoded := cs.Misses-w.base.Misses, r.scans.framesDecoded
	if misses != 0 || decoded != 0 {
		return fmt.Errorf("select-warm: %d cache misses and %d frames decoded in the timed pass, want 0 and 0 (hit ratio 1)", misses, decoded)
	}
	return nil
}

func (w *selectWL) layerInputs() layerInputs {
	return layerInputs{clip: w.vids[0], sqls: sampleSQL(w.vids, w.ops, "-t"), regions: w.last}
}

func sampleSQL(vids []*srcVideo, ops []selectOp, suffix string) []string {
	n := min(64, len(ops))
	out := make([]string, n)
	for i := range out {
		out[i] = ops[i].sql(vids[ops[i].vid].name + suffix)
	}
	return out
}

func (w *selectWL) teardown() {
	if w.sm != nil {
		w.sm.Close()
		w.sm = nil
	}
}
