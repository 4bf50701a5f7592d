package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/adapt"
	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/fsio"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/live"
	"github.com/tasm-repro/tasm/internal/obs"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/shard"
	"github.com/tasm-repro/tasm/internal/tilecache"
	"github.com/tasm-repro/tasm/internal/tilestore"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

// The layer replay: the traced run's second half. It pushes a sample of
// the workload's own inputs through each module's exported functions
// directly, with a span around each call, so that every per-layer metric
// exists on every workload. A workload's natively measured values (from
// the stats the public API returned during its traced pass) override the
// replay's where both exist.

// layerInputs is the sample a workload hands over.
type layerInputs struct {
	clip    *srcVideo           // raw frames + ground truth from the workload's source
	sqls    []string            // the workload's own query strings
	regions []tasm.RegionResult // one of its answers (may be empty)
}

// countingFS is the device-level counter: an fsio.FS wrapper passed to
// tilestore.WithFS that counts syncs, their time, and bytes written.
type countingFS struct {
	fsio.FS
	syncs, syncNS, written atomic.Int64
	// quiet skips syncs while a fixture is being built (the append-size
	// ladder's prefill), so only measured commits reach the device.
	quiet atomic.Bool
	// delay is planted by the regression test for -compare.
	delay time.Duration
}

func (c *countingFS) sync(do func() error) error {
	if c.quiet.Load() {
		return nil
	}
	t0 := time.Now()
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	err := do()
	c.syncs.Add(1)
	c.syncNS.Add(time.Since(t0).Nanoseconds())
	return err
}

func (c *countingFS) SyncFile(p string) error {
	return c.sync(func() error { return c.FS.SyncFile(p) })
}
func (c *countingFS) SyncDir(p string) error { return c.sync(func() error { return c.FS.SyncDir(p) }) }
func (c *countingFS) WriteFile(p string, data []byte, perm os.FileMode) error {
	if !c.quiet.Load() {
		c.written.Add(int64(len(data)))
	}
	return c.FS.WriteFile(p, data, perm)
}

// replayer times calls and records a span for each.
type replayer struct {
	root *opSpan
	vals map[string]float64
}

// each times n calls of fn one by one (a span around each call) and
// returns the median duration.
func (lr *replayer) each(name string, n int, fn func(i int)) time.Duration {
	med, _ := lr.eachSum(name, n, fn)
	return med
}

// eachSum is each, also returning the calls' total duration.
func (lr *replayer) eachSum(name string, n int, fn func(i int)) (med, sum time.Duration) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		fn(i)
		d := time.Since(t0)
		lr.root.at(name, t0, d)
		ds = append(ds, float64(d))
		sum += d
	}
	return time.Duration(median(ds)), sum
}

// deviceTotals sums what the device saw during measured commits only.
type deviceTotals struct{ commits, syncs, syncNS, written, userBytes int64 }

// eachSelf is each for tilestore calls over the counting FS: the device
// sync time inside a call becomes a child span of it, and the returned
// median is the call's self time — its wall minus those syncs — so that a
// slower device moves tilestore.fsync_ms_per_commit and nothing else. When
// commit is non-nil each call is one commit of userBytes payload, and what
// the device saw during it is added there.
func (lr *replayer) eachSelf(cfs *countingFS, name string, n int, commit *deviceTotals, userBytes int64, fn func(i int)) time.Duration {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		c0, s0, w0 := cfs.syncs.Load(), cfs.syncNS.Load(), cfs.written.Load()
		t0 := time.Now()
		fn(i)
		d := time.Since(t0)
		synced := time.Duration(cfs.syncNS.Load() - s0)
		lr.root.under(lr.root.at(name, t0, d), "fsio.SyncFile+SyncDir", t0, synced)
		ds = append(ds, float64(d-synced))
		if commit != nil {
			commit.commits++
			commit.syncs += cfs.syncs.Load() - c0
			commit.syncNS += int64(synced)
			commit.written += cfs.written.Load() - w0
			commit.userBytes += userBytes
		}
	}
	return time.Duration(median(ds))
}

// batch times reps batches of size calls each (one span per batch: the
// calls are too short for a clock read apiece) and returns the median
// per-call time in nanoseconds, as a float: many of these calls take tens
// of nanoseconds, which a Duration would round to a handful of values.
func (lr *replayer) batch(name string, reps, size int, fn func(i int)) float64 {
	ds := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < size; i++ {
			fn(r*size + i)
		}
		d := time.Since(t0)
		lr.root.at(name, t0, d)
		ds = append(ds, float64(d.Nanoseconds())/float64(size))
	}
	return median(ds)
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// cut returns frames [0,n) of v as a clip of its own.
func (v *srcVideo) cut(n int) *srcVideo {
	n = min(n, len(v.frames))
	c := &srcVideo{name: v.name, spec: v.spec, frames: v.frames[:n], labels: v.labels, truth: v.truth}
	for _, d := range v.dets {
		if d.Frame < n {
			c.dets = append(c.dets, d)
		}
	}
	return c
}

func layerReplay(ctx context.Context, e *env, tr *tracer, in layerInputs) (map[string]float64, error) {
	lr := &replayer{root: tr.begin("layer-replay"), vals: map[string]float64{}}
	defer lr.root.end()
	if len(in.clip.labels) == 0 {
		return nil, fmt.Errorf("layer replay: clip %s has no queried labels", in.clip.name)
	}
	gop := e.sc.GOP
	clip := in.clip.cut(2 * gop)
	steps := []func(context.Context, *env, *srcVideo, layerInputs) error{
		lr.codec, lr.indexAndQuery, lr.store, lr.device, lr.cache,
		lr.wireAndMerge, lr.serving, lr.adaptive, lr.liveLayer,
	}
	for _, step := range steps {
		if err := step(ctx, e, clip, in); err != nil {
			return nil, err
		}
	}
	return lr.vals, nil
}

func codecParams(e *env) vcodec.Params {
	p := vcodec.DefaultParams()
	p.GOPLength = e.sc.GOP
	return p
}

func designFor(clip *srcVideo, from, to int) (layout.Layout, []tasm.Rect, error) {
	var boxes []tasm.Rect
	for _, d := range clip.dets {
		if d.Frame >= from && d.Frame < to {
			for _, l := range clip.labels {
				if d.Label == l {
					boxes = append(boxes, d.Box)
				}
			}
		}
	}
	cfg := core.DefaultConfig()
	l, err := layout.Partition(boxes, layout.Fine, cfg.Constraints(clip.spec.W, clip.spec.H))
	return l, boxes, err
}

// codec: vcodec encode/decode of one GOP frame by frame, then container
// EncodeTiled / Parse / DecodeRange on the same GOP.
func (lr *replayer) codec(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	gop := e.sc.GOP
	frames := clip.frames[:gop]
	w, h := clip.spec.W, clip.spec.H
	mpx := float64(w*h) / 1e6
	p := codecParams(e)
	enc, err := vcodec.NewEncoder(w, h, p)
	if err != nil {
		return err
	}
	packets := make([][]byte, gop)
	m0 := mallocs()
	_, encSum := lr.eachSum("vcodec.Encoder.Encode", gop, func(i int) {
		pkt, _, eerr := enc.Encode(frames[i], false)
		if eerr != nil {
			err = eerr
		}
		packets[i] = append([]byte(nil), pkt...)
	})
	encAllocs := float64(mallocs()-m0) / float64(gop)
	enc.Release()
	if err != nil {
		return err
	}
	dec, err := vcodec.NewDecoder(w, h)
	if err != nil {
		return err
	}
	decoded := make([]*frame.Frame, gop)
	m0 = mallocs()
	_, decSum := lr.eachSum("vcodec.Decoder.Decode", gop, func(i int) {
		f, derr := dec.Decode(packets[i])
		if derr != nil {
			err = derr
		}
		decoded[i] = f
	})
	decAllocs := float64(mallocs()-m0) / float64(gop)
	dec.Release()
	if err != nil {
		return err
	}
	// Per megapixel over the whole GOP: one keyframe and its P frames.
	lr.vals["vcodec.encode_ms_per_mpx"] = ms(encSum) / (mpx * float64(gop))
	lr.vals["vcodec.encode_allocs_per_frame"] = encAllocs
	lr.vals["vcodec.decode_ms_per_mpx"] = ms(decSum) / (mpx * float64(gop))
	lr.vals["vcodec.decode_allocs_per_frame"] = decAllocs
	lr.vals["vcodec.psnr_db"] = frame.SequencePSNR(frames, decoded)

	l, _, err := designFor(clip, 0, gop)
	if err != nil {
		return err
	}
	var tiles []*container.Video
	encTiled := lr.each("container.EncodeTiled", 2, func(int) {
		tiles, err = container.EncodeTiledContext(ctx, frames, l, clip.spec.FPS, p)
	})
	if err != nil {
		return err
	}
	lr.vals["container.encode_tiled_ms_per_sot"] = ms(encTiled)
	var size int64
	blobs := make([][]byte, len(tiles))
	for i, t := range tiles {
		size += t.SizeBytes()
		blobs[i] = t.Bytes()
	}
	lr.vals["container.bytes_per_mpx"] = float64(size) / (mpx * float64(gop))
	parse := lr.batch("container.Parse", 8, 4*len(blobs), func(i int) {
		if _, perr := container.Parse(blobs[i%len(blobs)]); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	lr.vals["container.parse_us_per_tile"] = parse / 1e3
	whole, err := container.EncodeVideo(frames, clip.spec.FPS, p)
	if err != nil {
		return err
	}
	// DecodeRange's own time over the GOP, two ways. By subtraction: its wall
	// minus a bare vcodec decode of the same packets, each the best of nine
	// alternated runs (noise only adds time, so the two minima differ by what
	// the container adds, if that is large enough to resolve against a
	// multi-millisecond decode). Directly: the keyframe seek and packet
	// lookups it performs, which is a lower bound on its self time and what
	// is left when subtraction resolves nothing. The metric is the larger.
	bestRange, bestBare := time.Duration(1<<62), time.Duration(1<<62)
	for i := 0; i < 9; i++ {
		t0 := time.Now()
		_, _, derr := whole.DecodeRange(0, gop)
		d := time.Since(t0)
		if derr != nil {
			return derr
		}
		lr.root.at("container.DecodeRange", t0, d)
		t1 := time.Now()
		dec, derr := vcodec.NewDecoder(w, h)
		for k := 0; derr == nil && k < gop; k++ {
			_, derr = dec.Decode(packets[k])
		}
		bare := time.Since(t1)
		if derr != nil {
			return derr
		}
		dec.Release()
		bestRange, bestBare = min(bestRange, d), min(bestBare, bare)
	}
	if bestRange < bestBare*8/10 {
		return fmt.Errorf("layer replay: DecodeRange took %v and a bare decode of its packets %v: the pair does not decode the same thing", bestRange, bestBare)
	}
	// Timed in float nanoseconds over 1024 GOPs a batch: the lookups take
	// tens of nanoseconds, which a truncated Duration would quantise.
	var parts []float64
	for r := 0; r < 8; r++ {
		t0 := time.Now()
		for n := 0; n < 1024; n++ {
			for i := whole.KeyframeBefore(0); i < gop; i++ {
				packetSink = whole.Packet(i)
			}
		}
		d := time.Since(t0)
		lr.root.at("container.KeyframeBefore+Packet x1024", t0, d)
		parts = append(parts, float64(d.Nanoseconds())/1024)
	}
	lr.vals["container.decode_range_self_ms_per_gop"] = max(float64((bestRange-bestBare).Nanoseconds()), median(parts)) / 1e6
	return nil
}

// packetSink keeps the timed packet lookups from being optimised away.
var packetSink []byte

// indexAndQuery: query.Parse on the workload's SQL, semindex add/lookup
// and layout.Partition on the clip's ground truth.
func (lr *replayer) indexAndQuery(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	var err error
	sqls := in.sqls
	if len(sqls) == 0 {
		sqls = []string{fmt.Sprintf("SELECT %s FROM %s", clip.labels[0], clip.name)}
	}
	parse := lr.batch("query.Parse", 8, 4*len(sqls), func(i int) {
		if _, perr := query.Parse(sqls[i%len(sqls)]); perr != nil {
			err = perr
		}
	})
	if err != nil {
		return err
	}
	lr.vals["query.parse_us"] = parse / 1e3

	ix, err := semindex.Open(filepath.Join(e.dir("lr-index"), "semindex.bt"))
	if err != nil {
		return err
	}
	defer ix.Close()
	add := lr.each("semindex.AddBatch", 1, func(int) { err = ix.AddBatch("lr", clip.dets) })
	if err != nil {
		return err
	}
	lr.vals["semindex.add_us_per_det"] = us(add) / float64(max(1, len(clip.dets)))
	n := len(clip.frames)
	var entries int
	look := lr.batch("semindex.LookupBoxes", 8, 4, func(i int) {
		bs, lerr := ix.LookupBoxes("lr", clip.labels[i%len(clip.labels)], 0, n)
		if lerr != nil {
			err = lerr
		}
		entries = len(bs)
	})
	if err != nil {
		return err
	}
	lr.vals["semindex.lookup_us"] = look / 1e3
	last := clip.labels[(8*4-1)%len(clip.labels)]
	lr.vals["semindex.entries_per_region"] = float64(entries) / float64(max(1, len(clip.expected(last, 0, n))))

	gop := e.sc.GOP
	_, boxes, err := designFor(clip, 0, gop)
	if err != nil {
		return err
	}
	cons := core.DefaultConfig().Constraints(clip.spec.W, clip.spec.H)
	part := lr.batch("layout.Partition", 8, 8, func(int) {
		if _, perr := layout.Partition(boxes, layout.Fine, cons); perr != nil {
			err = perr
		}
	})
	lr.vals["layout.partition_us"] = part / 1e3
	return err
}

// storeAPI is store's public-API half; it closes the storage manager so
// the directory can be reopened at the core layer.
func (lr *replayer) storeAPI(ctx context.Context, e *env, clip *srcVideo, dir string) error {
	sm, err := tasm.Open(dir, tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs))
	if err != nil {
		return err
	}
	defer sm.Close()
	if err := storeVideo(ctx, sm, clip, "lr-u", false); err != nil {
		return err
	}
	if _, err := sm.IngestContext(ctx, "lr-t", clip.frames, clip.spec.FPS); err != nil {
		return err
	}
	if err := sm.AddDetections("lr-t", clip.dets); err != nil {
		return err
	}
	// local collects the tiled copy's selects (they become the replay's
	// core.* and layout.* values); plain takes everything else.
	local, plain := newRec(nil), newRec(nil)
	meta, err := sm.Meta("lr-t")
	if err != nil {
		return err
	}
	var tilesPerSOT float64
	for _, sot := range meta.SOTs {
		l, err := sm.DesignLayout("lr-t", sot.ID, clip.labels)
		if err != nil {
			return err
		}
		t0 := time.Now()
		rst, err := sm.RetileSOTContext(ctx, "lr-t", sot.ID, l)
		if err != nil {
			return err
		}
		d := time.Since(t0)
		lr.root.at("core.RetileSOT", t0, d)
		local.retile(rst, d)
		tilesPerSOT += float64(l.NumTiles()) / float64(len(meta.SOTs))
	}
	lr.vals["layout.tiles_per_sot"] = tilesPerSOT
	n := len(clip.frames)
	var tWall, uWall, tFull, uFull []float64
	for i := 0; i < 8; i++ {
		o := selectOp{label: clip.labels[i%len(clip.labels)], from: 0, to: n}
		rt := timedSelect(ctx, sm, local, clip, "lr-t", o)
		ru := timedSelect(ctx, sm, plain, clip, "lr-u", o)
		if !rt.ok || !ru.ok {
			return fmt.Errorf("layer replay select on %s failed: %v %v", clip.name, local.firstErr, plain.firstErr)
		}
		// Tiling must not change the answer: identical rects, frame by frame.
		if err := sameRegions(rt.regions, ru.regions, false); err != nil {
			return fmt.Errorf("tiled and untiled answers differ: %w", err)
		}
		tWall, uWall = append(tWall, ms(rt.wall)), append(uWall, ms(ru.wall))
	}
	for i := 0; i < 3; i++ {
		tFull = append(tFull, ms(timedFullscan(ctx, sm, plain, clip, "lr-t", false)))
		uFull = append(uFull, ms(timedFullscan(ctx, sm, plain, clip, "lr-u", false)))
	}
	if plain.firstErr != nil {
		return fmt.Errorf("layer replay full scan on %s failed: %v", clip.name, plain.firstErr)
	}
	lr.vals["layout.tiling_gain"] = median(uWall) / median(tWall)
	lr.vals["layout.fullscan_tiled_over_untiled"] = median(tFull) / median(uFull)
	local.scans.into(lr.vals)
	return nil
}

// store: the clip stored twice through the public API (untiled and tiled),
// compared query by query; then the same directory opened at the core
// layer for snapshot and tile reads.
func (lr *replayer) store(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	dir := e.dir("lr-store")
	if err := lr.storeAPI(ctx, e, clip, dir); err != nil {
		return err
	}
	n := len(clip.frames)
	cfg := core.DefaultConfig()
	cfg.Codec.GOPLength = e.sc.GOP
	m, err := core.Open(dir, cfg)
	if err != nil {
		return err
	}
	defer m.Close()
	var lease *tilestore.Lease
	var vm tilestore.VideoMeta
	snap := lr.batch("tilestore.SnapshotRange", 8, 16, func(int) {
		if lease != nil {
			lease.Release()
		}
		vm, lease, err = m.Store().SnapshotRange("lr-t", 0, n)
	})
	if err != nil {
		return err
	}
	defer lease.Release()
	lr.vals["tilestore.snapshot_us"] = snap / 1e3
	sot := vm.SOTs[0]
	read := lr.batch("tilestore.Lease.ReadTile", 8, 8, func(i int) {
		if _, rerr := lease.ReadTile(sot, i%sot.L.NumTiles()); rerr != nil {
			err = rerr
		}
	})
	lr.vals["tilestore.read_tile_us"] = read / 1e3
	return err
}

// device: the tilestore driven directly over the counting FS wrapper —
// create, replace, GC, the append-size ladder, trim — and the device
// counts per commit.
func (lr *replayer) device(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	cfs := &countingFS{FS: fsio.OS{}, delay: e.fsyncDelay}
	st, err := tilestore.Open(e.dir("lr-device"), tilestore.WithFS(cfs))
	if err != nil {
		return err
	}
	defer st.Close()
	gop := e.sc.GOP
	w, h := clip.spec.W, clip.spec.H
	p := codecParams(e)
	single := layout.Single(w, h)
	tiled, _, err := designFor(clip, 0, gop)
	if err != nil {
		return err
	}
	frames := clip.frames[:gop]
	oneTile, err := container.EncodeTiled(frames, single, clip.spec.FPS, p)
	if err != nil {
		return err
	}
	manyTiles, err := container.EncodeTiled(frames, tiled, clip.spec.FPS, p)
	if err != nil {
		return err
	}
	size := func(ts []*container.Video) (n int64) {
		for _, t := range ts {
			n += t.SizeBytes()
		}
		return n
	}
	var dev deviceTotals
	create := lr.eachSelf(cfs, "tilestore.CreateVideo", 3, &dev, 2*size(oneTile), func(i int) {
		meta := tilestore.VideoMeta{Name: fmt.Sprintf("dev-%d", i), W: w, H: h, FPS: clip.spec.FPS, GOPLength: gop, FrameCount: 2 * gop,
			SOTs: []tilestore.SOTMeta{{ID: 0, From: 0, To: gop, L: single}, {ID: 1, From: gop, To: 2 * gop, L: single}}}
		if cerr := st.CreateVideo(meta, [][]*container.Video{oneTile, oneTile}); cerr != nil {
			err = cerr
		}
	})
	if err != nil {
		return err
	}
	lr.vals["tilestore.create_video_ms"] = ms(create)
	// Two to the tiled layout and two back, so the user bytes per call
	// average the two sizes.
	replace := lr.eachSelf(cfs, "tilestore.ReplaceSOT", 4, &dev, (size(manyTiles)+size(oneTile))/2, func(i int) {
		l, ts := tiled, manyTiles
		if i%2 == 1 {
			l, ts = single, oneTile
		}
		if rerr := st.ReplaceSOT("dev-0", 0, l, ts); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		return err
	}
	lr.vals["tilestore.replace_sot_ms"] = ms(replace)
	gc := lr.eachSelf(cfs, "tilestore.GC", 1, nil, 0, func(int) { _, err = st.GC() })
	if err != nil {
		return err
	}
	lr.vals["tilestore.gc_ms"] = ms(gc)

	// The append-size ladder: one live video grown to each length with
	// syncs skipped, then five measured appends with syncs on. A flat
	// ladder means append cost does not depend on how long the video is.
	tiny := frame.New(32, 32)
	tinyTiles, err := container.EncodeTiled([]*frame.Frame{tiny}, layout.Single(32, 32), clip.spec.FPS, p)
	if err != nil {
		return err
	}
	if err := st.CreateLiveVideo(tilestore.VideoMeta{Name: "ladder", W: 32, H: 32, FPS: clip.spec.FPS, GOPLength: 1}); err != nil {
		return err
	}
	length := 0
	for k, target := range e.sc.LadderLens {
		cfs.quiet.Store(true)
		for ; length < target; length++ {
			if _, err := st.AppendSOT("ladder", layout.Single(32, 32), tinyTiles); err != nil {
				return err
			}
		}
		cfs.quiet.Store(false)
		d := lr.eachSelf(cfs, "tilestore.AppendSOT", 5, &dev, size(tinyTiles), func(int) {
			if _, aerr := st.AppendSOT("ladder", layout.Single(32, 32), tinyTiles); aerr != nil {
				err = aerr
			}
		})
		if err != nil {
			return err
		}
		length += 5
		lr.vals[[]string{"tilestore.append_sot_ms_len10", "tilestore.append_sot_ms_len100", "tilestore.append_sot_ms_len1000"}[k]] = ms(d)
	}

	// Device counts per commit, over the measured commits alone: 3 creates,
	// 4 replaces and 15 appends. GC, CreateLiveVideo and the ladder's prefill
	// are in neither the numerators nor the commit count.
	lr.vals["tilestore.fsyncs_per_commit"] = float64(dev.syncs) / float64(dev.commits)
	lr.vals["tilestore.fsync_ms_per_commit"] = float64(dev.syncNS) / 1e6 / float64(dev.commits)
	lr.vals["tilestore.bytes_written_per_user_byte"] = float64(dev.written) / float64(dev.userBytes)

	// Snapshots while another goroutine commits: readers and the appender
	// meet on the store's catalog lock.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	var appendErr error
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, aerr := st.AppendSOT("ladder", layout.Single(32, 32), tinyTiles); aerr != nil {
				appendErr = aerr
				return
			}
		}
	}()
	var snaps []float64
	for t0 := time.Now(); time.Since(t0) < 200*time.Millisecond; {
		s0 := time.Now()
		_, lease, serr := st.SnapshotRange("dev-0", 0, gop)
		d := time.Since(s0)
		if serr != nil {
			err = serr
			break
		}
		lease.Release()
		lr.root.at("tilestore.SnapshotRange(under append)", s0, d)
		snaps = append(snaps, us(d))
		time.Sleep(200 * time.Microsecond)
	}
	close(stop)
	wg.Wait()
	if err == nil {
		err = appendErr
	}
	if err != nil {
		return err
	}
	lr.vals["tilestore.snapshot_us_p95_under_append"] = percentile(snaps, 95)

	// One retention pass that expires the ten oldest SOTs of the (by now
	// long) ladder video; each SOT is one frame.
	lm, err := st.Meta("ladder")
	if err != nil {
		return err
	}
	if err := st.SetRetention("ladder", &tilestore.RetentionPolicy{MaxAgeFrames: lm.FrameCount - 10}); err != nil {
		return err
	}
	trim := lr.eachSelf(cfs, "tilestore.TrimExpired", 1, nil, 0, func(int) { _, err = st.TrimExpired("ladder") })
	if err != nil {
		return err
	}
	lr.vals["tilestore.trim_ms"] = ms(trim)
	return nil
}

// cache: tilecache Put and Get on decoded GOPs, with a budget small enough
// that puts evict.
func (lr *replayer) cache(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	gop := e.sc.GOP
	frames := clip.frames[:gop]
	var entry int64
	for _, f := range frames {
		entry += frameBytes(f)
	}
	c := tilecache.New(8 * entry)
	key := func(i int) tilecache.Key { return tilecache.Key{Video: "lr", SOT: i % 12, Tile: 0} }
	put := lr.batch("tilecache.Put", 8, 12, func(i int) { c.Put(key(i), frames) })
	get := lr.batch("tilecache.Get", 8, 256, func(i int) { c.Get(key(i), gop) })
	lr.vals["tilecache.put_us"] = put / 1e3
	lr.vals["tilecache.get_us"] = get / 1e3
	st := c.Stats()
	lr.vals["tilecache.bytes_cached_mb"] = float64(st.BytesCached) / 1e6
	if _, ok := lr.vals["tilecache.hit_ratio"]; !ok && st.Hits+st.Misses > 0 {
		lr.vals["tilecache.hit_ratio"] = float64(st.Hits) / float64(st.Hits+st.Misses)
		lr.vals["tilecache.evictions_per_op"] = float64(st.Evictions) / float64(8*12)
	}
	return nil
}

// sliceSource feeds shard.NewRegionMerge from memory.
type sliceSource struct {
	rs []tasm.RegionResult
	i  int
}

func (s *sliceSource) Next() bool                { s.i++; return s.i <= len(s.rs) }
func (s *sliceSource) Result() tasm.RegionResult { return s.rs[s.i-1] }
func (s *sliceSource) Err() error                { return nil }
func (s *sliceSource) Stats() tasm.ScanStats     { return tasm.ScanStats{} }
func (s *sliceSource) Close() error              { return nil }

// wireAndMerge: both rpcwire framings over a buffer, and the router's
// K-way merge over in-memory sources, on one of the workload's answers.
func (lr *replayer) wireAndMerge(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	regions := in.regions
	if len(regions) == 0 {
		n := len(clip.frames)
		for _, w := range clip.expected(clip.labels[0], 0, n) {
			regions = append(regions, tasm.RegionResult{Frame: w.frame, Region: w.rect, Pixels: clip.frames[w.frame].Crop(w.rect)})
		}
	}
	if len(regions) == 0 {
		return fmt.Errorf("layer replay: no regions to frame")
	}
	var payload int64
	lines := make([]rpcwire.StreamLine, len(regions))
	for i, r := range regions {
		payload += frameBytes(r.Pixels)
		reg := rpcwire.FromRegion(r)
		lines[i] = rpcwire.StreamLine{Region: &reg}
	}
	mbs := func(d time.Duration) float64 { return float64(payload) / 1e6 / d.Seconds() }
	var err error
	var bin, nd bytes.Buffer
	encB := lr.each("rpcwire.FrameStreamWriter", 5, func(int) {
		bin.Reset()
		w := rpcwire.NewFrameStreamWriter(&bin)
		for _, l := range lines {
			if werr := w.WriteLine(l); werr != nil {
				err = werr
			}
		}
		if ferr := w.Flush(); ferr != nil {
			err = ferr
		}
	})
	decB := lr.each("rpcwire.FrameStreamReader", 5, func(int) {
		r := rpcwire.NewFrameStreamReader(bytes.NewReader(bin.Bytes()))
		for range lines {
			l, rerr := r.ReadLine()
			if rerr == nil {
				_, rerr = l.Region.ToRegion()
			}
			if rerr != nil {
				err = rerr
				return
			}
		}
	})
	encN := lr.each("rpcwire.ndjson.Encode", 5, func(int) {
		nd.Reset()
		enc := json.NewEncoder(&nd)
		for _, l := range lines {
			if eerr := enc.Encode(l); eerr != nil {
				err = eerr
			}
		}
	})
	decN := lr.each("rpcwire.ndjson.Decode", 5, func(int) {
		br := bufio.NewReader(bytes.NewReader(nd.Bytes()))
		for range lines {
			raw, rerr := br.ReadBytes('\n')
			var l rpcwire.StreamLine
			if rerr == nil || rerr == io.EOF {
				rerr = json.Unmarshal(raw, &l)
			}
			if rerr == nil {
				_, rerr = l.Region.ToRegion()
			}
			if rerr != nil {
				err = rerr
				return
			}
		}
	})
	if err != nil {
		return err
	}
	lr.vals["rpcwire.binary_encode_mb_s"] = mbs(encB)
	lr.vals["rpcwire.binary_decode_mb_s"] = mbs(decB)
	lr.vals["rpcwire.ndjson_encode_mb_s"] = mbs(encN)
	lr.vals["rpcwire.ndjson_decode_mb_s"] = mbs(decN)
	lr.vals["rpcwire.wire_bytes_per_payload_byte"] = float64(bin.Len()) / float64(payload)

	merge := lr.each("shard.NewRegionMerge", 5, func(int) {
		m := shard.NewRegionMerge(&sliceSource{rs: regions}, &sliceSource{rs: regions}, &sliceSource{rs: regions})
		n := 0
		for m.Next() {
			n++
		}
		if n != 3*len(regions) || m.Err() != nil {
			err = fmt.Errorf("merge delivered %d of %d regions: %v", n, 3*len(regions), m.Err())
		}
		m.Close()
	})
	lr.vals["shard.merge_us_per_region"] = us(merge) / float64(3*len(regions))
	return err
}

// traceRecord reads a finished request's record from a daemon's trace ring.
// A daemon files the record when its handler returns, which can be a moment
// after the client has read the stream's last byte, so a miss is retried for
// up to a quarter of a second; there is nothing outside the daemon to wait on.
func traceRecord(ctx context.Context, c *client.Client, id string) (obs.Record, bool) {
	var rec obs.Record
	for try := 0; try < 50 && ctx.Err() == nil; try++ {
		if raw, err := c.TraceContext(ctx, id); err == nil {
			return rec, json.Unmarshal(raw, &rec) == nil
		}
		time.Sleep(5 * time.Millisecond)
	}
	return rec, false
}

// spanMeanUS is the mean duration, in microseconds, of the span called name
// over the requests with the given trace ids. The daemons record spans in
// whole microseconds; the mean over many requests has the digits one
// reading lacks.
func spanMeanUS(ctx context.Context, c *client.Client, ids []string, name string) (float64, bool) {
	var sum float64
	for _, id := range ids {
		rec, ok := traceRecord(ctx, c, id)
		if !ok {
			return 0, false
		}
		found := false
		for _, s := range rec.Spans {
			if s.Name == name {
				sum, found = sum+float64(s.DurUS), true
				break
			}
		}
		if !found {
			return 0, false
		}
	}
	return sum / float64(len(ids)), len(ids) > 0
}

// serving: the clip behind two served stores and a router; the same warm
// scan in-process, direct (both framings) and routed.
func (lr *replayer) serving(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	fl, err := startFleet(e, 2, tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs), tasm.WithCacheBudget(warmCacheBudget))
	if err != nil {
		return err
	}
	defer fl.close()
	sh := fl.owner("lr-a")
	sm := fl.sms[sh]
	if err := storeVideo(ctx, sm, clip, "lr-a", true); err != nil {
		return err
	}
	sql := fmt.Sprintf("SELECT %s FROM lr-a", clip.labels[0])
	if _, _, err := sm.ScanSQLContext(ctx, sql); err != nil { // warm
		return err
	}
	meta := lr.each("client.Meta", 20, func(int) {
		if _, merr := fl.bin[sh].MetaContext(ctx, "lr-a"); merr != nil {
			err = merr
		}
	})
	if err != nil {
		return err
	}
	lr.vals["server.request_overhead_ms"] = ms(meta)
	var inproc, direct, ndj, routed []float64
	var ndBytes int64
	var directIDs, routedIDs []string
	for i := 0; i < 6; i++ {
		t0 := time.Now()
		if _, _, err := sm.ScanSQLContext(ctx, sql); err != nil {
			return err
		}
		d := time.Since(t0)
		lr.root.at("core.Scan(in-process)", t0, d)
		inproc = append(inproc, ms(d))
		rb, err := remoteScan(ctx, fl.bin[sh], sql)
		if err != nil {
			return err
		}
		direct, directIDs = append(direct, ms(rb.wall)), append(directIDs, rb.traceID)
		rn, err := remoteScan(ctx, fl.ndjson[sh], sql)
		if err != nil {
			return err
		}
		ndj, ndBytes = append(ndj, ms(rn.wall)), rn.bytes
		rr, err := remoteScan(ctx, fl.routed, sql)
		if err != nil {
			return err
		}
		routed, routedIDs = append(routed, ms(rr.wall)), append(routedIDs, rr.traceID)
		if rb.stats.FramesDecoded+rn.stats.FramesDecoded+rr.stats.FramesDecoded != 0 {
			return fmt.Errorf("layer replay: warm remote scan decoded frames")
		}
	}
	lr.vals["server.stream_over_inproc_ratio"] = median(direct) / median(inproc)
	lr.vals["shard.routed_over_direct_ratio"] = median(routed) / median(direct)
	if _, ok := lr.vals["server.ndjson_drain_mb_s"]; !ok {
		lr.vals["server.ndjson_drain_mb_s"] = float64(ndBytes) / 1e6 / (median(ndj) / 1e3)
	}
	// The daemons' own spans, read back from their trace rings: flush over
	// the direct scans, route and merge over the routed ones. (The auth and
	// admit spans are not reported: on an open daemon both take well under
	// the ring's one-microsecond resolution and read 0 on every request.)
	for _, sp := range []struct {
		c      *client.Client
		ids    []string
		name   string
		metric string
		perUS  float64 // metric units per microsecond
	}{
		{fl.bin[sh], directIDs, "flush", "server.span_flush_ms", 1e-3},
		{fl.routed, routedIDs, "route", "shard.span_route_us", 1},
		{fl.routed, routedIDs, "merge", "shard.span_merge_ms", 1e-3},
	} {
		v, ok := spanMeanUS(ctx, sp.c, sp.ids, sp.name)
		if !ok {
			return fmt.Errorf("layer replay: span %q missing from a daemon's trace ring", sp.name)
		}
		lr.vals[sp.metric] = v * sp.perUS
	}
	return nil
}

// adaptive: Recorder.ObserveScan alone, then a miniature of the paper's
// section 4.4 loop on the clip — six queries, a kick, six more — against
// the same twelve on frozen untiled layouts.
func (lr *replayer) adaptive(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	rec := adapt.NewRecorder(0)
	q, err := query.Parse(fmt.Sprintf("SELECT %s FROM lr-u WHERE 0 <= t < %d", clip.labels[0], len(clip.frames)))
	if err != nil {
		return err
	}
	obsD := lr.batch("adapt.Recorder.ObserveScan", 8, 2048, func(i int) {
		rec.ObserveScan(core.ScanObservation{Query: q, SOTs: 2})
		if i%512 == 511 {
			rec.Drain(1 << 20)
		}
	})
	lr.vals["adapt.observe_ns"] = obsD

	n := len(clip.frames)
	replay := func(adaptive bool) (time.Duration, tasm.AutotileStatus, time.Duration, error) {
		opts := []tasm.Option{tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs)}
		if adaptive {
			opts = append(opts, tasm.WithAdaptiveTiling(), tasm.WithAutotileInterval(time.Hour))
		}
		sm, err := tasm.Open(e.dir("lr-adapt"), opts...)
		if err != nil {
			return 0, tasm.AutotileStatus{}, 0, err
		}
		defer sm.Close()
		if err := storeVideo(ctx, sm, clip, "lr-u", false); err != nil {
			return 0, tasm.AutotileStatus{}, 0, err
		}
		local := newRec(nil)
		var total, kick time.Duration
		for i := 0; i < 12; i++ {
			res := timedSelect(ctx, sm, local, clip, "lr-u", selectOp{label: clip.labels[i%len(clip.labels)], from: 0, to: n})
			if !res.ok {
				return 0, tasm.AutotileStatus{}, 0, local.firstErr
			}
			total += res.wall
			if adaptive && i == 5 {
				t0 := time.Now()
				if _, err := sm.AutotileKick(ctx); err != nil {
					return 0, tasm.AutotileStatus{}, 0, err
				}
				kick = time.Since(t0)
				lr.root.at("adapt.Retiler.Kick", t0, kick)
				total += kick
			}
		}
		return total, sm.AutotileStatus(), kick, nil
	}
	adaptiveWall, st, kick, err := replay(true)
	if err != nil {
		return err
	}
	frozenWall, _, _, err := replay(false)
	if err != nil {
		return err
	}
	lr.vals["adapt.kick_ms"] = ms(kick)
	lr.vals["adapt.actions_applied"] = float64(st.ActionsApplied)
	lr.vals["adapt.retile_bytes"] = float64(st.BytesSpent)
	lr.vals["adapt.replay_gain"] = frozenWall.Seconds() / adaptiveWall.Seconds()
	return nil
}

// liveLayer: the commit hub and the commit queue alone, then a short paced
// append series with one subscriber on a scratch live video.
func (lr *replayer) liveLayer(ctx context.Context, e *env, clip *srcVideo, in layerInputs) error {
	hub := live.NewHub()
	sub := hub.Subscribe("v", 0)
	defer sub.Close()
	woke := make(chan time.Time)
	wctx, cancel := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		after := 0
		for {
			committed, err := sub.Wait(wctx, after)
			if err != nil {
				return
			}
			after = committed
			select {
			case woke <- time.Now():
			case <-wctx.Done():
				return
			}
		}
	}()
	var wakes []float64
	for i := 1; i <= 200; i++ {
		time.Sleep(50 * time.Microsecond) // let the waiter park again
		t0 := time.Now()
		hub.Publish("v", i)
		t1 := <-woke
		lr.root.at("live.Hub.Publish->Sub.Wait", t0, t1.Sub(t0))
		wakes = append(wakes, us(t1.Sub(t0)))
	}
	cancel()
	wg.Wait()
	lr.vals["live.publish_to_wake_us"] = medianOfMeans(wakes, 10)

	ing := live.NewIngestor(0)
	var waits []float64
	for i := 0; i < 100; i++ {
		var started time.Time
		t0 := time.Now()
		if err := ing.Do(ctx, "v", func() error { started = time.Now(); return nil }); err != nil {
			return err
		}
		lr.root.at("live.Ingestor.Do(dispatch)", t0, started.Sub(t0))
		waits = append(waits, ms(started.Sub(t0)))
	}
	lr.vals["live.queue_wait_ms"] = medianOfMeans(waits, 10)

	sm, err := tasm.Open(e.dir("lr-live"), tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs))
	if err != nil {
		return err
	}
	defer sm.Close()
	gop := e.sc.GOP
	if err := sm.CreateLiveVideo("lr-cam", clip.spec.W, clip.spec.H, clip.spec.FPS, &tasm.RetentionPolicy{MaxAgeFrames: 4 * gop}); err != nil {
		return err
	}
	cur, err := sm.Subscribe(ctx, "lr-cam", 0)
	if err != nil {
		return err
	}
	got := make(chan int, 1)
	go func() {
		n := 0
		for cur.Next() {
			n++
		}
		got <- n
	}()
	local := newRec(nil)
	var late []float64
	rejects := 0
	// Six appends on a clock whose period leaves room for one append of
	// the clip's size (timed first), so lateness is the generator's.
	const appends = 6
	var period time.Duration
	var start time.Time
	for k := 0; k < appends; k++ {
		if k > 0 {
			lateBy, waited := sleepUntil(ctx, start.Add(time.Duration(k)*period))
			if waited {
				late = append(late, ms(lateBy))
			}
		}
		t0 := time.Now()
		st, err := sm.AppendGOPContext(ctx, "lr-cam", clip.frames[(k%2)*gop:(k%2+1)*gop])
		d := time.Since(t0)
		lr.root.at("core.AppendGOP", t0, d)
		if err != nil {
			rejects++
			continue
		}
		local.appended(st, d)
		if k == 0 {
			period, start = 3*d/2, time.Now()
		}
	}
	if err := sm.SealVideo("lr-cam"); err != nil {
		return err
	}
	n := <-got
	cerr := cur.Err()
	cur.Close()
	if cerr != nil || n != (appends-rejects)*gop {
		return fmt.Errorf("layer replay: subscriber got %d frames of %d: %v", n, (appends-rejects)*gop, cerr)
	}
	local.scans.into(lr.vals)
	lr.vals["live.generator_lateness_ms_p95"] = percentile(late, 95)
	lr.vals["live.backpressure_rejects"] = float64(rejects)
	return nil
}
