package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/server"
	"github.com/tasm-repro/tasm/internal/shard"
)

// fleet is n in-process tasmd handlers on real loopback listeners behind
// one in-process router, also on a real listener: the remote path
// includes TCP, HTTP chunking and both wire codecs.
type fleet struct {
	sms    []*tasm.StorageManager
	srvs   []*http.Server
	ring   *shard.Map
	rt     *shard.Router
	bin    []*client.Client // per shard, binary framing
	ndjson []*client.Client // per shard, NDJSON framing
	routed *client.Client   // the router, binary framing
}

func listenAndServe(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln) //nolint:errcheck // ends with ErrServerClosed at Shutdown
	return srv, ln.Addr().String(), nil
}

// startFleet opens n stores under the run root and serves them.
func startFleet(e *env, n int, opts ...tasm.Option) (*fleet, error) {
	f := &fleet{}
	var entries []shard.MapEntry
	for i := 0; i < n; i++ {
		sm, err := tasm.Open(e.dir(fmt.Sprintf("shard%d", i)), opts...)
		if err != nil {
			f.close()
			return nil, err
		}
		f.sms = append(f.sms, sm)
		srv, addr, err := listenAndServe(server.New(sm, server.Config{}))
		if err != nil {
			f.close()
			return nil, err
		}
		f.srvs = append(f.srvs, srv)
		entries = append(entries, shard.MapEntry{Name: fmt.Sprintf("s%d", i), Addr: addr})
		cb, err := client.New(addr, client.WithEncoding(client.Binary))
		if err != nil {
			f.close()
			return nil, err
		}
		f.bin = append(f.bin, cb)
		cn, err := client.New(addr, client.WithEncoding(client.NDJSON))
		if err != nil {
			f.close()
			return nil, err
		}
		f.ndjson = append(f.ndjson, cn)
	}
	ring, err := shard.NewMap(entries, 0)
	if err != nil {
		f.close()
		return nil, err
	}
	f.ring = ring
	rt, err := shard.NewRouter(ring, shard.RouterConfig{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.rt = rt
	srv, addr, err := listenAndServe(rt)
	if err != nil {
		f.close()
		return nil, err
	}
	f.srvs = append(f.srvs, srv)
	if f.routed, err = client.New(addr, client.WithEncoding(client.Binary)); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// owner returns the index of the shard the ring assigns video to.
func (f *fleet) owner(video string) int {
	name := f.ring.Owner(video).Name
	for i, e := range f.ring.Shards() {
		if e.Name == name {
			return i
		}
	}
	return 0
}

func (f *fleet) close() {
	for _, c := range append(append([]*client.Client{f.routed}, f.bin...), f.ndjson...) {
		if c != nil {
			c.Close()
		}
	}
	for _, srv := range f.srvs {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(ctx) //nolint:errcheck // teardown
		cancel()
	}
	if f.rt != nil {
		f.rt.Close()
	}
	for _, sm := range f.sms {
		sm.Close()
	}
}

// remoteResult is one drained remote scan.
type remoteResult struct {
	regions []tasm.RegionResult
	stats   tasm.ScanStats
	wall    time.Duration
	first   time.Duration
	bytes   int64
	traceID string
}

// remoteScan streams sql through c and drains it.
func remoteScan(ctx context.Context, c *client.Client, sql string) (remoteResult, error) {
	var res remoteResult
	t0 := time.Now()
	cur, err := c.ScanSQLCursor(ctx, sql)
	if err != nil {
		return res, err
	}
	defer cur.Close()
	for cur.Next() {
		if len(res.regions) == 0 {
			res.first = time.Since(t0)
		}
		rr := cur.Result()
		res.bytes += frameBytes(rr.Pixels)
		res.regions = append(res.regions, rr)
	}
	res.wall = time.Since(t0)
	res.stats, res.traceID = cur.Stats(), cur.TraceID()
	return res, cur.Err()
}

// copyObsSpans copies a finished request's spans from a daemon's trace
// ring under the operation's root span. Record.Start is on this process's
// clock (the daemons are in-process), so the spans land where they ran.
func copyObsSpans(ctx context.Context, root *opSpan, c *client.Client, id, tier string) {
	if root == nil || id == "" {
		return
	}
	rec, ok := traceRecord(ctx, c, id)
	if !ok {
		return // evicted from the ring; the root span still stands
	}
	for _, s := range rec.Spans {
		root.at(tier+"."+s.Name, rec.Start.Add(time.Duration(s.StartUS)*time.Microsecond), time.Duration(s.DurUS)*time.Microsecond)
	}
}

// remoteWL is remote-stream: a closed loop of one connection at a time
// over loopback TCP, rotating direct/binary, direct/NDJSON and
// routed/binary (a two-video FROM, so the K-way merge runs) over warm
// caches and 3-SOT windows. Series: op is the routed scan's wall,
// first_result the direct/binary time to first region, payload the
// direct/binary drain rate.
type remoteWL struct {
	vids     []*srcVideo
	ops      []selectOp
	fl       *fleet
	inproc   map[string][]tasm.RegionResult // sql -> checked in-process answer
	decoded  int64
	ndjsonMB float64
	ndjsonS  float64
	last     []tasm.RegionResult
}

func (w *remoteWL) inputs(e *env, fp *fingerprint) error {
	vids, err := genCorpus(e, corpusSpecs(e), e.sc.Frames)
	if err != nil {
		return err
	}
	w.vids = vids
	nSOT := e.sc.Frames / e.sc.GOP
	win := min(3, nSOT)
	w.ops = genSelectOps(e.seed*7919+13, e.sc.SeqOps, len(vids), nSOT, e.sc.GOP, win, win)
	fp.videos(vids)
	for i, o := range w.ops {
		fp.text(fmt.Sprintf("%d %s", i%3, o.sql(vids[o.vid].name+"-t")))
	}
	return nil
}

func (w *remoteWL) setup(ctx context.Context, e *env) error {
	w.teardown()
	fl, err := startFleet(e, 2, tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs), tasm.WithCacheBudget(warmCacheBudget))
	if err != nil {
		return err
	}
	w.fl = fl
	w.inproc = map[string][]tasm.RegionResult{}
	errs := make([]error, len(w.vids))
	parallelDo(e.procs, len(w.vids), func(i int) {
		v := w.vids[i]
		sm := fl.sms[fl.owner(v.name+"-t")]
		if errs[i] = storeVideo(ctx, sm, v, v.name+"-t", true); errs[i] != nil {
			return
		}
		for _, l := range v.labels { // warm the owner's cache
			if _, _, err := sm.ScanSQLContext(ctx, fmt.Sprintf("SELECT %s FROM %s-t", l, v.name)); err != nil {
				errs[i] = err
				return
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// answer returns the checked in-process answer for one single-video op,
// computing it once per distinct query.
func (w *remoteWL) answer(ctx context.Context, o selectOp) ([]tasm.RegionResult, error) {
	v := w.vids[o.vid]
	sql := o.sql(v.name + "-t")
	if got, ok := w.inproc[sql]; ok {
		return got, nil
	}
	got, _, err := w.fl.sms[w.fl.owner(v.name+"-t")].ScanSQLContext(ctx, sql)
	if err != nil {
		return nil, err
	}
	if _, err := checkRegions(v, o.label, o.from, o.to, got); err != nil {
		return nil, err
	}
	w.inproc[sql] = got
	return got, nil
}

// partner picks the second video of a routed query: the next corpus video
// on another shard when there is one, so the merge gathers across shards.
func (w *remoteWL) partner(vid int) int {
	own := w.fl.owner(w.vids[vid].name + "-t")
	for k := 1; k < len(w.vids); k++ {
		j := (vid + k) % len(w.vids)
		if w.fl.owner(w.vids[j].name+"-t") != own {
			return j
		}
	}
	return (vid + 1) % len(w.vids)
}

func (w *remoteWL) run(ctx context.Context, e *env, r *rec, b budget) {
	b.begin()
	for i := 0; b.more(i); i++ {
		if i > 0 && i%(3*batchOps) == 0 {
			r.endBatch()
		}
		o := w.ops[i%len(w.ops)]
		v := w.vids[o.vid]
		name := v.name + "-t"
		want, err := w.answer(ctx, o)
		r.attempt()
		if err != nil {
			r.fail(err)
			continue
		}
		sh := w.fl.owner(name)
		switch i % 3 {
		case 0, 1:
			c, kind := w.fl.bin[sh], "op:remote-binary"
			if i%3 == 1 {
				c, kind = w.fl.ndjson[sh], "op:remote-ndjson"
			}
			root := r.tr.begin(kind)
			res, err := remoteScan(ctx, c, o.sql(name))
			root.end()
			copyObsSpans(ctx, root, c, res.traceID, "server")
			if err == nil {
				err = sameRegions(res.regions, want, true)
			}
			if err != nil {
				r.fail(fmt.Errorf("%s %s: %w", kind, o.sql(name), err))
				continue
			}
			w.decoded += res.stats.FramesDecoded
			if i%3 == 0 {
				r.first(res.first)
				r.moved(res.bytes, res.wall)
				r.scan(res.stats, res.wall, res.first, res.bytes)
				w.last = res.regions
			} else {
				w.ndjsonMB += float64(res.bytes) / 1e6
				w.ndjsonS += res.wall.Seconds()
			}
		case 2:
			po := o
			po.vid = w.partner(o.vid)
			pv := w.vids[po.vid]
			pwant, err := w.answer(ctx, po)
			if err != nil {
				r.fail(err)
				continue
			}
			sql := fmt.Sprintf("SELECT %s FROM %s,%s WHERE %d <= t < %d", o.label, name, pv.name+"-t", o.from, o.to)
			root := r.tr.begin("op:remote-routed")
			res, err := remoteScan(ctx, w.fl.routed, sql)
			root.end()
			copyObsSpans(ctx, root, w.fl.routed, res.traceID, "shard")
			// One leg per video; both legs carry the request's trace id.
			psh := w.fl.owner(pv.name + "-t")
			copyObsSpans(ctx, root, w.fl.bin[sh], res.traceID, "server")
			if psh != sh {
				copyObsSpans(ctx, root, w.fl.bin[psh], res.traceID, "server")
			}
			if err == nil {
				// FROM-list order breaks ties between videos on one frame.
				merged := append(append([]tasm.RegionResult(nil), want...), pwant...)
				sort.SliceStable(merged, func(a, b int) bool { return merged[a].Frame < merged[b].Frame })
				err = sameRegions(res.regions, merged, true)
			}
			if err != nil {
				r.fail(fmt.Errorf("routed %s: %w", sql, err))
				continue
			}
			w.decoded += res.stats.FramesDecoded
			r.op(res.wall)
		}
	}
	if w.ndjsonS > 0 {
		r.setNative("server.ndjson_drain_mb_s", w.ndjsonMB/w.ndjsonS)
	}
}

func (w *remoteWL) stored() (stored, raw int64, err error) {
	for _, v := range w.vids {
		b, err := w.fl.sms[w.fl.owner(v.name+"-t")].VideoBytes(v.name + "-t")
		if err != nil {
			return 0, 0, err
		}
		stored += b
		raw += v.rawBytes()
	}
	return stored, raw, nil
}

func (w *remoteWL) assert(r *rec) error {
	if w.decoded != 0 {
		return fmt.Errorf("remote-stream: %d frames decoded after warm-up, want 0", w.decoded)
	}
	return nil
}

func (w *remoteWL) layerInputs() layerInputs {
	return layerInputs{clip: w.vids[0], sqls: sampleSQL(w.vids, w.ops, "-t"), regions: w.last}
}

func (w *remoteWL) teardown() {
	if w.fl != nil {
		w.fl.close()
		w.fl = nil
	}
}
