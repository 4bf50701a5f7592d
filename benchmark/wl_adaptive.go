package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/tasm-repro/tasm"
)

// kickEvery is the replay's action schedule: a synchronous AutotileKick
// after every tenth query, so re-tiling happens at the same points of the
// sequence on every run.
const kickEvery = 10

// adaptiveWL is adaptive-replay: fixed work, repeated. Each replay opens a
// fresh store holding the three untiled videos with adaptive tiling on and
// the cache off, and issues the drifting-Zipf query sequence closed-loop
// with a synchronous kick every ten queries (unlimited IO budget; the
// background poll is parked so only the kicks act). Series: op is a
// query's wall, first_result its time to first region, payload the pixel
// bytes returned per second of replay time — kicks and their re-tile I/O
// included, as in the paper's cumulative-time figure.
type adaptiveWL struct {
	vids        []*srcVideo
	ops         []selectOp
	template    string // store directory holding the three -u videos
	e           *env
	storedBytes int64
	actions     []int64
	spent       []int64
	lastWall    time.Duration
	last        []tasm.RegionResult
}

func (w *adaptiveWL) inputs(e *env, fp *fingerprint) error {
	vids, err := genCorpus(e, corpusSpecs(e), e.sc.Frames)
	if err != nil {
		return err
	}
	w.vids, w.e = vids, e
	w.ops = genSelectOps(e.seed*7919+17, e.sc.ReplayOps, len(vids), e.sc.Frames/e.sc.GOP, e.sc.GOP, 1, 3)
	fp.videos(vids)
	for _, o := range w.ops {
		fp.text(o.sql(vids[o.vid].name + "-u"))
	}
	fp.text(fmt.Sprintf("kick every %d", kickEvery))
	return nil
}

func (w *adaptiveWL) setup(ctx context.Context, e *env) error {
	w.template = e.dir("adaptive-template")
	sm, err := tasm.Open(w.template, tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs))
	if err != nil {
		return err
	}
	if err := storeAll(ctx, e, sm, w.vids, "-u", false); err != nil {
		sm.Close()
		return err
	}
	return sm.Close()
}

func (w *adaptiveWL) run(ctx context.Context, e *env, r *rec, b budget) {
	b.begin()
	w.actions, w.spent = nil, nil
	replays := 0
	for {
		if b.ops > 0 && replays >= b.ops {
			break
		}
		// Fixed work cannot stop mid-replay; start another only if at
		// least half of one is likely to fit.
		if b.seconds > 0 && time.Since(b.start).Seconds()+w.lastWall.Seconds()/2 >= b.seconds && replays > 0 {
			break
		}
		wall, ok := w.replay(ctx, r, true)
		if !ok {
			break
		}
		r.endBatch()
		w.lastWall = wall
		replays++
	}
	if r.tr != nil && replays > 0 {
		// Traced run only: the same sequence on frozen (never re-tiled)
		// layouts, for adapt.replay_gain.
		frozen := newRec(nil)
		if fw, ok := w.replay(ctx, frozen, false); ok && w.lastWall > 0 {
			r.setNative("adapt.replay_gain", fw.Seconds()/w.lastWall.Seconds())
		}
	}
	if n := len(w.actions); n > 0 {
		r.setNative("adapt.actions_applied", float64(w.actions[n-1]))
		r.setNative("adapt.retile_bytes", float64(w.spent[n-1]))
	}
}

// replay runs the sequence once on a fresh copy of the template store and
// returns the time spent in queries and kicks.
func (w *adaptiveWL) replay(ctx context.Context, r *rec, adaptive bool) (time.Duration, bool) {
	dir := w.e.dir("replay")
	defer os.RemoveAll(dir)
	if err := copyTree(w.template, dir); err != nil {
		r.attempt()
		r.fail(err)
		return 0, false
	}
	opts := []tasm.Option{tasm.WithGOPLength(w.e.sc.GOP), tasm.WithParallelism(w.e.procs)}
	if adaptive {
		opts = append(opts, tasm.WithAdaptiveTiling(), tasm.WithAutotileInterval(time.Hour))
	}
	sm, err := tasm.Open(dir, opts...)
	if err != nil {
		r.attempt()
		r.fail(err)
		return 0, false
	}
	defer sm.Close()
	var busy time.Duration
	var kicks []float64
	for i, o := range w.ops {
		v := w.vids[o.vid]
		res := timedSelect(ctx, sm, r, v, v.name+"-u", o)
		if !res.ok {
			return 0, false
		}
		res.count(r)
		busy += res.wall
		w.last = res.regions
		if adaptive && (i+1)%kickEvery == 0 {
			r.attempt()
			root := r.tr.begin("op:kick")
			t0 := time.Now()
			_, err := sm.AutotileKick(ctx)
			d := time.Since(t0)
			root.wall("adapt+policy+costmodel -> core.retile", d)
			root.end()
			if err != nil {
				r.fail(err)
				return 0, false
			}
			r.moved(0, d) // re-tile time counts against the replay's throughput
			busy += d
			kicks = append(kicks, ms(d))
		}
	}
	if adaptive {
		st := sm.AutotileStatus()
		if st.ActionsFailed != 0 || st.QueriesDropped != 0 {
			r.attempt()
			r.fail(fmt.Errorf("autotile: %d actions failed, %d observations dropped", st.ActionsFailed, st.QueriesDropped))
			return 0, false
		}
		w.actions = append(w.actions, st.ActionsApplied)
		w.spent = append(w.spent, st.BytesSpent)
		r.setNative("adapt.kick_ms", median(kicks))
		stored, _, err := storedRatio(sm, w.vids, "-u")
		if err != nil {
			r.attempt()
			r.fail(err)
			return 0, false
		}
		w.storedBytes = stored
	}
	return busy, true
}

func (w *adaptiveWL) stored() (int64, int64, error) {
	var raw int64
	for _, v := range w.vids {
		raw += v.rawBytes()
	}
	return w.storedBytes, raw, nil
}

// assert: the action schedule is deterministic, so every replay of a pass
// must have applied the same number of re-tiles and written the same bytes.
func (w *adaptiveWL) assert(r *rec) error {
	for i := 1; i < len(w.actions); i++ {
		if w.actions[i] != w.actions[0] || w.spent[i] != w.spent[0] {
			return fmt.Errorf("adaptive-replay: replay %d applied %d actions (%d B), replay 0 applied %d (%d B): schedule not deterministic",
				i, w.actions[i], w.spent[i], w.actions[0], w.spent[0])
		}
	}
	if len(w.actions) > 0 && w.actions[0] == 0 {
		return fmt.Errorf("adaptive-replay: no re-tile action applied; the workload does not exercise adapt")
	}
	return nil
}

func (w *adaptiveWL) layerInputs() layerInputs {
	return layerInputs{clip: w.vids[0], sqls: sampleSQL(w.vids, w.ops, "-u"), regions: w.last}
}

func (w *adaptiveWL) teardown() {}

// copyTree copies a store directory file by file (the lock file included;
// it is only a flock target).
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}
