package main

import (
	"context"
	"fmt"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/stats"
)

// Span names for write-side children.
const (
	spanEncode = "vcodec.encode+container"
	spanCommit = "tilestore.commit+fsync"
)

// ingestClips is how many distinct clips the cycles rotate through.
const ingestClips = 4

// gcEvery is the cycle period of the storage GC pass.
const gcEvery = 8

// ingestWL is ingest-retile: a closed loop of one client cycling
// IngestContext(fresh clip) -> AddDetections -> first scan -> DesignLayout
// + RetileSOTContext per SOT -> VideoBytes -> verifying scan -> DeleteVideo,
// with GC every 8 cycles. It is the write side of the store the read
// workloads use.
type ingestWL struct {
	clips []*srcVideo
	order []int // seeded order the cycles take the clips in
	sm    *tasm.StorageManager
	// storedBy is what each clip occupied, re-tiled, the last time it was
	// cycled. The ratio is taken over the clips, each once, so it is an
	// exact count however many cycles a run fits and in whatever order.
	storedBy [ingestClips]int64
}

// renderClips generates the clips the cycles ingest.
func renderClips(e *env) ([]*srcVideo, error) {
	var clips []*srcVideo
	for i := 0; i < ingestClips; i++ {
		spec := scene.Spec{Name: fmt.Sprintf("clip-%d", i), W: e.sc.W, H: e.sc.H, FPS: 30, DurationSec: 1,
			Classes: []scene.ClassMix{{Class: scene.Car, Count: 2, SizeFrac: 0.18}, {Class: scene.Person, Count: 1, SizeFrac: 0.3}},
			Seed:    corpusSeed + 200 + uint64(i)}
		v, err := generate(spec, e.sc.ClipFrames, queriedLabels)
		if err != nil {
			return nil, err
		}
		clips = append(clips, v)
	}
	return clips, nil
}

func (w *ingestWL) inputs(e *env, fp *fingerprint) error {
	clips, err := renderClips(e)
	if err != nil {
		return err
	}
	w.clips = clips
	w.order = stats.NewRNG(e.seed*7919 + 23).Perm(ingestClips)
	fp.videos(w.clips)
	fp.text(fmt.Sprintf("order %v; cycle ingest,index,scan car,retile per sot,bytes,scan person,delete; gc every %d", w.order, gcEvery))
	return nil
}

// setup: this workload's store starts empty, so what set-up costs here is
// producing the camera clips it will be fed, plus opening the store.
func (w *ingestWL) setup(ctx context.Context, e *env) error {
	w.teardown()
	clips, err := renderClips(e)
	if err != nil {
		return err
	}
	w.clips = clips
	sm, err := tasm.Open(e.dir("ingest"), tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs))
	if err != nil {
		return err
	}
	w.sm = sm
	return nil
}

func (w *ingestWL) run(ctx context.Context, e *env, r *rec, b budget) {
	b.begin()
	for i := 0; b.more(i); i++ {
		w.cycle(ctx, r, w.order[i%len(w.order)], fmt.Sprintf("clip-%d", i))
		r.endBatch()
		if (i+1)%gcEvery == 0 {
			r.attempt()
			root := r.tr.begin("op:gc")
			_, err := w.sm.GC()
			root.end()
			if err != nil {
				r.fail(err)
			}
		}
	}
}

// cycle runs one ingest->retile->delete cycle. Series: first_result is
// IngestContext start to the first region of the new clip coming back;
// op is one RetileSOTContext; payload is raw bytes accepted per second of
// IngestContext wall.
func (w *ingestWL) cycle(ctx context.Context, r *rec, clip int, name string) {
	sm, v := w.sm, w.clips[clip]
	defer sm.DeleteVideo(name) // a failed cycle must not poison the next

	r.attempt()
	root := r.tr.begin("op:ingest")
	t0 := time.Now()
	ist, err := sm.IngestContext(ctx, name, v.frames, v.spec.FPS)
	ingestWall := time.Since(t0)
	root.wall(spanEncode, ist.EncodeWall)
	root.wall(spanCommit, ingestWall-ist.EncodeWall)
	root.end()
	if err != nil {
		r.fail(err)
		return
	}
	r.moved(v.rawBytes(), ingestWall)
	if err := sm.AddDetections(name, v.dets); err != nil {
		r.fail(err)
		return
	}
	n := len(v.frames)
	// First read of the clip, still untiled: its first region closes the
	// ingest -> first result interval.
	car := selectOp{label: scene.Car, from: 0, to: n}
	tSel := time.Now()
	res := timedSelect(ctx, sm, r, v, name, car)
	if !res.ok {
		return
	}
	r.first(tSel.Sub(t0) + res.first)

	meta, err := sm.Meta(name)
	if err != nil {
		r.fail(err)
		return
	}
	for _, sot := range meta.SOTs {
		r.attempt()
		root := r.tr.begin("op:retile")
		t1 := time.Now()
		l, err := sm.DesignLayout(name, sot.ID, v.labels)
		var rst tasm.RetileStats
		if err == nil {
			rst, err = sm.RetileSOTContext(ctx, name, sot.ID, l)
		}
		wall := time.Since(t1)
		root.wall(spanDecode, rst.DecodeWall)
		root.wall(spanEncode, rst.EncodeWall)
		root.wall(spanCommit, wall-rst.DecodeWall-rst.EncodeWall)
		root.end()
		if err != nil {
			r.fail(err)
			return
		}
		r.op(wall)
		r.retile(rst, wall)
	}
	bytes, err := sm.VideoBytes(name)
	if err != nil {
		r.fail(err)
		return
	}
	w.storedBy[clip] = bytes
	// The verifying scan reads the re-tiled clip.
	if res := timedSelect(ctx, sm, r, v, name, selectOp{label: scene.Person, from: 0, to: n}); !res.ok {
		return
	}
	r.attempt()
	if err := sm.DeleteVideo(name); err != nil {
		r.fail(err)
	}
}

func (w *ingestWL) stored() (stored, raw int64, err error) {
	for i, b := range w.storedBy {
		if b > 0 {
			stored += b
			raw += w.clips[i].rawBytes()
		}
	}
	return stored, raw, nil
}

func (w *ingestWL) assert(r *rec) error { return nil }

func (w *ingestWL) layerInputs() layerInputs {
	v := w.clips[0]
	return layerInputs{clip: v, sqls: []string{fmt.Sprintf("SELECT car FROM clip-0 WHERE 0 <= t < %d", len(v.frames))}}
}

func (w *ingestWL) teardown() {
	if w.sm != nil {
		w.sm.Close()
		w.sm = nil
	}
}
