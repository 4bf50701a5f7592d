package main

import (
	"context"
	"fmt"
	"time"

	"github.com/tasm-repro/tasm"
)

// fullscanWL is detect-fullscan: a closed loop of one client decoding
// every frame of the tiled sparse-a through the whole-frame cursor, the
// access path of the paper's object-detection full scan. The untiled
// comparison (layout.fullscan_tiled_over_untiled) is a per-layer ratio
// taken in the traced run, so that the end-to-end numbers time one copy.
type fullscanWL struct {
	vid *srcVideo
	sm  *tasm.StorageManager
}

func (w *fullscanWL) inputs(e *env, fp *fingerprint) error {
	v, err := generate(corpusSpecs(e)[0], e.sc.Frames, queriedLabels)
	if err != nil {
		return err
	}
	w.vid = v
	fp.videos([]*srcVideo{v})
	fp.text(fmt.Sprintf("decodeframes %s-t [0,%d)", v.name, len(v.frames)))
	return nil
}

func (w *fullscanWL) setup(ctx context.Context, e *env) error {
	w.teardown()
	sm, err := tasm.Open(e.dir("fullscan"), tasm.WithGOPLength(e.sc.GOP), tasm.WithParallelism(e.procs))
	if err != nil {
		return err
	}
	w.sm = sm
	return storeVideo(ctx, sm, w.vid, w.vid.name+"-t", true)
}

func (w *fullscanWL) run(ctx context.Context, e *env, r *rec, b budget) {
	b.begin()
	for i := 0; b.more(i); i++ {
		timedFullscan(ctx, w.sm, r, w.vid, w.vid.name+"-t", true)
		r.endBatch()
	}
}

// timedFullscan decodes every frame of the stored copy through the frame
// cursor, then checks each frame against its source; it returns the wall.
func timedFullscan(ctx context.Context, sm *tasm.StorageManager, r *rec, v *srcVideo, name string, counted bool) time.Duration {
	r.attempt()
	root := r.tr.begin("op:fullscan")
	n := len(v.frames)
	t0 := time.Now()
	cur, err := sm.DecodeFramesCursor(ctx, name, 0, n)
	if err != nil {
		root.end()
		r.fail(err)
		return 0
	}
	var first time.Duration
	frames := make([]tasm.FrameResult, 0, n)
	for cur.Next() {
		if len(frames) == 0 {
			first = time.Since(t0)
		}
		frames = append(frames, cur.Result())
	}
	wall := time.Since(t0)
	st := cur.Stats()
	err = cur.Err()
	cur.Close()
	root.wall(spanIndex, st.IndexWall)
	root.wall(spanDecode, st.DecodeWall)
	root.wall(spanAssemble, st.AssembleWall)
	root.end()
	if err != nil {
		r.fail(err)
		return 0
	}
	if len(frames) != n {
		r.fail(fmt.Errorf("%s: %d frames, want %d", name, len(frames), n))
		return 0
	}
	var bytes int64
	for i, fr := range frames {
		if fr.Index != i {
			r.fail(fmt.Errorf("%s: frame %d delivered at position %d", name, fr.Index, i))
			return 0
		}
		if err := checkFrame(v, fr.Index, fr.Pixels); err != nil {
			r.fail(err)
			return 0
		}
		bytes += frameBytes(fr.Pixels)
	}
	if counted {
		r.op(wall)
		r.first(first)
		r.moved(bytes, wall)
	}
	r.scan(st, wall, first, bytes)
	return wall
}

func (w *fullscanWL) stored() (int64, int64, error) {
	return storedRatio(w.sm, []*srcVideo{w.vid}, "-t")
}

func (w *fullscanWL) assert(r *rec) error { return nil }

func (w *fullscanWL) layerInputs() layerInputs {
	v := w.vid
	sqls := []string{fmt.Sprintf("SELECT car FROM %s-t WHERE 0 <= t < %d", v.name, len(v.frames))}
	return layerInputs{clip: v, sqls: sqls}
}

func (w *fullscanWL) teardown() {
	if w.sm != nil {
		w.sm.Close()
		w.sm = nil
	}
}
