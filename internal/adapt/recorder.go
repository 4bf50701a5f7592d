package adapt

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/query"
)

// defaultPendingCap bounds the per-video queue of observations awaiting
// the decision layer. When the re-tiler falls behind, the oldest
// observations are dropped (and counted): recent demand is what should
// drive layouts, and the query path must never block on the queue.
const defaultPendingCap = 256

// recorderShards spreads the observation lock; a power of two.
const recorderShards = 16

// Recorder is the observation layer: a lock-cheap sink fed by every query
// path (streaming cursors, their materializing wrappers, and remote
// requests served over them) that accumulates per-video query-frame
// distributions. The query path pays one short sharded-mutex critical
// section per request — no layout design, no index lookups, no I/O.
//
// Recorder implements core.QueryObserver; the Retiler drains it in the
// background and feeds the Advisor.
type Recorder struct {
	seed       maphash.Seed
	pendingCap int
	shards     [recorderShards]recorderShard

	queries atomic.Int64 // all observations, including label-less ones
	dropped atomic.Int64 // observations lost to a full pending queue
}

type recorderShard struct {
	mu     sync.Mutex
	videos map[string]*videoRecord
}

type videoRecord struct {
	// pending holds label-carrying queries awaiting the decision layer.
	pending []query.Query
}

// NewRecorder returns an empty recorder. pendingCap bounds each video's
// queue of undrained observations (<= 0 uses the default).
func NewRecorder(pendingCap int) *Recorder {
	if pendingCap <= 0 {
		pendingCap = defaultPendingCap
	}
	return &Recorder{seed: maphash.MakeSeed(), pendingCap: pendingCap}
}

func (r *Recorder) shardFor(video string) *recorderShard {
	return &r.shards[maphash.String(r.seed, video)&(recorderShards-1)]
}

// ObserveScan records one planned request (core.QueryObserver).
func (r *Recorder) ObserveScan(o core.ScanObservation) {
	r.queries.Add(1)
	if o.Query.Pred.Empty() {
		return // whole-frame request: counted, but no re-tiling evidence
	}
	s := r.shardFor(o.Query.Video)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.videos == nil {
		s.videos = map[string]*videoRecord{}
	}
	vr := s.videos[o.Query.Video]
	if vr == nil {
		vr = &videoRecord{}
		s.videos[o.Query.Video] = vr
	}
	if len(vr.pending) >= r.pendingCap {
		vr.pending = vr.pending[1:]
		r.dropped.Add(1)
	}
	vr.pending = append(vr.pending, o.Query)
}

// ForgetVideo drops all recorded state for video (core.QueryObserver).
func (r *Recorder) ForgetVideo(video string) {
	s := r.shardFor(video)
	s.mu.Lock()
	delete(s.videos, video)
	s.mu.Unlock()
}

// Drain pops up to max pending observations, oldest first per video, for
// the decision layer. It never blocks observers for long: each shard's
// lock is held only while slicing.
func (r *Recorder) Drain(max int) []query.Query {
	if max <= 0 {
		return nil
	}
	var out []query.Query
	for i := range r.shards {
		if len(out) >= max {
			break
		}
		s := &r.shards[i]
		s.mu.Lock()
		for _, vr := range s.videos {
			n := min(max-len(out), len(vr.pending))
			if n == 0 {
				if len(out) >= max {
					break
				}
				continue
			}
			out = append(out, vr.pending[:n]...)
			vr.pending = append([]query.Query(nil), vr.pending[n:]...)
		}
		s.mu.Unlock()
	}
	return out
}

// Pending counts observations not yet drained.
func (r *Recorder) Pending() int {
	n := 0
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		for _, vr := range s.videos {
			n += len(vr.pending)
		}
		s.mu.Unlock()
	}
	return n
}

// QueriesObserved returns the total number of observed requests.
func (r *Recorder) QueriesObserved() int64 { return r.queries.Load() }

// Dropped returns how many observations were lost to full queues.
func (r *Recorder) Dropped() int64 { return r.dropped.Load() }
