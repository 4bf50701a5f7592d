// Package shard is TASM's scale-out tier: a consistent-hash shard map
// over tasmd addresses (map.go), per-shard health tracking with a
// breaker (health.go), the scatter and frame-order merge that turn K
// per-video cursors into one globally ordered stream (this file), and
// the stateless Router (router.go) — the shared handler set of
// internal/api over a Backend that routes to the owning shard, fans
// store-wide operations out and merges them, and scatter-gathers scans.
//
// The merge is the piece the cursor contract from PR 3/4 was built
// for: every source — a local *core* cursor inside tasmd, a remote
// client cursor inside tasm-router — yields results in frame order and
// reports exactly one terminal error, so a k-way heap keyed on
// (frame, source priority) reproduces, streamingly, the order a
// single-node scan of the same data would produce.
package shard

import (
	"sync"

	"github.com/tasm-repro/tasm/internal/api"
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/query"
)

// Source is one frame-ordered stream feeding a Merge: the cursor shape
// the whole serving stack shares. Both *tasm cursors (core.ScanCursor,
// core.FrameCursor) and remote client cursors satisfy it, and the Merge
// relies on its contract — results in non-decreasing key order, a
// sticky Err meaningful only after Next returns false, Stats complete
// at exhaustion, an idempotent Close.
type Source[T any] = api.Cursor[T]

// Merge is a streaming k-way merge of frame-ordered sources into one
// globally frame-ordered stream. Results sharing a key keep source
// priority order (the order sources were passed in) and arrival order
// within a source — the same order a stable sort by frame over the
// concatenated results would produce, which is what makes a
// scatter-gathered scan byte-identical to its single-node equivalent.
//
// Error semantics are first-error-wins with maximal delivery: when a
// source fails, every result already pulled from any source has been
// (or will be) delivered, and the stream then terminates with that
// source's error — the failed source's undelivered frames have unknown
// positions, so continuing with the survivors would silently break
// global order. Merge is not safe for concurrent use, matching the
// cursors it wraps.
type Merge[T any] struct {
	key    func(T) int
	srcs   []Source[T]
	heap   []mergeEntry[T]
	cur    T
	err    error
	inited bool
	closed bool
}

// mergeEntry is one source's buffered head: its next undelivered
// result, keyed for the heap.
type mergeEntry[T any] struct {
	key int
	pri int // index into srcs; the tiebreak that keeps the merge stable
	val T
}

// NewRegionMerge merges scan-result streams by frame number.
func NewRegionMerge(srcs ...Source[core.RegionResult]) *Merge[core.RegionResult] {
	return &Merge[core.RegionResult]{key: func(r core.RegionResult) int { return r.Frame }, srcs: srcs}
}

// ScatterScan is the scatter half of a multi-video scan, shared by
// every backend: one cursor per video q names, opened concurrently
// through open with the query narrowed to that video, gathered into one
// frame-ordered stream (a single-video query needs no merge and is
// returned as opened). Opening fails whole — the first failure in
// FROM-list order wins and every cursor already open is closed — so no
// response starts for a scan that cannot complete.
func ScatterScan(q query.Query, open func(sq query.Query) (Source[core.RegionResult], error)) (Source[core.RegionResult], error) {
	vids := q.VideoList()
	narrow := func(video string) query.Query {
		sq := q
		sq.Video, sq.Videos = video, nil
		return sq
	}
	if len(vids) == 1 {
		return open(narrow(vids[0]))
	}
	srcs := make([]Source[core.RegionResult], len(vids))
	errs := make([]error, len(vids))
	var wg sync.WaitGroup
	for i, video := range vids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			srcs[i], errs[i] = open(narrow(video))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, s := range srcs {
				if s != nil {
					_ = s.Close()
				}
			}
			return nil, err
		}
	}
	return NewRegionMerge(srcs...), nil
}

// Next advances to the next result in global frame order. It reports
// false when every source is cleanly exhausted, a source has failed
// (Err returns the failure), or the merge was closed.
func (m *Merge[T]) Next() bool {
	if m.closed || m.err != nil {
		return false
	}
	if !m.inited {
		m.inited = true
		for i, s := range m.srcs {
			if s.Next() {
				m.push(mergeEntry[T]{m.key(s.Result()), i, s.Result()})
			} else if err := s.Err(); err != nil {
				m.err = err
				return false
			}
		}
	}
	if len(m.heap) == 0 {
		return false
	}
	e := m.pop()
	m.cur = e.val
	// Refill from the source just drained. If it fails here, the
	// result in hand is still in order (the source's contract says its
	// stream was ordered up to the failure), so it is delivered and the
	// error surfaces on the next call — partial results before a loud
	// stop.
	if s := m.srcs[e.pri]; s.Next() {
		m.push(mergeEntry[T]{m.key(s.Result()), e.pri, s.Result()})
	} else if err := s.Err(); err != nil {
		m.err = err
	}
	return true
}

// Result returns the result Next advanced to.
func (m *Merge[T]) Result() T { return m.cur }

// Err returns the first source failure, nil after clean exhaustion.
func (m *Merge[T]) Err() error { return m.err }

// Stats returns the sum of the sources' stats. Complete once the merge
// is drained (each source reports its own totals at exhaustion).
func (m *Merge[T]) Stats() core.ScanStats {
	var agg core.ScanStats
	for _, s := range m.srcs {
		agg.Add(s.Stats())
	}
	return agg
}

// Close closes every source (releasing leases, cancelling remote
// requests) and returns the first close failure. Idempotent.
func (m *Merge[T]) Close() error {
	if m.closed {
		return nil
	}
	m.closed = true
	var first error
	for _, s := range m.srcs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// less orders heap entries by (key, source priority): the priority
// tiebreak is what keeps results sharing a frame in source order.
func (m *Merge[T]) less(a, b mergeEntry[T]) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	return a.pri < b.pri
}

func (m *Merge[T]) push(e mergeEntry[T]) {
	m.heap = append(m.heap, e)
	i := len(m.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !m.less(m.heap[i], m.heap[parent]) {
			break
		}
		m.heap[i], m.heap[parent] = m.heap[parent], m.heap[i]
		i = parent
	}
}

func (m *Merge[T]) pop() mergeEntry[T] {
	top := m.heap[0]
	last := len(m.heap) - 1
	m.heap[0] = m.heap[last]
	var zero mergeEntry[T]
	m.heap[last] = zero // drop the value for GC; regions hold pixel planes
	m.heap = m.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.heap) && m.less(m.heap[l], m.heap[smallest]) {
			smallest = l
		}
		if r < len(m.heap) && m.less(m.heap[r], m.heap[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
	return top
}
