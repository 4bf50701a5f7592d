package core

import (
	"context"

	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// ScanObservation describes one planned query-path request: the query with
// its frame range already clamped to the video, and how many SOTs the plan
// touches. Whole-frame requests (DecodeFrames / FrameCursor) carry an empty
// predicate — they contribute range heat for cache decisions but no label
// evidence for re-tiling.
type ScanObservation struct {
	Query query.Query
	SOTs  int
}

// QueryObserver receives every query-path request the manager plans —
// streaming cursors, the materializing wrappers that drain them, and
// therefore every remote request served over them. Implementations must be
// cheap and non-blocking: ObserveScan and HotRange run on the query path
// itself, before the first tile decode.
type QueryObserver interface {
	// ObserveScan records one planned request. Called once per cursor
	// construction, after range clamping and index planning succeed.
	ObserveScan(ScanObservation)
	// HotRange reports whether the observed workload has touched frames
	// [from, to) of video before this request. Cache admission consults it
	// to skip caching one-off sweeps: a range never queried twice does not
	// earn cache residency (an explicit request budget overrides).
	HotRange(video string, from, to int) bool
	// ForgetVideo drops all observation state for a video. The manager
	// calls it when the video is deleted or (re-)ingested, so stale
	// evidence cannot drive decisions about frames that no longer exist.
	ForgetVideo(video string)
}

// SetQueryObserver installs the observation hook. It must be called before
// the manager serves requests (tasm.Open wires it immediately after
// core.Open); installing an observer mid-traffic is not synchronized.
func (m *Manager) SetQueryObserver(o QueryObserver) { m.observer = o }

// observeScan feeds one planned request to the observer, if installed.
func (m *Manager) observeScan(q query.Query, from, to, sots int) {
	if m.observer == nil {
		return
	}
	q.From, q.To = from, to
	m.observer.ObserveScan(ScanObservation{Query: q, SOTs: sots})
}

// admitObserved is the workload-aware half of cache admission: with an
// observer installed, only ranges the workload has queried before earn
// cache residency — a one-off sweep decodes and moves on without evicting
// the repeatedly-queried working set. Requests carrying an explicit cache
// budget opted into their own admission policy and bypass the heat check.
func (m *Manager) admitObserved(ctx context.Context, video string, sot tilestore.SOTMeta) bool {
	if m.observer == nil || hasCacheBudget(ctx) {
		return true
	}
	return m.observer.HotRange(video, sot.From, sot.To)
}

// PinSOT marks one SOT's cached decodes as eviction-protected (no-op
// without a cache); UnpinSOT lifts it. The background re-tiler pins the
// hot SOTs it just warmed.
func (m *Manager) PinSOT(video string, sotID int) { m.cache.Pin(video, sotID) }

// UnpinSOT removes a SOT's eviction protection.
func (m *Manager) UnpinSOT(video string, sotID int) { m.cache.Unpin(video, sotID) }

// WarmSOTContext decodes every tile of one SOT through the decoded-tile
// cache so subsequent queries hit warm entries — the re-tiler calls it
// after committing a new layout for a hot SOT, trading background decode
// work for query-path latency. A no-op without a cache. Admission is
// forced (the background warm is itself the admission decision), and the
// decode runs under a snapshot lease like any read.
func (m *Manager) WarmSOTContext(ctx context.Context, video string, sotID int) (ScanStats, error) {
	var st ScanStats
	if m.cache == nil {
		return st, nil
	}
	meta, lease, err := m.store.SnapshotContext(ctx, video)
	if err != nil {
		return st, err
	}
	defer lease.Release()
	sot, err := meta.SOTByID(sotID)
	if err != nil {
		return st, err
	}
	st.SOTsTouched = 1
	// An effectively unlimited explicit budget forces admission past the
	// observer's heat gate and keeps the warm out of singleflight
	// leadership (see decodeTilePrefix).
	wctx := WithCacheAdmissionBudget(ctx, 1<<62)
	for ti := 0; ti < sot.L.NumTiles(); ti++ {
		_, r := m.decodeTilePrefix(wctx, video, lease, sot, ti, sot.NumFrames())
		if r.err != nil {
			return st, r.err
		}
		m.foldDecodeStats(&st, r)
	}
	return st, nil
}
