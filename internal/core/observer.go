package core

import "github.com/tasm-repro/tasm/internal/query"

// ScanObservation describes one planned query-path request: the query with
// its frame range already clamped to the video, and how many SOTs the plan
// touches. Whole-frame requests (DecodeFrames / FrameCursor) carry an empty
// predicate — they count as observed requests but carry no label evidence
// for re-tiling.
type ScanObservation struct {
	Query query.Query
	SOTs  int
}

// QueryObserver receives every query-path request the manager plans —
// streaming cursors, the materializing wrappers that drain them, and
// therefore every remote request served over them. Implementations must be
// cheap and non-blocking: ObserveScan runs on the query path itself, before
// the first tile decode.
type QueryObserver interface {
	// ObserveScan records one planned request. Called once per cursor
	// construction, after range clamping and index planning succeed.
	ObserveScan(ScanObservation)
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
