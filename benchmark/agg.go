package main

import (
	"time"

	"github.com/tasm-repro/tasm"
)

// scanAgg accumulates what ScanStats says about a pass's scans; into
// turns it into the per-layer values a workload measures natively.
type scanAgg struct {
	index, decode, assemble, overhead, ttfr []float64 // ms per scan
	framesDecoded, framesReturned           int64
	pxDecoded, bytesReturned                int64
	hits, misses, evictions                 int64
	// write-side walls, ms per operation
	retileDecode, retileEncode, retileCommit []float64
	appendEncode, appendCommit               []float64
}

// retile folds one RetileSOT: its stats and its wall (commit = the rest).
func (r *rec) retile(st tasm.RetileStats, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.scans
	a.retileDecode = append(a.retileDecode, ms(st.DecodeWall))
	a.retileEncode = append(a.retileEncode, ms(st.EncodeWall))
	a.retileCommit = append(a.retileCommit, ms(wall-st.DecodeWall-st.EncodeWall))
}

// appended folds one AppendGOP: encode wall, and the rest of its wall
// (queue wait, commit, publish, trim).
func (r *rec) appended(st tasm.AppendStats, wall time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.scans
	a.appendEncode = append(a.appendEncode, ms(st.EncodeWall))
	a.appendCommit = append(a.appendCommit, ms(wall-st.EncodeWall))
}

// scan folds one finished scan into the pass: its stats, wall, first-result
// time and returned payload bytes.
func (r *rec) scan(st tasm.ScanStats, wall, first time.Duration, bytes int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	a := &r.scans
	a.index = append(a.index, ms(st.IndexWall))
	a.decode = append(a.decode, ms(st.DecodeWall))
	a.assemble = append(a.assemble, ms(st.AssembleWall))
	// The stage walls are measured inside a parallel pipeline and can
	// overlap by a hair; what is left of the scan's wall is floored at zero.
	a.overhead = append(a.overhead, ms(max(0, wall-st.IndexWall-st.DecodeWall-st.AssembleWall)))
	a.ttfr = append(a.ttfr, ms(first))
	a.framesDecoded += st.FramesDecoded
	a.framesReturned += int64(st.RegionsReturned)
	a.pxDecoded += st.PixelsDecoded
	a.bytesReturned += bytes
	a.hits += int64(st.CacheHits)
	a.misses += int64(st.CacheMisses)
	a.evictions += int64(st.CacheEvictions)
}

func (a *scanAgg) into(vals map[string]float64) {
	if len(a.retileDecode) > 0 {
		vals["core.retile_decode_ms"] = median(a.retileDecode)
		vals["core.retile_encode_ms"] = median(a.retileEncode)
		vals["core.retile_commit_ms"] = median(a.retileCommit)
	}
	if len(a.appendEncode) > 0 {
		vals["core.append_encode_ms"] = median(a.appendEncode)
		vals["core.append_commit_ms"] = median(a.appendCommit)
	}
	n := len(a.index)
	if n == 0 {
		return
	}
	vals["core.index_wall_ms"] = median(a.index)
	vals["core.decode_wall_ms"] = median(a.decode)
	vals["core.assemble_wall_ms"] = median(a.assemble)
	vals["core.scan_overhead_ms"] = median(a.overhead)
	vals["core.ttfr_ms"] = median(a.ttfr)
	if a.framesReturned > 0 {
		vals["vcodec.frames_decoded_per_frame_returned"] = float64(a.framesDecoded) / float64(a.framesReturned)
	}
	if a.bytesReturned > 0 {
		// A 4:2:0 pixel is 1.5 bytes, so returned pixels = bytes / 1.5.
		vals["layout.px_decoded_per_px_returned"] = float64(a.pxDecoded) / (float64(a.bytesReturned) / 1.5)
	}
	if a.hits+a.misses > 0 {
		vals["tilecache.hit_ratio"] = float64(a.hits) / float64(a.hits+a.misses)
		vals["tilecache.evictions_per_op"] = float64(a.evictions) / float64(n)
	}
}
