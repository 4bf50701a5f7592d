package main

import "strings"

// The benchmark's contract with BENCHMARK.json: workload names, metric
// names, units, directions and regression bounds live here, and
// bench_test.go asserts the two agree. Later issues cite these names.

// DefaultSeed is the seed inputs.lock pins fingerprints for.
const DefaultSeed = 1

// RunSeconds is the timed phase of every workload (BENCHMARK.json
// run_seconds). One value for all seven: the driver passes a single
// --seconds, and 8 s is what fits 158 runs plus two builds in its cap.
const RunSeconds = 8

// SetupRepeats is how many times an end-to-end run builds its stores;
// setup_s is the median, so one slow build does not move it. The driver's
// contract asks for this ("set up several times in a run and report the
// median"); a traced run builds once.
const SetupRepeats = 3

// MinPSNR is the pixel check: every returned region (or whole frame) must
// reach this luma PSNR in dB against the crop of the generated source
// frame. The codec at its default QP sits near 40 dB on this corpus.
const MinPSNR = 30.0

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// workloadSpecs names the seven workloads in run order.
var workloadSpecs = []workloadSpec{
	{"select-cold", "paper's subframe SELECT on tiled copies, cache off: vcodec/container/tilestore reads do the work, tilecache/rpcwire/server none"},
	{"select-warm", "same queries with the decoded working set cached: hit ratio 1, zero frames decode, so semindex/snapshot/tilecache/assemble are the cost"},
	{"detect-fullscan", "every tile of every SOT reassembled into whole frames: per-tile fixed costs and assemble copies show here, not in select-cold"},
	{"ingest-retile", "write side of the same store: encode, EncodeTiled, commit, fsync; a read win bought with fatter writes shows here"},
	{"remote-stream", "warm scans over loopback HTTP, direct and through the router's K-way merge: rpcwire/server/client/shard work, codec none"},
	{"adaptive-replay", "drifting Zipfian replay with synchronous autotile kicks on untiled videos: policy/costmodel/adapt decide; reads and re-tile writes net out"},
	{"live-mixed", "open loop: paced GOP appends with trims and subscribers beside SELECTs on one store, cache smaller than the working set"},
}

// endToEnd are the metrics every workload reports with tracing off. The
// driver's schema has one metric list for all workloads, so each name is
// defined per workload in README.md's table rather than existing on one
// workload only; the issue's 13 workload-specific names map onto these
// (metric @ workload) pairs.
//
// The timing and rate bounds sit at the contract's ceiling, 0.25. On the
// two-vCPU sandbox this was written on, ten-seed interquartile spreads were
// 2-5 % on the decode-bound workloads but up to 13 % on the memory- and
// syscall-bound ones (select-warm, remote-stream), and the medians of two
// back-to-back ten-run sets of unchanged code differed by up to 27 % there
// (shared-cache neighbours; see CHANGES.md). A tighter bound would reject
// unchanged code. stored_bytes_per_raw_byte is an exact count that repeats
// on every seed, so its bound is the issue's 0.01.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"first_result_ms_p50", "ms", "lower", 0.25},
	{"payload_mb_s", "MB/s", "higher", 0.25},
	{"stored_bytes_per_raw_byte", "ratio", "lower", 0.01},
}

// perLayer are the traced run's metrics, named <module>.<metric>. Every
// workload's traced run measures all of them — the driver's contract is
// that a traced run prints every per-layer metric, and it refuses a time
// that reads the same on every run, so none can be a placeholder: the
// layer replay runs each module on that workload's inputs, and a workload
// overrides the ones it measures natively. layerMap says which of them
// bear on which workload.
var perLayer = []metricSpec{
	{"query.parse_us", "us", "lower", 0},
	{"semindex.lookup_us", "us", "lower", 0},
	{"semindex.entries_per_region", "ratio", "lower", 0},
	{"semindex.add_us_per_det", "us", "lower", 0},
	{"layout.partition_us", "us", "lower", 0},
	{"layout.tiles_per_sot", "count", "lower", 0},
	{"layout.px_decoded_per_px_returned", "ratio", "lower", 0},
	{"layout.tiling_gain", "ratio", "higher", 0},
	{"layout.fullscan_tiled_over_untiled", "ratio", "lower", 0},
	{"vcodec.decode_ms_per_mpx", "ms/Mpx", "lower", 0},
	{"vcodec.decode_allocs_per_frame", "count", "lower", 0},
	{"vcodec.frames_decoded_per_frame_returned", "ratio", "lower", 0},
	{"vcodec.encode_ms_per_mpx", "ms/Mpx", "lower", 0},
	{"vcodec.encode_allocs_per_frame", "count", "lower", 0},
	{"vcodec.psnr_db", "dB", "higher", 0},
	{"container.parse_us_per_tile", "us", "lower", 0},
	{"container.decode_range_self_ms_per_gop", "ms", "lower", 0},
	{"container.bytes_per_mpx", "B/Mpx", "lower", 0},
	{"container.encode_tiled_ms_per_sot", "ms", "lower", 0},
	{"tilestore.snapshot_us", "us", "lower", 0},
	{"tilestore.read_tile_us", "us", "lower", 0},
	{"tilestore.snapshot_us_p95_under_append", "us", "lower", 0},
	{"tilestore.create_video_ms", "ms", "lower", 0},
	{"tilestore.replace_sot_ms", "ms", "lower", 0},
	{"tilestore.gc_ms", "ms", "lower", 0},
	{"tilestore.append_sot_ms_len10", "ms", "lower", 0},
	{"tilestore.append_sot_ms_len100", "ms", "lower", 0},
	{"tilestore.append_sot_ms_len1000", "ms", "lower", 0},
	{"tilestore.trim_ms", "ms", "lower", 0},
	{"tilestore.fsyncs_per_commit", "count", "lower", 0},
	{"tilestore.fsync_ms_per_commit", "ms", "lower", 0},
	{"tilestore.bytes_written_per_user_byte", "ratio", "lower", 0},
	{"tilecache.hit_ratio", "ratio", "higher", 0},
	{"tilecache.get_us", "us", "lower", 0},
	{"tilecache.put_us", "us", "lower", 0},
	{"tilecache.evictions_per_op", "count", "lower", 0},
	{"tilecache.bytes_cached_mb", "MB", "lower", 0},
	{"core.index_wall_ms", "ms", "lower", 0},
	{"core.decode_wall_ms", "ms", "lower", 0},
	{"core.assemble_wall_ms", "ms", "lower", 0},
	{"core.scan_overhead_ms", "ms", "lower", 0},
	{"core.ttfr_ms", "ms", "lower", 0},
	{"core.retile_decode_ms", "ms", "lower", 0},
	{"core.retile_encode_ms", "ms", "lower", 0},
	{"core.retile_commit_ms", "ms", "lower", 0},
	{"core.append_encode_ms", "ms", "lower", 0},
	{"core.append_commit_ms", "ms", "lower", 0},
	{"rpcwire.binary_encode_mb_s", "MB/s", "higher", 0},
	{"rpcwire.binary_decode_mb_s", "MB/s", "higher", 0},
	{"rpcwire.ndjson_encode_mb_s", "MB/s", "higher", 0},
	{"rpcwire.ndjson_decode_mb_s", "MB/s", "higher", 0},
	{"rpcwire.wire_bytes_per_payload_byte", "ratio", "lower", 0},
	{"server.request_overhead_ms", "ms", "lower", 0},
	{"server.stream_over_inproc_ratio", "ratio", "lower", 0},
	{"server.ndjson_drain_mb_s", "MB/s", "higher", 0},
	{"server.span_flush_ms", "ms", "lower", 0},
	{"shard.merge_us_per_region", "us", "lower", 0},
	{"shard.routed_over_direct_ratio", "ratio", "lower", 0},
	{"shard.span_route_us", "us", "lower", 0},
	{"shard.span_merge_ms", "ms", "lower", 0},
	{"adapt.observe_ns", "ns", "lower", 0},
	{"adapt.kick_ms", "ms", "lower", 0},
	{"adapt.actions_applied", "count", "lower", 0},
	{"adapt.retile_bytes", "B", "lower", 0},
	{"adapt.replay_gain", "ratio", "higher", 0},
	{"live.publish_to_wake_us", "us", "lower", 0},
	{"live.queue_wait_ms", "ms", "lower", 0},
	{"live.backpressure_rejects", "count", "lower", 0},
	{"live.generator_lateness_ms_p95", "ms", "lower", 0},
	{"go.alloc_kb_per_op", "KB", "lower", 0},
	{"go.allocs_per_op", "count", "lower", 0},
	{"go.gc_pause_ms_total", "ms", "lower", 0},
	{"go.peak_heap_mb", "MB", "lower", 0},
	{"go.cpu_util_pct", "%", "lower", 0},
	{"host.cpu_steal_pct", "%", "lower", 0},
	{"trace.overhead_pct", "%", "lower", 0},
	{"trace.child_coverage", "ratio", "higher", 0},
	{"trace.codec_self_share", "ratio", "lower", 0},
	{"tail.op_ms", "ms", "lower", 0},
	{"tail.first_result_ms", "ms", "lower", 0},
	{"tail.percentile", "%", "higher", 0},
	{"tail.samples", "count", "higher", 0},
}

// layerMap is README.md's layer -> end-to-end map: for each per-layer name
// prefix, the workloads whose end-to-end metrics contain that layer's work.
// -compare nominates a per-layer metric on a workload only if it is mapped
// there. The go./host./trace./tail. names describe the run, not a layer,
// and are mapped nowhere.
var layerMap = []struct {
	prefix    string
	workloads []string
}{
	{"query.", []string{"select-warm"}},
	{"semindex.lookup_us", []string{"select-warm"}},
	{"semindex.entries_per_region", []string{"select-warm"}},
	{"semindex.add_us_per_det", []string{"ingest-retile"}},
	{"layout.", []string{"select-cold", "ingest-retile", "adaptive-replay"}},
	{"vcodec.decode_", []string{"select-cold", "detect-fullscan"}},
	{"vcodec.frames_decoded_per_frame_returned", []string{"select-cold", "detect-fullscan"}},
	{"vcodec.encode_", []string{"ingest-retile", "live-mixed"}},
	{"vcodec.psnr_db", []string{"ingest-retile"}},
	{"container.parse_us_per_tile", []string{"select-cold"}},
	{"container.decode_range_self_ms_per_gop", []string{"select-cold"}},
	{"container.bytes_per_mpx", []string{"select-cold"}},
	{"container.encode_tiled_ms_per_sot", []string{"ingest-retile"}},
	{"tilestore.snapshot_us_p95_under_append", []string{"live-mixed"}},
	{"tilestore.snapshot_us", []string{"select-warm", "select-cold"}},
	{"tilestore.read_tile_us", []string{"select-warm", "select-cold"}},
	{"tilestore.create_video_ms", []string{"ingest-retile"}},
	{"tilestore.replace_sot_ms", []string{"ingest-retile"}},
	{"tilestore.gc_ms", []string{"ingest-retile"}},
	{"tilestore.append_sot_ms_", []string{"live-mixed"}},
	{"tilestore.trim_ms", []string{"live-mixed"}},
	{"tilestore.fsync", []string{"ingest-retile", "live-mixed"}},
	{"tilestore.bytes_written_per_user_byte", []string{"ingest-retile", "live-mixed"}},
	{"tilecache.", []string{"select-warm", "live-mixed"}},
	{"core.retile_", []string{"ingest-retile", "adaptive-replay"}},
	{"core.append_", []string{"live-mixed"}},
	{"core.", []string{"select-cold", "select-warm", "detect-fullscan", "adaptive-replay", "live-mixed"}},
	{"rpcwire.", []string{"remote-stream"}},
	{"server.", []string{"remote-stream"}},
	{"shard.", []string{"remote-stream"}},
	{"adapt.", []string{"adaptive-replay"}},
	{"live.", []string{"live-mixed"}},
}

// mappedTo reports whether layerMap gives the per-layer metric to the
// workload; the first prefix that matches the name decides.
func mappedTo(workload, metric string) bool {
	for _, e := range layerMap {
		if strings.HasPrefix(metric, e.prefix) {
			for _, w := range e.workloads {
				if w == workload {
					return true
				}
			}
			return false
		}
	}
	return false
}

func workloadNames() []string {
	out := make([]string, len(workloadSpecs))
	for i, w := range workloadSpecs {
		out[i] = w.Name
	}
	return out
}
