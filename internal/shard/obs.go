package shard

import "github.com/tasm-repro/tasm/internal/obs"

// registerShardSeries adds the per-shard breaker and counter series to
// the router's /metrics registry. They are read from the live shard
// states at scrape time, so a SIGHUP map reload re-shapes the label set
// without re-registration.
func (rt *Router) registerShardSeries(reg *obs.Registry) {
	perShard := func(name, typ, help string, value func(st *shardState) float64) {
		reg.NewSeriesFunc(name, typ, help, []string{"shard"}, func() []obs.Sample {
			states := rt.statesSnapshot()
			out := make([]obs.Sample, len(states))
			for i, st := range states {
				out[i] = obs.Sample{LabelValues: []string{st.name}, Value: value(st)}
			}
			return out
		})
	}
	perShard("tasm_router_shard_up", "gauge",
		"Whether the router's breaker considers the shard healthy.",
		func(st *shardState) float64 {
			if st.isDown() {
				return 0
			}
			return 1
		})
	perShard("tasm_router_shard_consecutive_failures", "gauge",
		"Probe and request failures since the shard's last success.",
		func(st *shardState) float64 {
			_, consec := st.snapshot()
			return float64(consec)
		})
	perShard("tasm_router_requests_total", "counter",
		"Requests routed to the shard (streams and fan-out calls included).",
		func(st *shardState) float64 { return float64(st.requests.Load()) })
	perShard("tasm_router_request_failures_total", "counter",
		"Transport-level failures observed against the shard.",
		func(st *shardState) float64 { return float64(st.failures.Load()) })
}
