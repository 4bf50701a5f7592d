package server

// The series tasmd adds to the shared surface's /metrics registry: the
// gate's per-tenant serving counters, and the store and autotile series
// their subsystems own. The names and label shapes predate the registry
// (tasm_requests_total & co.) and are fixed — dashboards and the CI
// greps depend on them.

import (
	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/obs"
)

func (s *Server) registerTenantSeries(reg *obs.Registry) {
	s.requests = reg.NewCounterVec("tasm_requests_total", `Responses sent, by tenant ("-" is unauthenticated).`, "tenant")
	s.rejected = reg.NewCounterVec("tasm_requests_rejected_total", "503 overloaded rejections, by tenant.", "tenant")
	s.bytes = reg.NewCounterVec("tasm_response_bytes_total", "Response body bytes written, by tenant.", "tenant")
}

// registerStoreSeries adds the store and autotile series, read from
// their subsystems at scrape time.
func registerStoreSeries(reg *obs.Registry, sm *tasm.StorageManager) {
	b01 := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	reg.NewCounterFunc("tasm_store_corrupt_tiles_total",
		"Tile reads that failed integrity verification since open.",
		func() float64 { return float64(sm.StoreMetrics().CorruptTiles) })
	reg.NewCounterFunc("tasm_store_recovery_sweeps_total",
		"Crash-recovery sweeps run when opening the store.",
		func() float64 { return float64(sm.StoreMetrics().RecoverySweeps) })
	reg.NewGaugeFunc("tasm_autotile_enabled",
		"Whether the background adaptive-tiling subsystem is enabled.",
		func() float64 { return b01(sm.AutotileStatus().Enabled) })
	reg.NewGaugeFunc("tasm_autotile_paused",
		"Whether background re-tiling is currently paused.",
		func() float64 { return b01(sm.AutotileStatus().Paused) })
	reg.NewCounterFunc("tasm_autotile_actions_total",
		"Background re-tile actions applied since open.",
		func() float64 { return float64(sm.AutotileStatus().ActionsApplied) })
	reg.NewCounterFunc("tasm_autotile_actions_failed_total",
		"Background re-tile actions that failed since open.",
		func() float64 { return float64(sm.AutotileStatus().ActionsFailed) })
	reg.NewCounterFunc("tasm_autotile_bytes_total",
		"Bytes written by background re-tiles since open.",
		func() float64 { return float64(sm.AutotileStatus().BytesSpent) })
	reg.NewCounterFunc("tasm_autotile_queries_observed_total",
		"Queries observed by the adaptive-tiling subsystem since open.",
		func() float64 { return float64(sm.AutotileStatus().QueriesObserved) })
	reg.NewGaugeFunc("tasm_autotile_regret",
		"Accumulated re-tiling pressure in model seconds (paper section 4.4 delta).",
		func() float64 { return sm.AutotileStatus().Regret })
}
