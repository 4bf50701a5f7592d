// Package adapt closes the paper's adaptive-tiling loop (§4.4) as a
// background subsystem, decoupled from query latency:
//
//   - Observation: Recorder, a lock-cheap core.QueryObserver fed by every
//     query path — streaming cursors, the materializing wrappers, and
//     remote requests served over them — accumulating per-video
//     query-frame distributions.
//   - Decision: Advisor, the pluggable scoring interface; the default is
//     the regret policy (accumulate δ per candidate layout, re-tile when
//     δ > η·R) backed by the calibrated cost model.
//   - Execution: Retiler, a background goroutine applying the advisor's
//     bounded action batches under MVCC with IO budgeting, pause-on-error,
//     and graceful drain. It re-tiles only: the decoded-tile cache
//     admits every decode that fits its budget, whatever the loop does.
package adapt

import (
	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/policy"
	"github.com/tasm-repro/tasm/internal/query"
)

// Advisor is the pluggable decision layer: it folds observed queries into
// its model of the workload and emits re-tile actions once the accumulated
// evidence justifies their cost. Implementations are not required to be
// goroutine-safe — the Retiler serializes every call (Advise, Forget,
// Regret) under its cycle lock.
type Advisor interface {
	// Advise folds one observed query into the advisor's state and
	// returns the re-tile actions it now recommends, if any. The manager
	// is the advisor's window onto current layouts, detections, and the
	// cost model's what-if interface.
	Advise(m *core.Manager, q query.Query) ([]policy.Action, error)
	// Forget drops all state for a video (deleted or re-ingested).
	Forget(video string)
	// Regret reports the advisor's accumulated pressure toward re-tiling
	// in model seconds (0 if the notion does not apply).
	Regret() float64
}

// regretAdvisor adapts policy.Regret — the paper's online-indexing
// strategy — to the Advisor interface.
type regretAdvisor struct {
	rg *policy.Regret
}

// NewRegretAdvisor returns the default Advisor: the §4.4 regret policy
// with the given cost model, η, α, and granularity. η = 0 is meaningful
// (re-tile on the first profitable query); pass a negative η or a
// non-positive α to keep the policy defaults.
func NewRegretAdvisor(model costmodel.Model, eta, alpha float64, g layout.Granularity) Advisor {
	rg := policy.NewRegret(model)
	if eta >= 0 {
		rg.Eta = eta
	}
	if alpha > 0 {
		rg.Alpha = alpha
	}
	rg.Granularity = g
	return &regretAdvisor{rg: rg}
}

func (a *regretAdvisor) Advise(m *core.Manager, q query.Query) ([]policy.Action, error) {
	return a.rg.ObserveQuery(m, q)
}

func (a *regretAdvisor) Forget(video string) { a.rg.Forget(video) }

func (a *regretAdvisor) Regret() float64 { return a.rg.TotalRegret() }
