package adapt

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// Config tunes the background re-tiler.
type Config struct {
	// Interval is the poll cadence of the background loop (default 500ms).
	Interval time.Duration
	// IOBudget caps the sustained rate of re-tile writes in bytes/second:
	// after committing an action the loop sleeps long enough that, on
	// average, committed bytes never exceed the budget. 0 = unthrottled.
	IOBudget int64
	// BatchQueries bounds observations consumed per cycle (default 64).
	BatchQueries int
	// MaxActionsPerCycle stops draining further observations once a cycle
	// has applied this many actions (default 8); surplus observations
	// stay queued for the next cycle, keeping each batch bounded.
	MaxActionsPerCycle int
	// Logger receives action and pause diagnostics (nil = silent).
	Logger *log.Logger
}

const (
	defaultInterval  = 500 * time.Millisecond
	defaultBatch     = 64
	defaultMaxAction = 8
)

// Retiler is the execution layer: a background goroutine that drains the
// Recorder, feeds the Advisor, and applies its actions via the manager's
// MVCC re-tile path — queries in flight keep scanning their snapshots
// while layouts change underneath. Retiler implements core.QueryObserver
// by delegating observation to its Recorder, so installing it as the
// manager's observer wires the whole loop.
type Retiler struct {
	m   *core.Manager
	rec *Recorder
	adv Advisor
	cfg Config

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	kick   chan struct{}

	// cycleMu serializes decision/execution cycles (the background loop
	// versus synchronous Kick calls). It is held across retile I/O and
	// throttle sleeps, so nothing latency-sensitive may take it.
	cycleMu sync.Mutex

	// advMu guards the advisor, whose implementations need not be
	// goroutine-safe. It is only held for in-memory work (Advise, Forget,
	// Regret) — never across retile I/O or sleeps — so Status and
	// DeleteVideo's ForgetVideo callback stay fast even mid-cycle.
	advMu sync.Mutex

	mu          sync.Mutex // guards the status fields below
	started     bool
	paused      bool
	pauseReason string
	lastError   string
	lastAction  string
	applied     int64
	failed      int64
	bytesSpent  int64
}

// Status is a point-in-time snapshot of the subsystem, served over
// /v1/autotile/status and by `tasmctl autotile status`.
type Status struct {
	Enabled         bool    `json:"enabled"`
	Paused          bool    `json:"paused"`
	PauseReason     string  `json:"pause_reason,omitempty"`
	QueriesObserved int64   `json:"queries_observed"`
	QueriesPending  int     `json:"queries_pending"`
	QueriesDropped  int64   `json:"queries_dropped"`
	ActionsApplied  int64   `json:"actions_applied"`
	ActionsFailed   int64   `json:"actions_failed"`
	BytesSpent      int64   `json:"bytes_spent"`
	IOBudget        int64   `json:"io_budget"`
	Regret          float64 `json:"regret"`
	LastAction      string  `json:"last_action,omitempty"`
	LastError       string  `json:"last_error,omitempty"`
}

// NewRetiler assembles the subsystem around a manager: a fresh Recorder
// and the given Advisor (nil = the default regret advisor built from the
// manager's config). Call Start to launch the background loop; install
// the returned Retiler as the manager's QueryObserver to feed it.
func NewRetiler(m *core.Manager, adv Advisor, cfg Config) *Retiler {
	if cfg.Interval <= 0 {
		cfg.Interval = defaultInterval
	}
	if cfg.BatchQueries <= 0 {
		cfg.BatchQueries = defaultBatch
	}
	if cfg.MaxActionsPerCycle <= 0 {
		cfg.MaxActionsPerCycle = defaultMaxAction
	}
	if adv == nil {
		c := m.Config()
		adv = NewRegretAdvisor(c.Model, c.Eta, c.Alpha, c.Granularity)
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Retiler{
		m: m, rec: NewRecorder(0), adv: adv, cfg: cfg,
		ctx: ctx, cancel: cancel,
		done: make(chan struct{}),
		kick: make(chan struct{}, 1),
	}
}

// Recorder exposes the observation layer (for tests and wiring).
func (r *Retiler) Recorder() *Recorder { return r.rec }

// core.QueryObserver: observation delegates to the Recorder; forgetting a
// video also clears the advisor, synchronized against in-flight cycles.
func (r *Retiler) ObserveScan(o core.ScanObservation) { r.rec.ObserveScan(o) }

func (r *Retiler) ForgetVideo(video string) {
	r.rec.ForgetVideo(video)
	r.advMu.Lock()
	r.adv.Forget(video)
	r.advMu.Unlock()
}

// Start launches the background loop. It is a no-op if already started
// or closed.
func (r *Retiler) Start() {
	r.mu.Lock()
	if r.started {
		r.mu.Unlock()
		return
	}
	r.started = true
	r.mu.Unlock()
	go r.loop()
}

// Close drains the loop: the poll stops, an in-flight re-tile aborts
// within one frame's work (a commit that already started completes — the
// store's swap is atomic), and Close returns once the goroutine exits.
// Safe to call without Start and idempotent.
func (r *Retiler) Close() {
	r.cancel()
	r.mu.Lock()
	started := r.started
	r.mu.Unlock()
	if started {
		<-r.done
	}
}

// Pause suspends action application; observation continues. reason is
// surfaced in Status.
func (r *Retiler) Pause(reason string) {
	r.mu.Lock()
	r.paused = true
	if reason == "" {
		reason = "paused by operator"
	}
	r.pauseReason = reason
	r.mu.Unlock()
}

// Resume lifts a pause (operator- or error-initiated) and kicks a cycle.
func (r *Retiler) Resume() {
	r.mu.Lock()
	r.paused = false
	r.pauseReason = ""
	r.mu.Unlock()
	select {
	case r.kick <- struct{}{}:
	default:
	}
}

// Status snapshots the subsystem. It never waits on an in-flight cycle:
// every lock it takes is held only for in-memory reads.
func (r *Retiler) Status() Status {
	r.advMu.Lock()
	regret := r.adv.Regret()
	r.advMu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	return Status{
		Enabled:         true,
		Paused:          r.paused,
		PauseReason:     r.pauseReason,
		QueriesObserved: r.rec.QueriesObserved(),
		QueriesPending:  r.rec.Pending(),
		QueriesDropped:  r.rec.Dropped(),
		ActionsApplied:  r.applied,
		ActionsFailed:   r.failed,
		BytesSpent:      r.bytesSpent,
		IOBudget:        r.cfg.IOBudget,
		Regret:          regret,
		LastAction:      r.lastAction,
		LastError:       r.lastError,
	}
}

// Kick runs one full decision/execution cycle synchronously: drain all
// pending observations (in bounded batches) and apply the resulting
// actions, honoring pause state and the IO budget. Tests, benchmarks,
// and one-shot CLI runs use it for determinism; the background loop runs
// the same cycles on its own clock. It returns the number of actions
// applied and the first error that paused the loop, if any.
func (r *Retiler) Kick(ctx context.Context) (int, error) {
	total := 0
	for {
		n, more, err := r.cycle(ctx)
		total += n
		if err != nil || !more {
			return total, err
		}
	}
}

func (r *Retiler) loop() {
	defer close(r.done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-r.ctx.Done():
			return
		case <-t.C:
		case <-r.kick:
		}
		// Drain everything pending, in bounded per-cycle batches, before
		// sleeping again.
		for {
			_, more, err := r.cycle(r.ctx)
			if err != nil || !more {
				break
			}
		}
	}
}

// cycle drains one bounded batch of observations through the advisor and
// applies the resulting actions. more reports whether observations (or
// emitted-but-unapplied work) remain for another cycle. An action or
// advise failure pauses the loop (pause-on-error) and is returned;
// cancellation during shutdown is not an error.
func (r *Retiler) cycle(ctx context.Context) (applied int, more bool, err error) {
	r.cycleMu.Lock()
	defer r.cycleMu.Unlock()
	r.mu.Lock()
	paused := r.paused
	r.mu.Unlock()
	if paused || ctx.Err() != nil {
		return 0, false, nil
	}

	queries := r.rec.Drain(r.cfg.BatchQueries)
	if len(queries) == 0 {
		return 0, false, nil
	}
	for qi, q := range queries {
		r.advMu.Lock()
		actions, aerr := r.adv.Advise(r.m, q)
		r.advMu.Unlock()
		if aerr != nil {
			// A deleted video's leftover observations are not an error:
			// evidence about it is already being discarded.
			if errors.Is(aerr, tasmerr.ErrVideoNotFound) || errors.Is(aerr, tasmerr.ErrVideoDeleted) {
				continue
			}
			r.pauseOnError(fmt.Errorf("advise %s: %w", q.Video, aerr))
			return applied, false, aerr
		}
		for _, a := range actions {
			if ctx.Err() != nil {
				return applied, false, nil
			}
			rs, rerr := r.m.RetileSOTContext(ctx, a.Video, a.SOTID, a.Layout)
			if rerr != nil {
				if errors.Is(rerr, context.Canceled) || errors.Is(rerr, context.DeadlineExceeded) {
					return applied, false, nil // shutting down, not a fault
				}
				if errors.Is(rerr, tasmerr.ErrVideoNotFound) || errors.Is(rerr, tasmerr.ErrVideoDeleted) {
					continue // deleted out from under the action: benign
				}
				r.mu.Lock()
				r.failed++
				r.mu.Unlock()
				r.pauseOnError(fmt.Errorf("retile %s/%d: %w", a.Video, a.SOTID, rerr))
				return applied, false, rerr
			}
			applied++
			r.mu.Lock()
			r.applied++
			r.bytesSpent += rs.Bytes
			r.lastAction = fmt.Sprintf("%s/%d %s", a.Video, a.SOTID, a.Reason)
			r.mu.Unlock()
			if r.cfg.Logger != nil {
				r.cfg.Logger.Printf("autotile: retiled %s SOT %d (%s, %d tiles, %d B)",
					a.Video, a.SOTID, a.Reason, a.Layout.NumTiles(), rs.Bytes)
			}
			r.throttle(ctx, rs.Bytes)
		}
		if applied >= r.cfg.MaxActionsPerCycle {
			// Bounded batch: park the rest for the next cycle.
			return applied, qi < len(queries)-1 || r.rec.Pending() > 0, nil
		}
	}
	return applied, r.rec.Pending() > 0, nil
}

// pauseOnError records the fault and pauses the loop; Resume (manual or
// via the API) lifts it.
func (r *Retiler) pauseOnError(err error) {
	r.mu.Lock()
	r.paused = true
	r.pauseReason = "paused on error"
	r.lastError = err.Error()
	r.mu.Unlock()
	if r.cfg.Logger != nil {
		r.cfg.Logger.Printf("autotile: paused on error: %v", err)
	}
}

// throttle enforces the IO budget: sleep long enough that bytes committed
// per second stay at or below IOBudget, abandoning the wait on shutdown.
func (r *Retiler) throttle(ctx context.Context, bytes int64) {
	if r.cfg.IOBudget <= 0 || bytes <= 0 {
		return
	}
	d := time.Duration(float64(bytes) / float64(r.cfg.IOBudget) * float64(time.Second))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	case <-r.ctx.Done():
	}
}
