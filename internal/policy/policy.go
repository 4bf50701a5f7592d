// Package policy implements TASM's tiling strategies (paper §4):
//
//   - KQKO — known queries / known objects: per-SOT fine-grained layouts
//     around the queried objects, guarded by the α do-not-tile rule (§4.2).
//   - AllObjects — pre-tile every SOT around all detected objects, the
//     "all objects" baseline of §5.3.
//   - LazyKnownQueries — known query classes, unknown locations: tile each
//     SOT with KQKO once the semantic index has complete locations for the
//     query classes in that SOT (§4.3, "lazy detection").
//   - IncrementalMore — retile touched SOTs around every class queried so
//     far, immediately (§5.3, "Incremental, more").
//   - Regret — the online-indexing strategy: accumulate estimated
//     improvement (regret) per alternative layout and retile a SOT when
//     δ > η·R (§4.4, "Incremental, regret").
//   - EdgeLayouts — camera-side layout design from capped-rate on-device
//     detection (§4.3, "edge tiling").
package policy

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/tasm-repro/tasm/internal/core"
	"github.com/tasm-repro/tasm/internal/costmodel"
	"github.com/tasm-repro/tasm/internal/detect"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/query"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/semindex"
	"github.com/tasm-repro/tasm/internal/tilestore"
)

// Action is one retile decision: re-encode a SOT with a new layout.
type Action struct {
	Video  string
	SOTID  int
	Layout layout.Layout
	// Reason documents the policy's motivation (for logs and tests).
	Reason string
}

// Apply executes actions against the manager, returning the cumulative
// retile statistics. The context is threaded into every re-tile:
// cancellation aborts the in-progress re-encode within one frame's work
// and skips the remaining actions (already-committed re-tiles stay
// committed — each action is atomic).
func Apply(ctx context.Context, m *core.Manager, actions []Action) (core.RetileStats, error) {
	var total core.RetileStats
	for _, a := range actions {
		rs, err := m.RetileSOTContext(ctx, a.Video, a.SOTID, a.Layout)
		if err != nil {
			return total, fmt.Errorf("policy: retile %s/%d: %w", a.Video, a.SOTID, err)
		}
		total.DecodeWall += rs.DecodeWall
		total.EncodeWall += rs.EncodeWall
		total.Bytes += rs.Bytes
	}
	return total, nil
}

// DesignLayout partitions a SOT around the union of the given labels' boxes
// within the SOT's frame range. The frame size is the one the SOT's current
// layout covers (every stored layout covers its video's frame exactly).
func DesignLayout(m *core.Manager, video string, sot tilestore.SOTMeta, labels []string, g layout.Granularity) (layout.Layout, error) {
	var boxes []geom.Rect
	for _, label := range labels {
		bs, err := m.Index().LookupBoxes(video, label, sot.From, sot.To)
		if err != nil {
			return layout.Layout{}, err
		}
		boxes = append(boxes, bs...)
	}
	return layout.Partition(boxes, g, m.Config().Constraints(sot.L.Width(), sot.L.Height()))
}

// passesAlpha applies the do-not-tile rule: a layout is acceptable for a
// query demand when P(L)/P(ω) < α.
func passesAlpha(l layout.Layout, qf costmodel.QueryFrames, alpha float64) bool {
	return costmodel.PixelRatio(l, qf) < alpha
}

// KQKO computes the known-queries/known-objects optimization (§4.2): for
// each SOT the workload touches, a fine-grained non-uniform layout around
// the objects queried in that SOT, kept only if it clears the α rule.
type KQKO struct {
	Granularity layout.Granularity
	Alpha       float64
}

// NewKQKO returns a KQKO planner with the paper's defaults.
func NewKQKO() *KQKO { return &KQKO{Granularity: layout.Fine, Alpha: costmodel.DefaultAlpha} }

// Plan returns the retile actions for a known workload over video.
func (k *KQKO) Plan(m *core.Manager, video string, workload []query.Query) ([]Action, error) {
	type sotInfo struct {
		sot    tilestore.SOTMeta
		labels map[string]bool
		demand costmodel.QueryFrames
	}
	infos := map[int]*sotInfo{}
	for _, q := range workload {
		if q.Video != video {
			continue
		}
		demands, sots, err := m.QueryDemand(q)
		if err != nil {
			return nil, err
		}
		for id, qf := range demands {
			info := infos[id]
			if info == nil {
				info = &sotInfo{sot: sots[id], labels: map[string]bool{}, demand: costmodel.QueryFrames{}}
				infos[id] = info
			}
			for _, l := range q.Pred.Labels() {
				info.labels[l] = true
			}
			for off, rs := range qf {
				info.demand[off] = append(info.demand[off], rs...)
			}
		}
	}
	var ids []int
	for id := range infos {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var actions []Action
	for _, id := range ids {
		info := infos[id]
		labels := sortedKeys(info.labels)
		l, err := DesignLayout(m, video, info.sot, labels, k.Granularity)
		if err != nil {
			return nil, err
		}
		if l.IsSingle() || l.Equal(info.sot.L) {
			continue
		}
		if !passesAlpha(l, info.demand, k.Alpha) {
			continue // §3.4.4: tiling would not reduce decode work enough
		}
		actions = append(actions, Action{
			Video: video, SOTID: id, Layout: l,
			Reason: "kqko:" + strings.Join(labels, "+"),
		})
	}
	return actions, nil
}

// AllObjects pre-tiles every SOT around every detected object — the
// baseline strategy the paper shows winning on sparse videos and losing on
// dense ones (§5.3). It applies no α guard, by design.
func AllObjects(m *core.Manager, video string, g layout.Granularity) ([]Action, error) {
	meta, err := m.Meta(video)
	if err != nil {
		return nil, err
	}
	labels, err := m.Index().Labels(video)
	if err != nil {
		return nil, err
	}
	var actions []Action
	for _, sot := range meta.SOTs {
		l, err := DesignLayout(m, video, sot, labels, g)
		if err != nil {
			return nil, err
		}
		if l.IsSingle() || l.Equal(sot.L) {
			continue
		}
		actions = append(actions, Action{Video: video, SOTID: sot.ID, Layout: l, Reason: "all-objects"})
	}
	return actions, nil
}

// LazyKnownQueries implements §4.3's lazy detection strategy: the query
// classes OQ are known upfront; a SOT is tiled with KQKO as soon as the
// semantic index holds complete locations for all of OQ in its range.
type LazyKnownQueries struct {
	OQ          []string
	Granularity layout.Granularity
	Alpha       float64
	tiled       map[string]map[int]bool // video -> SOT -> already planned
}

// NewLazyKnownQueries returns the lazy planner for the given query classes.
func NewLazyKnownQueries(oq []string) *LazyKnownQueries {
	return &LazyKnownQueries{
		OQ: oq, Granularity: layout.Fine, Alpha: costmodel.DefaultAlpha,
		tiled: map[string]map[int]bool{},
	}
}

// ObserveQuery is called after each query's detections are in the index;
// it returns retile actions for SOTs that have become fully known.
func (p *LazyKnownQueries) ObserveQuery(m *core.Manager, q query.Query) ([]Action, error) {
	demands, sots, err := m.QueryDemand(q)
	if err != nil {
		return nil, err
	}
	seen := p.tiled[q.Video]
	if seen == nil {
		seen = map[int]bool{}
		p.tiled[q.Video] = seen
	}
	var ids []int
	for id := range sots {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var actions []Action
	for _, id := range ids {
		if seen[id] {
			continue
		}
		sot := sots[id]
		// Wait until every query class is fully detected in this SOT:
		// "it cannot be sure whether a particular layout will be
		// beneficial until it knows where those objects are."
		known := true
		for _, label := range p.OQ {
			ok, err := m.Index().DetectedAll(q.Video, label, sot.From, sot.To)
			if err != nil {
				return nil, err
			}
			if !ok {
				known = false
				break
			}
		}
		if !known {
			continue
		}
		l, err := DesignLayout(m, q.Video, sot, p.OQ, p.Granularity)
		if err != nil {
			return nil, err
		}
		seen[id] = true
		if l.IsSingle() || l.Equal(sot.L) {
			continue
		}
		if !passesAlpha(l, demands[id], p.Alpha) {
			continue
		}
		actions = append(actions, Action{Video: q.Video, SOTID: id, Layout: l, Reason: "lazy-kqko"})
	}
	return actions, nil
}

// IncrementalMore retiles each touched SOT around all object classes
// queried so far, immediately upon seeing a query for a new class — the
// "Incremental, more" strategy of §5.3.
type IncrementalMore struct {
	Granularity layout.Granularity
	seen        map[string]map[string]bool // video -> labels queried so far
	current     map[string]map[int]string  // video -> SOT -> label-set key
}

// NewIncrementalMore returns the eager incremental planner.
func NewIncrementalMore() *IncrementalMore {
	return &IncrementalMore{
		Granularity: layout.Fine,
		seen:        map[string]map[string]bool{},
		current:     map[string]map[int]string{},
	}
}

// ObserveQuery records the query's labels and returns retile actions for
// touched SOTs whose layouts lag the accumulated label set.
func (p *IncrementalMore) ObserveQuery(m *core.Manager, q query.Query) ([]Action, error) {
	labels := p.seen[q.Video]
	if labels == nil {
		labels = map[string]bool{}
		p.seen[q.Video] = labels
	}
	for _, l := range q.Pred.Labels() {
		labels[l] = true
	}
	cur := p.current[q.Video]
	if cur == nil {
		cur = map[int]string{}
		p.current[q.Video] = cur
	}
	key := strings.Join(sortedKeys(labels), "+")

	_, sots, err := m.QueryDemand(q)
	if err != nil {
		return nil, err
	}
	var ids []int
	for id := range sots {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var actions []Action
	for _, id := range ids {
		if cur[id] == key {
			continue
		}
		l, err := DesignLayout(m, q.Video, sots[id], sortedKeys(labels), p.Granularity)
		if err != nil {
			return nil, err
		}
		cur[id] = key
		if l.IsSingle() || l.Equal(sots[id].L) {
			continue
		}
		actions = append(actions, Action{Video: q.Video, SOTID: id, Layout: l, Reason: "incremental-more:" + key})
	}
	return actions, nil
}

// Regret implements the paper's online-indexing strategy (§4.4). For every
// SOT it tracks alternative fine-grained layouts around subsets of the
// classes seen so far, accumulates each alternative's estimated improvement
// δ over observed queries, and retiles once δ > η·R for an alternative that
// has never been estimated to hurt a query (the α rule).
type Regret struct {
	Eta         float64
	Alpha       float64
	Model       costmodel.Model
	Granularity layout.Granularity

	seen  map[string][]string          // video -> ordered label list
	state map[string]map[int]*sotState // video -> SOT -> state
}

type sotState struct {
	regret map[string]float64 // subset key -> accumulated δ
	hurt   map[string]bool    // subset key -> failed the α rule on some query
}

// NewRegret returns the regret policy with the paper's defaults (η = 1,
// α = 0.8).
func NewRegret(model costmodel.Model) *Regret {
	return &Regret{
		Eta: 1.0, Alpha: costmodel.DefaultAlpha, Model: model, Granularity: layout.Fine,
		seen:  map[string][]string{},
		state: map[string]map[int]*sotState{},
	}
}

// ObserveQuery accumulates regret for the query and returns any retile
// actions whose accumulated improvement now offsets their re-encode cost.
func (p *Regret) ObserveQuery(m *core.Manager, q query.Query) ([]Action, error) {
	// Grow the seen-label set (OQ').
	for _, l := range q.Pred.Labels() {
		if !contains(p.seen[q.Video], l) {
			p.seen[q.Video] = append(p.seen[q.Video], l)
		}
	}
	subsets := labelSubsets(p.seen[q.Video])

	demands, sots, err := m.QueryDemand(q)
	if err != nil {
		return nil, err
	}
	vstate := p.state[q.Video]
	if vstate == nil {
		vstate = map[int]*sotState{}
		p.state[q.Video] = vstate
	}

	var ids []int
	for id := range sots {
		ids = append(ids, id)
	}
	sort.Ints(ids)

	var actions []Action
	for _, id := range ids {
		sot := sots[id]
		qf := demands[id]
		ss := vstate[id]
		if ss == nil {
			ss = &sotState{regret: map[string]float64{}, hurt: map[string]bool{}}
			vstate[id] = ss
		}
		bestKey := ""
		bestRegret := 0.0
		var bestLayout layout.Layout
		for _, subset := range subsets {
			key := strings.Join(subset, "+")
			alt, err := DesignLayout(m, q.Video, sot, subset, p.Granularity)
			if err != nil {
				return nil, err
			}
			if alt.IsSingle() {
				continue
			}
			// δ accumulates the estimated improvement of the alternative
			// over the SOT's current layout for this query.
			ss.regret[key] += p.Model.Delta(sot.L, alt, qf)
			// The α rule: an alternative that would not cut decode work
			// enough for some observed query is marked as hurting.
			if !passesAlpha(alt, qf, p.Alpha) {
				ss.hurt[key] = true
			}
			if ss.hurt[key] || alt.Equal(sot.L) {
				continue
			}
			if r := ss.regret[key]; r > bestRegret {
				// Retile when δ > η·R(s, L).
				if r > p.Eta*p.Model.EncodeCost(alt, sot.NumFrames()) {
					bestKey, bestRegret, bestLayout = key, r, alt
				}
			}
		}
		if bestKey != "" {
			actions = append(actions, Action{
				Video: q.Video, SOTID: id, Layout: bestLayout,
				Reason: "regret:" + bestKey,
			})
			// Fresh slate for the SOT under its new layout.
			vstate[id] = &sotState{regret: map[string]float64{}, hurt: map[string]bool{}}
		}
	}
	return actions, nil
}

// Forget drops all accumulated state for a video: its seen-label set and
// every SOT's regret ledger. Called when the video is deleted or re-ingested
// under the same name, so stale evidence cannot justify re-tiling frames
// that no longer exist.
func (p *Regret) Forget(video string) {
	delete(p.seen, video)
	delete(p.state, video)
}

// TotalRegret sums the accumulated regret of the best (non-hurt) candidate
// per SOT across all tracked videos — the "pressure" the policy has built up
// toward re-tiling, in model seconds. Exposed as the tasm_autotile_regret
// gauge.
func (p *Regret) TotalRegret() float64 {
	var total float64
	for _, vstate := range p.state {
		for _, ss := range vstate {
			best := 0.0
			for key, r := range ss.regret {
				if !ss.hurt[key] && r > best {
					best = r
				}
			}
			total += best
		}
	}
	return total
}

// labelSubsets enumerates the non-empty subsets of seen labels (the
// alternative-layout space Lalt). For more than 6 labels it falls back to
// singletons plus the full set to bound the candidate count.
func labelSubsets(labels []string) [][]string {
	n := len(labels)
	if n == 0 {
		return nil
	}
	if n > 6 {
		out := make([][]string, 0, n+1)
		for _, l := range labels {
			out = append(out, []string{l})
		}
		out = append(out, append([]string(nil), labels...))
		return out
	}
	var out [][]string
	for mask := 1; mask < 1<<n; mask++ {
		var s []string
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				s = append(s, labels[i])
			}
		}
		sort.Strings(s)
		out = append(out, s)
	}
	return out
}

// EdgeLayouts designs per-SOT layouts on a (simulated) edge camera: the
// detector runs on-device as frames are captured (typically wrapped in
// detect.EveryN to respect the camera's compute budget), and layouts are
// designed around the detections of the known query classes OQ. It returns
// the layouts for IngestTiledContext, the detections to seed the semantic
// index, and the simulated on-camera detection latency.
func EdgeLayouts(v *scene.Video, det detect.Detector, oq []string, gop int, cons layout.Constraints, g layout.Granularity) ([]layout.Layout, []semindex.Detection, time.Duration, error) {
	n := v.Spec.NumFrames()
	numSOTs := (n + gop - 1) / gop
	layouts := make([]layout.Layout, numSOTs)
	var all []semindex.Detection
	var lat time.Duration
	want := map[string]bool{}
	for _, l := range oq {
		want[l] = true
	}
	for si := 0; si < numSOTs; si++ {
		from, to := si*gop, min((si+1)*gop, n)
		var boxes []geom.Rect
		for f := from; f < to; f++ {
			ds, d := det.Detect(v, f)
			lat += d
			for _, dd := range ds {
				all = append(all, dd)
				if len(want) == 0 || want[dd.Label] {
					boxes = append(boxes, dd.Box)
				}
			}
		}
		l, err := layout.Partition(boxes, g, cons)
		if err != nil {
			return nil, nil, lat, err
		}
		layouts[si] = l
	}
	return layouts, all, lat, nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
