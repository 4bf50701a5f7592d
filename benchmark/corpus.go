package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"sort"
	"sync"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/stats"
)

// srcVideo is one generated video held in memory: the frames the store is
// fed, the ground truth it is indexed with, and the labels queries ask for.
type srcVideo struct {
	name   string
	spec   scene.Spec
	frames []*tasm.Frame
	dets   []tasm.Detection
	labels []string
	truth  map[string]map[int][]tasm.Rect // label -> frame -> boxes
}

func (v *srcVideo) rawBytes() int64 {
	var n int64
	for _, f := range v.frames {
		n += int64(len(f.Y) + len(f.Cb) + len(f.Cr))
	}
	return n
}

// corpusSeed versions the corpus. The stored videos, the ingest clips and
// the cameras are a fixed generated dataset: --seed chooses the operation
// sequences that run against it, not its pixels. With one small corpus per
// run, letting the seed move object sizes and paths moved every latency
// by tens of percent between seeds (tile geometry follows the objects),
// which would drown the changes this benchmark exists to see.
const corpusSeed = 20210419

// corpusSpecs are the three stored videos. sparse-a/b: 2 cars + 1 person,
// mean coverage < 20% (where the paper's tiling pays). dense: 9 large
// objects, coverage > 40% (where the paper says it cannot).
func corpusSpecs(e *env) []scene.Spec {
	sparse := []scene.ClassMix{
		{Class: scene.Car, Count: 2, SizeFrac: 0.18},
		{Class: scene.Person, Count: 1, SizeFrac: 0.3},
	}
	dense := []scene.ClassMix{
		{Class: scene.Car, Count: 3, SizeFrac: 0.36},
		{Class: scene.Boat, Count: 3, SizeFrac: 0.30},
		{Class: scene.Person, Count: 3, SizeFrac: 0.50},
	}
	mk := func(name string, mix []scene.ClassMix, salt uint64) scene.Spec {
		return scene.Spec{Name: name, W: e.sc.W, H: e.sc.H, FPS: 30,
			DurationSec: 1, Classes: mix, Seed: corpusSeed + salt}
	}
	return []scene.Spec{mk("sparse-a", sparse, 1), mk("sparse-b", sparse, 2), mk("dense", dense, 3)}
}

// camSpec is one live camera: small frames, one car and one person.
func camSpec(e *env, i int) scene.Spec {
	return scene.Spec{Name: fmt.Sprintf("cam-%d", i), W: e.sc.CamW, H: e.sc.CamH, FPS: 30, DurationSec: 1,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 1, SizeFrac: 0.25}, {Class: scene.Person, Count: 1, SizeFrac: 0.4}},
		Seed:    corpusSeed + 100 + uint64(i)}
}

// generate renders n frames of spec and collects ground truth. scene.Video
// renders any frame index deterministically, so n need not match
// DurationSec.
func generate(spec scene.Spec, n int, labels []string) (*srcVideo, error) {
	sv, err := scene.Generate(spec)
	if err != nil {
		return nil, err
	}
	v := &srcVideo{name: spec.Name, spec: spec, labels: labels, truth: map[string]map[int][]tasm.Rect{}}
	v.frames = sv.Frames(0, n)
	for f := 0; f < n; f++ {
		for _, tr := range sv.GroundTruth(f) {
			v.dets = append(v.dets, tasm.Detection{Frame: f, Label: tr.Label, Box: tr.Box})
			if v.truth[tr.Label] == nil {
				v.truth[tr.Label] = map[int][]tasm.Rect{}
			}
			v.truth[tr.Label][f] = append(v.truth[tr.Label][f], tr.Box)
		}
	}
	return v, nil
}

// queriedLabels are the labels every corpus video is tiled around and
// queried for.
var queriedLabels = []string{scene.Car, scene.Person}

// genCorpus renders the stored videos, one goroutine per video up to procs.
func genCorpus(e *env, specs []scene.Spec, n int) ([]*srcVideo, error) {
	out := make([]*srcVideo, len(specs))
	errs := make([]error, len(specs))
	parallelDo(e.procs, len(specs), func(i int) {
		out[i], errs[i] = generate(specs[i], n, queriedLabels)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// parallelDo runs fn(0..n-1) on at most workers goroutines and waits.
func parallelDo(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// storeVideo ingests v under name and indexes its ground truth; tiled
// additionally applies the known-queries/known-objects plan for the
// queried labels (PlanKQKO -> RetileSOT per SOT, paper section 4.2).
func storeVideo(ctx context.Context, sm *tasm.StorageManager, v *srcVideo, name string, tiled bool) error {
	if _, err := sm.IngestContext(ctx, name, v.frames, v.spec.FPS); err != nil {
		return fmt.Errorf("ingest %s: %w", name, err)
	}
	if err := sm.AddDetections(name, v.dets); err != nil {
		return fmt.Errorf("index %s: %w", name, err)
	}
	if !tiled {
		return nil
	}
	var wl []tasm.Query
	for _, l := range v.labels {
		q, err := tasm.ParseQuery(fmt.Sprintf("SELECT %s FROM %s", l, name))
		if err != nil {
			return err
		}
		wl = append(wl, q)
	}
	if _, err := sm.PlanKQKOContext(ctx, name, wl); err != nil {
		return fmt.Errorf("tile %s: %w", name, err)
	}
	return nil
}

// storeAll stores every video (suffix appended to its name), at most procs
// at a time: the encoder is single-threaded per call, so this is what
// keeps set-up from idling a core.
func storeAll(ctx context.Context, e *env, sm *tasm.StorageManager, vids []*srcVideo, suffix string, tiled bool) error {
	errs := make([]error, len(vids))
	parallelDo(e.procs, len(vids), func(i int) {
		errs[i] = storeVideo(ctx, sm, vids[i], vids[i].name+suffix, tiled)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// selectOp is one generated query: a label over a 1-3 SOT window of one
// stored video.
type selectOp struct {
	vid      int // index into the corpus
	label    string
	from, to int
}

func (o selectOp) sql(name string) string {
	return fmt.Sprintf("SELECT %s FROM %s WHERE %d <= t < %d", o.label, name, o.from, o.to)
}

// The query generator: a drifting, stratified Zipf.
//
// Queries come in phases of driftPhase. Within a phase the video is drawn
// Zipf(1.1) over a rank->video assignment and the start SOT Zipf(1.1) over
// a rank->SOT assignment, so a phase has a hot video and hot SOTs; between
// phases both assignments rotate, which is the paper's section 4.4
// drifting workload. "Stratified" means the draws are not coin flips: each
// phase holds exactly the Zipf share of each video rank and each SOT rank,
// (label, window length) pairs are dealt round-robin, and starts are dealt
// to queries by a fixed stride. The multiset of queries in a phase
// therefore depends only on the phase number; what the seed decides is the
// order they are issued in (and so which of them a time-bounded run
// reaches, what the cache holds when each arrives, and where the re-tiler's
// kicks fall among them). A run's latency distribution is then a property
// of the system, not of which seed happened to draw more dense-video or
// wide-tile queries: with independent draws the median of a few hundred
// queries moved by 5-18 % between seeds on an unchanged program.
const driftPhase = 18

// coprimeFrom returns the smallest k >= from with gcd(k, n) == 1, a stride
// that visits every residue of n.
func coprimeFrom(from, n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	k := from
	for gcd(k, n) != 1 {
		k++
	}
	return k
}

// zipfCounts splits n draws over k ranks in Zipf(s) proportion by largest
// remainder, so the counts are exact and sum to n.
func zipfCounts(n, k int, s float64) []int {
	w := make([]float64, k)
	var total float64
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
		total += w[r]
	}
	counts := make([]int, k)
	type rem struct {
		r    int
		frac float64
	}
	rems := make([]rem, k)
	left := n
	for r := range w {
		x := float64(n) * w[r] / total
		counts[r] = int(x)
		left -= counts[r]
		rems[r] = rem{r, x - float64(counts[r])}
	}
	sort.SliceStable(rems, func(a, b int) bool { return rems[a].frac > rems[b].frac })
	for i := 0; i < left; i++ {
		counts[rems[i].r]++
	}
	return counts
}

// genSelectOps generates n queries over nVids videos of nSOT SOTs each;
// minLen..maxLen is the window length in SOTs.
func genSelectOps(seed uint64, n, nVids, nSOT, gop, minLen, maxLen int) []selectOp {
	rng := stats.NewRNG(seed)
	vidCounts := zipfCounts(driftPhase, nVids, 1.1)
	sotCounts := zipfCounts(driftPhase, nSOT, 1.1)
	type combo struct {
		label  string
		length int
	}
	var combos []combo
	for _, l := range queriedLabels {
		for length := minLen; length <= maxLen; length++ {
			combos = append(combos, combo{l, length})
		}
	}
	sotStride, dealStride := coprimeFrom(3, nSOT), coprimeFrom(7, driftPhase)
	ops := make([]selectOp, 0, n+driftPhase)
	for phase := 0; len(ops) < n; phase++ {
		// ranked holds the phase's start SOTs in rank order: rank r is SOT
		// r*sotStride shifted by the phase, so the hot SOTs move.
		var ranked []int
		for r, c := range sotCounts {
			for i := 0; i < c; i++ {
				ranked = append(ranked, (r*sotStride+7*phase)%nSOT)
			}
		}
		var batch []selectOp
		for r, c := range vidCounts {
			for i := 0; i < c; i++ {
				k := len(batch)
				cb := combos[(k+phase)%len(combos)]
				start := ranked[k*dealStride%driftPhase]
				if start+cb.length > nSOT {
					start = nSOT - cb.length
				}
				batch = append(batch, selectOp{vid: (r + phase) % nVids, label: cb.label,
					from: start * gop, to: (start + cb.length) * gop})
			}
		}
		for _, j := range rng.Perm(len(batch)) {
			ops = append(ops, batch[j])
		}
	}
	return ops[:n]
}

// fingerprint accumulates the SHA-256 of a workload's inputs: generated
// frames and the operation sequence.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (fp *fingerprint) frames(fs []*tasm.Frame) {
	var hdr [8]byte
	for _, f := range fs {
		binary.LittleEndian.PutUint32(hdr[:4], uint32(f.W))
		binary.LittleEndian.PutUint32(hdr[4:], uint32(f.H))
		fp.h.Write(hdr[:])
		fp.h.Write(f.Y)
		fp.h.Write(f.Cb)
		fp.h.Write(f.Cr)
	}
}

func (fp *fingerprint) videos(vs []*srcVideo) {
	for _, v := range vs {
		fp.text(v.name)
		fp.frames(v.frames)
	}
}

func (fp *fingerprint) text(s string) {
	fp.h.Write([]byte(s))
	fp.h.Write([]byte{0})
}

func (fp *fingerprint) sum() string { return hex.EncodeToString(fp.h.Sum(nil)) }
