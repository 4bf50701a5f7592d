package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// The traced run's span recorder. Spans are recorded from the benchmark's
// own files, around the calls into each layer and from the walls the
// public API returns; nothing is added inside the program. They stay in
// memory and are written to trace.json when the run ends.

type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0 = root
	Op      int    `json:"op"`     // operation id shared by one request's spans
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	EndUS   int64  `json:"end_us"`
}

// tracer collects spans. A nil *tracer records nothing, so workload code
// is written once for traced and untraced runs.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(parent, op int, name string, start time.Time, d time.Duration) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Microseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, StartUS: s, EndUS: s + d.Microseconds()})
	return id
}

// opSpan is the root span of one operation.
type opSpan struct {
	t  *tracer
	id int
	op int
	// next is where the next synthesised child is placed: children built
	// from stats walls have a duration but no start of their own, so they
	// are laid end to end from the operation's start.
	next time.Time
}

// begin opens an operation's root span; nil tracer -> nil opSpan.
func (t *tracer) begin(name string) *opSpan {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	t.ops++
	op := t.ops
	t.mu.Unlock()
	id := t.add(0, op, name, now, 0)
	return &opSpan{t: t, id: id, op: op, next: now}
}

// end closes the root span.
func (o *opSpan) end() {
	if o == nil {
		return
	}
	end := time.Since(o.t.t0).Microseconds()
	o.t.mu.Lock()
	o.t.spans[o.id-1].EndUS = end
	o.t.mu.Unlock()
}

// wall adds a child synthesised from a wall the public API returned.
func (o *opSpan) wall(name string, d time.Duration) {
	if o == nil || d <= 0 {
		return
	}
	o.t.add(o.id, o.op, name, o.next, d)
	o.next = o.next.Add(d)
}

// at adds a child with a known start (spans copied from the obs ring,
// whose Record.Start is on this process's clock).
func (o *opSpan) at(name string, start time.Time, d time.Duration) int {
	if o == nil {
		return 0
	}
	return o.t.add(o.id, o.op, name, start, d)
}

// under adds a grandchild: a span inside the child span parent.
func (o *opSpan) under(parent int, name string, start time.Time, d time.Duration) {
	if o == nil || parent == 0 {
		return
	}
	o.t.add(parent, o.op, name, start, d)
}

// selfTimes returns, per span name, the total self time in microseconds:
// a span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range t.spans {
		out[s.Name] += (s.EndUS - s.StartUS) - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent.
func covered(p span, cs []span) int64 {
	if len(cs) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(cs))
	for _, c := range cs {
		lo, hi := max(c.StartUS, p.StartUS), min(c.EndUS, p.EndUS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total, end int64
	end = -1 << 62
	for _, x := range iv {
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// coverage returns, for root spans whose name has the given prefix, the
// median share of the operation its children cover, and the share of all
// such operations' time spent in children named child.
func (t *tracer) coverage(prefix, child string) (medianCovered, childShare float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var shares []float64
	var rootUS, childUS int64
	for _, s := range t.spans {
		if s.Parent != 0 || len(s.Name) < len(prefix) || s.Name[:len(prefix)] != prefix {
			continue
		}
		d := s.EndUS - s.StartUS
		if d <= 0 {
			continue
		}
		shares = append(shares, float64(covered(s, kids[s.ID]))/float64(d))
		rootUS += d
		for _, c := range kids[s.ID] {
			if c.Name == child {
				childUS += min(c.EndUS, s.EndUS) - max(c.StartUS, s.StartUS)
			}
		}
	}
	if rootUS == 0 {
		return 0, 0
	}
	return median(shares), float64(childUS) / float64(rootUS)
}

// write dumps every span as JSON.
func (t *tracer) write(path string, header map[string]any) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := map[string]any{"spans": t.spans}
	for k, v := range header {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
