package live

import (
	"context"
	"fmt"
	"sync"

	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// Ingestor is the per-video bounded commit queue behind AppendGOP. Each
// video's jobs (encode + SOT commit closures) run serially on a lazily
// started drain goroutine, so commit order is enqueue order and encode
// of GOP n+1 overlaps the caller's framing of n+2; when a video's queue
// is full the append is refused immediately with
// tasmerr.ErrIngestBackpressure — the server's 429 — instead of
// buffering unboundedly or blocking the ingest connection.
type Ingestor struct {
	depth int

	mu     sync.Mutex
	queues map[string]*videoQueue
}

type videoQueue struct {
	jobs   chan job
	active bool // a drain goroutine owns this queue
}

type job struct {
	run  func() error
	done chan error // buffered: the runner never blocks on an abandoned caller
}

// DefaultQueueDepth bounds pending commits per video when no explicit
// depth is configured.
const DefaultQueueDepth = 4

// NewIngestor returns an ingestor allowing depth pending commits per
// video (<= 0 selects DefaultQueueDepth).
func NewIngestor(depth int) *Ingestor {
	if depth <= 0 {
		depth = DefaultQueueDepth
	}
	return &Ingestor{depth: depth, queues: map[string]*videoQueue{}}
}

// Do enqueues run on video's commit queue and waits for its result. A
// full queue fails fast with ErrIngestBackpressure (run is not called);
// a context that ends while waiting returns ctx's error, and the job
// still runs to completion — its commit is already ordered.
func (i *Ingestor) Do(ctx context.Context, video string, run func() error) error {
	j := job{run: run, done: make(chan error, 1)}
	i.mu.Lock()
	q := i.queues[video]
	if q == nil {
		q = &videoQueue{jobs: make(chan job, i.depth)}
		i.queues[video] = q
	}
	select {
	case q.jobs <- j:
	default:
		i.mu.Unlock()
		return fmt.Errorf("live: video %q: %w: %d commits pending", video, tasmerr.ErrIngestBackpressure, i.depth)
	}
	if !q.active {
		q.active = true
		go i.drain(q)
	}
	i.mu.Unlock()
	select {
	case err := <-j.done:
		return err
	case <-ctx.Done():
		return fmt.Errorf("live: append %q: %w", video, ctx.Err())
	}
}

// drain runs queued jobs serially until the queue is observed empty
// under the ingestor lock (so an enqueue can never race a dying
// drainer into a stalled queue).
func (i *Ingestor) drain(q *videoQueue) {
	for {
		select {
		case j := <-q.jobs:
			j.done <- j.run()
		default:
			i.mu.Lock()
			select {
			case j := <-q.jobs:
				i.mu.Unlock()
				j.done <- j.run()
			default:
				q.active = false
				i.mu.Unlock()
				return
			}
		}
	}
}

// Forget drops a video's queue entry so long-lived ingestors cycling
// many names do not accumulate one forever. In-flight jobs finish on
// the old queue; correctness does not depend on the map entry (SOT
// numbering is assigned under the store's catalog lock), only fairness
// of the per-video bound does, and a deleted video's appends fail in
// the store anyway.
func (i *Ingestor) Forget(video string) {
	i.mu.Lock()
	delete(i.queues, video)
	i.mu.Unlock()
}

// Pending reports how many commits are queued (running or waiting) for
// video. Only tests read it; /metrics does not export it.
func (i *Ingestor) Pending(video string) int {
	i.mu.Lock()
	defer i.mu.Unlock()
	if q := i.queues[video]; q != nil {
		return len(q.jobs)
	}
	return 0
}
