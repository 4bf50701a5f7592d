package core

// Live ingest: the append-mode write path and live-tail read path of
// paper-adjacent open-ended streams (surveillance cameras record
// forever and are queried while recording). Appends commit one SOT at a
// time through the store's MVCC manifest flip; subscribers tail the
// committed prefix through ordinary FrameCursors — so every live read
// runs under snapshot leases, feeds the adaptive-tiling observer, and
// can never observe a torn SOT — and are woken by the commit hub
// instead of polling.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/tasm-repro/tasm/internal/frame"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/tasmerr"
	"github.com/tasm-repro/tasm/internal/tilestore"
	"github.com/tasm-repro/tasm/internal/vcodec"
)

// CreateLiveVideo opens an open-ended append-mode video with the given
// geometry (and optional retention policy); frames arrive later through
// AppendGOPContext and the video stays queryable throughout.
func (m *Manager) CreateLiveVideo(video string, w, h, fps int, pol *tilestore.RetentionPolicy) error {
	gop := m.cfg.Codec.GOPLength
	if gop <= 0 {
		gop = vcodec.DefaultParams().GOPLength
	}
	meta := tilestore.VideoMeta{Name: video, W: w, H: h, FPS: fps, GOPLength: gop, Retention: pol}
	if err := m.store.CreateLiveVideo(meta); err != nil {
		return err
	}
	// Same clean-slate rule as a batch ingest: no stale observation
	// evidence survives a name's re-creation.
	if m.observer != nil {
		m.observer.ForgetVideo(video)
	}
	return nil
}

// AppendStats reports the work of one AppendGOPContext call. EncodeWall
// sums the wall time of each GOP's encode, not per-tile encode times.
type AppendStats struct {
	EncodeWall time.Duration `json:"encode_wall_ns"`
	Bytes      int64         `json:"bytes"`
	SOTs       int           `json:"sots"`
	Frames     int           `json:"frames"`
	// FrameCount is the video's append head after this call's commits.
	FrameCount int `json:"frame_count"`
}

// AppendGOPContext appends frames to a live video, committing one SOT
// per GOP-length chunk (the trailing chunk may be shorter). Each commit
// is the store's atomic manifest flip: a crash mid-append keeps every
// previously committed SOT intact. Commits run on the video's bounded
// queue — a full queue rejects the whole call with
// tasmerr.ErrIngestBackpressure before any work — and each landed SOT
// wakes subscribers and applies the retention policy. The encode honors
// ctx per frame; a context that ends while queued commits are in flight
// returns early, but the ordered commits themselves run to completion.
func (m *Manager) AppendGOPContext(ctx context.Context, video string, frames []*frame.Frame) (AppendStats, error) {
	var st AppendStats
	if len(frames) == 0 {
		return st, fmt.Errorf("core: %w", tasmerr.ErrNoFrames)
	}
	meta, err := m.store.Meta(video)
	if err != nil {
		return st, err
	}
	if !meta.Live {
		return st, fmt.Errorf("core: append to %q: %w", video, tasmerr.ErrVideoSealed)
	}
	for i, f := range frames {
		if f.W != meta.W || f.H != meta.H {
			return st, fmt.Errorf("core: append to %q: %w: frame %d is %dx%d, video is %dx%d",
				video, tasmerr.ErrInvalidRange, i, f.W, f.H, meta.W, meta.H)
		}
	}
	gop := meta.GOPLength
	l := layout.Single(meta.W, meta.H)
	err = m.ingest.Do(ctx, video, func() error {
		for from := 0; from < len(frames); from += gop {
			to := min(from+gop, len(frames))
			encStart := time.Now()
			sotTiles, err := m.encodeSOTs(ctx, [][]*frame.Frame{frames[from:to]}, []layout.Layout{l}, meta.FPS)
			if err != nil {
				return fmt.Errorf("core: append to %q: %w", video, err)
			}
			st.EncodeWall += time.Since(encStart)
			tiles := sotTiles[0]
			sot, err := m.store.AppendSOT(video, l, tiles)
			if err != nil {
				return err
			}
			for _, tv := range tiles {
				st.Bytes += tv.SizeBytes()
			}
			st.SOTs++
			st.Frames += sot.NumFrames()
			st.FrameCount = sot.To
			// Publish after the manifest flip: a woken subscriber's
			// snapshot is guaranteed to see the new SOT.
			m.hub.Publish(video, sot.To)
			// Retention rides the append path so expiry needs no timer. A
			// trim failure must not fail the append — the SOT is already
			// committed — and the next commit retries it.
			if meta.Retention != nil {
				m.TrimExpired(video)
			}
		}
		return nil
	})
	return st, err
}

// SealVideo converts a live video into a normal batch one: no further
// appends, reads unchanged. Waiting subscribers are woken so a
// caught-up tail terminates cleanly instead of waiting forever.
func (m *Manager) SealVideo(video string) error {
	if err := m.store.SealVideo(video); err != nil {
		return err
	}
	meta, err := m.store.Meta(video)
	if err != nil {
		return err
	}
	m.hub.Publish(video, meta.FrameCount)
	return nil
}

// SetRetention installs (nil clears) a live video's retention policy
// and immediately applies it.
func (m *Manager) SetRetention(video string, pol *tilestore.RetentionPolicy) (tilestore.TrimReport, error) {
	if err := m.store.SetRetention(video, pol); err != nil {
		return tilestore.TrimReport{}, err
	}
	return m.TrimExpired(video)
}

// TrimExpired applies a live video's retention policy now, dropping the
// trimmed SOTs' cached decodes (their files retire through the store's
// lease-aware tombstone machinery).
func (m *Manager) TrimExpired(video string) (tilestore.TrimReport, error) {
	rep, err := m.store.TrimExpired(video)
	for _, id := range rep.Removed {
		m.cache.InvalidateSOT(video, id)
	}
	return rep, err
}

// SubscribeCursor is a live tail: it streams committed whole frames
// from a watermark onward, waking on new commits, and terminates
// cleanly once a sealed (or batch) video is fully delivered. It is not
// safe for concurrent Next calls, but Close may be called from another
// goroutine to abort a blocked Next.
type SubscribeCursor struct {
	m      *Manager
	ctx    context.Context
	cancel context.CancelFunc
	video  string
	sub    liveSub

	pos     int // next frame index to deliver
	chunkTo int // exclusive end of the chunk inner is draining
	inner   *FrameCursor
	cur     FrameResult

	mu     sync.Mutex
	err    error
	stats  ScanStats
	closed bool
	done   bool
}

// liveSub narrows *live.Sub so the cursor is testable without the hub.
type liveSub interface {
	State() (int, error)
	Wait(ctx context.Context, after int) (int, error)
	Close()
}

// Subscribe opens a live tail on video delivering every frame committed
// at index >= from (clamped up to the retention floor). A watermark at
// or past the append head delivers only new commits. Subscribing to a
// batch video replays [from, FrameCount) and ends cleanly — replay and
// tail are the same operation.
func (m *Manager) Subscribe(ctx context.Context, video string, from int) (*SubscribeCursor, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: subscribe %q: %w", video, err)
	}
	// Register on the hub before reading the catalog: a commit landing
	// between the two publishes to the registration, so no commit can
	// fall between the snapshot and the subscription.
	sub := m.hub.Subscribe(video, 0)
	meta, err := m.store.Meta(video)
	if err != nil {
		sub.Close()
		return nil, err
	}
	m.hub.Publish(video, meta.FrameCount)
	if from < 0 {
		from = 0
	}
	if from < meta.TrimmedTo {
		from = meta.TrimmedTo
	}
	cctx, cancel := context.WithCancel(ctx)
	return &SubscribeCursor{
		m: m, ctx: cctx, cancel: cancel, video: video, sub: sub, pos: from,
	}, nil
}

// Next advances to the next committed frame, blocking on the commit hub
// while caught up. False means the stream ended: cleanly (a sealed
// video fully delivered) when Err is nil, otherwise with Err's cause —
// tasmerr.ErrVideoDeleted when the video was deleted under the tail.
func (c *SubscribeCursor) Next() bool {
	for {
		c.mu.Lock()
		stop := c.closed || c.err != nil || c.done
		c.mu.Unlock()
		if stop {
			return false
		}
		if c.inner != nil {
			if c.inner.Next() {
				c.cur = c.inner.Result()
				c.pos = c.cur.Index + 1
				return true
			}
			err := c.inner.Err()
			c.mu.Lock()
			c.stats.Add(c.inner.Stats())
			c.mu.Unlock()
			c.inner = nil
			if err != nil {
				return c.fail(err)
			}
			// Chunk drained; retention may have trimmed part of the
			// range, so advance to the chunk's end, not the last result.
			c.pos = c.chunkTo
		}
		committed, serr := c.sub.State()
		if serr != nil {
			return c.fail(serr)
		}
		if committed > c.pos {
			inner, err := c.m.frameCursor(c.ctx, c.video, c.pos, committed, 0)
			if err != nil {
				return c.fail(err)
			}
			c.inner, c.chunkTo = inner, committed
			continue
		}
		meta, merr := c.m.store.Meta(c.video)
		if merr != nil {
			return c.fail(merr)
		}
		if !meta.Live && c.pos >= meta.FrameCount {
			c.mu.Lock()
			c.done = true
			c.mu.Unlock()
			return false
		}
		if _, werr := c.sub.Wait(c.ctx, c.pos); werr != nil {
			return c.fail(werr)
		}
	}
}

// fail records the terminal error (first wins) and ends the stream. A
// not-found surfacing mid-subscription means the video was deleted
// under the tail — DeleteVideo cancels through the hub, but a reader
// racing ahead of the cancel classifies identically.
func (c *SubscribeCursor) fail(err error) bool {
	if errors.Is(err, tasmerr.ErrVideoNotFound) {
		err = fmt.Errorf("core: subscription to %q: %w", c.video, tasmerr.ErrVideoDeleted)
	} else if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		err = fmt.Errorf("core: subscription to %q: %w", c.video, err)
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
	c.cancel()
	return false
}

// Result returns the frame Next advanced to.
func (c *SubscribeCursor) Result() FrameResult { return c.cur }

// Err returns the error that terminated the tail; nil while streaming
// or after a sealed video's clean exhaustion.
func (c *SubscribeCursor) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Stats returns the accumulated decode accounting of every chunk
// delivered so far.
func (c *SubscribeCursor) Stats() ScanStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Close ends the tail: the hub registration is dropped and the inner
// cursor's pipeline (if any) is cancelled, releasing its leases. A
// Close before exhaustion records tasmerr.ErrCursorClosed. Safe to call
// concurrently with a blocked Next (which then returns false) and safe
// to call twice.
func (c *SubscribeCursor) Close() error {
	c.mu.Lock()
	already := c.closed
	if !c.closed {
		c.closed = true
		if c.err == nil && !c.done {
			c.err = fmt.Errorf("core: subscription to %q: %w", c.video, tasmerr.ErrCursorClosed)
		}
	}
	c.mu.Unlock()
	if already {
		return nil
	}
	c.cancel()
	c.sub.Close()
	// The inner pipeline exits on the cancelled context and releases its
	// lease itself; Close it here only when Next is not mid-flight (the
	// single-consumer contract makes the two cases distinguishable by
	// the caller, and a concurrent Next's inner teardown is context-
	// driven either way).
	return nil
}
