package server_test

// Live ingest through the full HTTP stack: append and subscribe over
// both wire framings, backpressure as typed, retryable 429s, and the
// retention surface.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/rpcwire"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/server"
)

// liveScene generates the synthetic camera feed the live tests append.
func liveScene(t *testing.T, frames int) *scene.Video {
	t.Helper()
	v, err := scene.Generate(scene.Spec{
		Name: "cam", W: 128, H: 64, FPS: 10, DurationSec: (frames + 9) / 10,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 1, SizeFrac: 0.25}},
		Seed:    29,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Spec.NumFrames() < frames {
		t.Fatalf("feed has %d frames, need %d", v.Spec.NumFrames(), frames)
	}
	return v
}

// TestLiveAppendSubscribeBothFramings drives the whole live path over
// the wire twice — once per framing. Appends alternate between the
// binary TASMFRM2 body and the JSON fallback; a subscriber tails on
// each framing concurrently; after the seal both must have delivered
// every frame exactly once, byte-identical to an in-process re-scan.
func TestLiveAppendSubscribeBothFramings(t *testing.T) {
	h := newHarness(t, server.Config{})
	bc := binaryClient(t, h)
	const total = 40
	v := liveScene(t, total)
	ctx := context.Background()

	if err := h.c.CreateLiveContext(ctx, "cam", 128, 64, 10, nil); err != nil {
		t.Fatal(err)
	}

	type run struct {
		indices []int
		pixels  map[int][]byte
		err     error
	}
	tail := func(c *client.Client, out chan<- run) {
		r := run{pixels: map[int][]byte{}}
		cur, err := c.Subscribe(ctx, "cam", 0)
		if err != nil {
			r.err = err
			out <- r
			return
		}
		defer cur.Close()
		for cur.Next() {
			res := cur.Result()
			r.indices = append(r.indices, res.Index)
			r.pixels[res.Index] = append(append(append([]byte(nil), res.Pixels.Y...), res.Pixels.Cb...), res.Pixels.Cr...)
		}
		r.err = cur.Err()
		out <- r
	}
	jsonC := make(chan run, 1)
	binC := make(chan run, 1)
	go tail(h.c, jsonC)
	go tail(bc, binC)

	// Appends alternate framings; both commit through the same queue.
	gop := 5
	for from := 0; from < total; from += gop {
		c := bc
		if (from/gop)%2 == 1 {
			c = h.c
		}
		st, err := c.AppendContext(ctx, "cam", v.Frames(from, min(from+gop, total)))
		if err != nil {
			t.Fatalf("append [%d,%d): %v", from, from+gop, err)
		}
		if st.FrameCount != min(from+gop, total) {
			t.Fatalf("append head %d after [%d,%d)", st.FrameCount, from, from+gop)
		}
	}
	if err := h.c.SealContext(ctx, "cam"); err != nil {
		t.Fatal(err)
	}

	runs := map[string]run{}
	for name, ch := range map[string]chan run{"ndjson": jsonC, "binary": binC} {
		select {
		case runs[name] = <-ch:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s tail did not terminate after seal", name)
		}
	}
	ref, _, err := h.sm.DecodeFramesContext(ctx, "cam", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range runs {
		if r.err != nil {
			t.Fatalf("%s tail: %v", name, r.err)
		}
		if len(r.indices) != total {
			t.Fatalf("%s tail delivered %d frames, want %d", name, len(r.indices), total)
		}
		for i, idx := range r.indices {
			if idx != i {
				t.Fatalf("%s tail: delivery %d has index %d (not exactly-once)", name, i, idx)
			}
			want := append(append(append([]byte(nil), ref[i].Y...), ref[i].Cb...), ref[i].Cr...)
			if !bytes.Equal(r.pixels[i], want) {
				t.Fatalf("%s tail: frame %d not byte-identical to in-process re-scan", name, i)
			}
		}
	}
}

// TestAppendBackpressureTypedAnd429 fills the per-video commit queue
// and verifies the overload surface end to end: the client sees a
// typed, retryable tasm.ErrIngestBackpressure; the raw HTTP response
// is a 429 with a Retry-After; and the queued (not rejected) append
// still commits. Two appends race for the one queue slot, so which of
// them queues is up to the scheduler, but exactly one must bounce.
func TestAppendBackpressureTypedAnd429(t *testing.T) {
	h := newHarness(t, server.Config{}, tasm.WithAppendQueueDepth(1))
	bc := binaryClient(t, h)
	const total = 100
	v := liveScene(t, total)
	ctx := context.Background()

	if err := h.c.CreateLiveContext(ctx, "cam", 128, 64, 10, nil); err != nil {
		t.Fatal(err)
	}

	// A very large append occupies the video's drain goroutine for its
	// whole batch; with depth 1 exactly one more call may queue behind
	// it. The batch cycles the feed — content is irrelevant here, only
	// how long its encode keeps the queue busy.
	var big []*tasm.Frame
	for len(big) < 990 {
		big = append(big, v.Frames(0, total-10)...)
	}
	big = big[:990]
	var wg sync.WaitGroup
	bigErr := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := bc.AppendContext(ctx, "cam", big)
		bigErr <- err
	}()
	// Wait until the big batch is mid-commit, then send two appends at
	// once for the one queue slot behind it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		meta, err := h.sm.Meta("cam")
		if err != nil {
			t.Fatal(err)
		}
		if meta.FrameCount >= 5 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("large append never started committing")
		}
		time.Sleep(time.Millisecond)
	}
	racers := make(chan error, 2)
	for i, c := range []*client.Client{h.c, bc} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.AppendContext(ctx, "cam", v.Frames(total-10+5*i, total-5+5*i))
			racers <- err
		}()
	}

	// The loser bounces at once with the typed sentinel, which the
	// client classifies as retryable; the winner waits in the queue until
	// the batch commits.
	err := <-racers
	if !errors.Is(err, tasm.ErrIngestBackpressure) {
		t.Fatalf("append on full queue = %v, want ErrIngestBackpressure", err)
	}
	if !client.Retryable(err) {
		t.Fatalf("backpressure not classified retryable: %v", err)
	}

	// The same overload on the raw wire: 429 plus a Retry-After hint.
	body, err := json.Marshal(rpcwire.AppendRequest{
		Video:  "cam",
		Frames: []rpcwire.Frame{rpcwire.FromFrame(v.Frames(total-5, total)[0])},
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(h.ts.URL+"/v1/append", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("raw append on full queue = HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 carries no Retry-After header")
	}
	var we struct {
		Error rpcwire.ErrorBody `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&we); err != nil || we.Error.Code != "ingest_backpressure" {
		t.Errorf("429 body code = %q, %v; want ingest_backpressure", we.Error.Code, err)
	}

	// The in-flight and queued appends both land; only the bounced call
	// did no work.
	if err := <-bigErr; err != nil {
		t.Fatalf("large append: %v", err)
	}
	if err := <-racers; err != nil {
		t.Fatalf("queued append: %v", err)
	}
	wg.Wait()
	meta, err := h.sm.Meta("cam")
	if err != nil {
		t.Fatal(err)
	}
	if want := len(big) + 5; meta.FrameCount != want {
		t.Fatalf("append head %d, want %d (in-flight %d + queued 5)", meta.FrameCount, want, len(big))
	}
}

// TestRetentionOverWire installs a policy remotely and verifies the
// trim report and the late subscriber's clamp through the client.
func TestRetentionOverWire(t *testing.T) {
	h := newHarness(t, server.Config{})
	const total = 40
	v := liveScene(t, total)
	ctx := context.Background()

	if err := h.c.CreateLiveContext(ctx, "cam", 128, 64, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.c.AppendContext(ctx, "cam", v.Frames(0, total)); err != nil {
		t.Fatal(err)
	}
	// GOP 5, head 40: keep the trailing 15 frames — SOTs ending at or
	// before 25 expire, so the floor lands on frame 25.
	rep, err := h.c.SetRetentionContext(ctx, "cam", &tasm.RetentionPolicy{MaxAgeFrames: 15})
	if err != nil {
		t.Fatal(err)
	}
	if rep.TrimmedTo != 25 || len(rep.Removed) != 5 {
		t.Fatalf("trim report = %+v, want floor 25 and 5 SOTs removed", rep)
	}
	if err := h.c.SealContext(ctx, "cam"); err != nil {
		t.Fatal(err)
	}

	cur, err := h.c.Subscribe(ctx, "cam", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	first, n := -1, 0
	for cur.Next() {
		if first < 0 {
			first = cur.Result().Index
		}
		n++
	}
	if err := cur.Err(); err != nil {
		t.Fatal(err)
	}
	if first != 25 || n != total-25 {
		t.Fatalf("late tail from 0: first %d, %d frames; want clamp to 25, %d frames", first, n, total-25)
	}

	// Appending after the seal is the typed conflict.
	if _, err := h.c.AppendContext(ctx, "cam", v.Frames(0, 5)); !errors.Is(err, tasm.ErrVideoSealed) {
		t.Fatalf("append after seal = %v, want ErrVideoSealed", err)
	}
}
