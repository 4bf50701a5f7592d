package shard_test

// Live ingest across the fleet: appends and subscriptions route to the
// owning shard, tails survive map reloads, and a shard dying under an
// active subscription surfaces the typed unavailability sentinel.

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"github.com/tasm-repro/tasm"
	"github.com/tasm-repro/tasm/client"
	"github.com/tasm-repro/tasm/internal/scene"
	"github.com/tasm-repro/tasm/internal/shard"
)

func liveFleetFeed(t *testing.T, frames int) *scene.Video {
	t.Helper()
	v, err := scene.Generate(scene.Spec{
		Name: "cam0", W: 128, H: 64, FPS: 10, DurationSec: (frames + 9) / 10,
		Classes: []scene.ClassMix{{Class: scene.Car, Count: 1, SizeFrac: 0.25}},
		Seed:    61,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.Spec.NumFrames() < frames {
		t.Fatalf("feed has %d frames, need %d", v.Spec.NumFrames(), frames)
	}
	return v
}

// TestLiveAppendSubscribeThroughRouter drives the live path entirely
// through the router: create, append, and a binary-framing tail all
// land on the owning shard; a map reload mid-stream (the SIGHUP shape)
// does not disturb the subscription; and after the seal the delivered
// frames are byte-identical to a batch re-scan on the owner.
func TestLiveAppendSubscribeThroughRouter(t *testing.T) {
	f := newFleet(t)
	const total = 40
	v := liveFleetFeed(t, total)
	ctx := context.Background()

	bc, err := client.New(f.ts.URL, client.WithEncoding(client.Binary))
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()

	if err := f.c.CreateLiveContext(ctx, "cam0", 128, 64, 10, nil); err != nil {
		t.Fatal(err)
	}
	owner := f.shards[f.owner("cam0")]
	if _, err := owner.sm.Meta("cam0"); err != nil {
		t.Fatalf("live create did not land on the owning shard: %v", err)
	}

	type run struct {
		indices []int
		pixels  map[int][]byte
		err     error
	}
	out := make(chan run, 1)
	go func() {
		r := run{pixels: map[int][]byte{}}
		cur, err := bc.Subscribe(ctx, "cam0", 0)
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
	}()

	gop := 5
	for from := 0; from < total; from += gop {
		if _, err := f.c.AppendContext(ctx, "cam0", v.Frames(from, min(from+gop, total))); err != nil {
			t.Fatalf("routed append [%d,%d): %v", from, from+gop, err)
		}
		if from == total/2 {
			// The SIGHUP shape mid-stream: reinstall an equivalent map.
			// The relay to the owning shard must keep streaming.
			m2, err := shard.NewMap(f.m.Shards(), 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.rt.SetMap(m2); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.c.SealContext(ctx, "cam0"); err != nil {
		t.Fatal(err)
	}

	var r run
	select {
	case r = <-out:
	case <-time.After(30 * time.Second):
		t.Fatal("routed tail did not terminate after seal")
	}
	if r.err != nil {
		t.Fatalf("routed tail: %v", r.err)
	}
	if len(r.indices) != total {
		t.Fatalf("routed tail delivered %d frames, want %d", len(r.indices), total)
	}
	ref, _, err := owner.sm.DecodeFramesContext(ctx, "cam0", 0, total)
	if err != nil {
		t.Fatal(err)
	}
	for i, idx := range r.indices {
		if idx != i {
			t.Fatalf("delivery %d has index %d (not exactly-once)", i, idx)
		}
		want := append(append(append([]byte(nil), ref[i].Y...), ref[i].Cb...), ref[i].Cr...)
		if !bytes.Equal(r.pixels[i], want) {
			t.Fatalf("frame %d through the router not byte-identical to the owner's re-scan", i)
		}
	}
}

// TestShardKillMidSubscribe: a shard dying under an active routed
// subscription must surface tasm.ErrShardUnavailable on the tail — a
// typed, classifiable failure, not a hang or a silent clean end.
func TestShardKillMidSubscribe(t *testing.T) {
	f := newFleet(t)
	const total = 20
	v := liveFleetFeed(t, total)
	ctx := context.Background()

	if err := f.c.CreateLiveContext(ctx, "cam0", 128, 64, 10, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.AppendContext(ctx, "cam0", v.Frames(0, total)); err != nil {
		t.Fatal(err)
	}

	cur, err := f.c.Subscribe(ctx, "cam0", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Close()
	// Drain the committed history; the tail is then blocked on the
	// owning shard waiting for the next commit.
	delivered := 0
	for delivered < total && cur.Next() {
		delivered++
	}
	if delivered != total {
		t.Fatalf("tail ended after %d frames: %v", delivered, cur.Err())
	}

	victim := f.shards[f.owner("cam0")]
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for cur.Next() {
			delivered++
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("tail still blocked after its shard died")
	}
	if err := cur.Err(); !errors.Is(err, tasm.ErrShardUnavailable) {
		t.Fatalf("after shard kill: err = %v, want ErrShardUnavailable", err)
	}
	if !errors.Is(cur.Err(), client.ErrShardUnavailable) {
		t.Fatal("client re-export does not match the same sentinel")
	}
}
