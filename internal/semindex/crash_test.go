package semindex

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm/internal/fsio"
	"github.com/tasm-repro/tasm/internal/geom"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

const memLog = "/semindex.log"

func openMem(t *testing.T, fs fsio.FS) *Index {
	t.Helper()
	ix, err := open(fs, memLog)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// state renders everything the index answers — every (video, label)'s
// detections in lookup order and its coverage spans — as one string.
func state(ix *Index) string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var b strings.Builder
	for _, video := range slices.Sorted(maps.Keys(ix.videos)) {
		for _, label := range slices.Sorted(maps.Keys(ix.videos[video])) {
			li := ix.videos[video][label]
			fmt.Fprintf(&b, "%s/%s: %v cov %v\n", video, label, li.dets, li.cov)
		}
	}
	return b.String()
}

// batch returns n distinct detections of one label.
func batch(label string, n, seed int) []Detection {
	ds := make([]Detection, n)
	for i := range ds {
		x, y := (i*7+seed)%600, (i*13+seed)%400
		ds[i] = Detection{Frame: i % 90, Label: label, Box: geom.R(x, y, x+24, y+16)}
	}
	return ds
}

// history is the scripted write sequence the power-cut test crashes:
// adds, marks, a delete and a re-add under the same name, and enough
// churn on a second video to trigger a checkpoint.
var history = []func(ix *Index) error{
	func(ix *Index) error { return ix.AddBatch("a", batch("car", 2000, 1)) },
	func(ix *Index) error { return ix.MarkDetected("a", "car", 0, 90) },
	func(ix *Index) error { return ix.AddBatch("b", batch("person", 5, 2)) },
	func(ix *Index) error { return ix.AddBatch("a", batch("person", 2000, 3)) },
	func(ix *Index) error { return ix.DeleteVideo("a") },
	func(ix *Index) error { return ix.AddBatch("a", batch("car", 3, 4)) },
	func(ix *Index) error { return ix.MarkDetected("a", "car", 10, 20) },
	func(ix *Index) error { return ix.AddBatch("c", batch("bus", 2000, 5)) },
	func(ix *Index) error { return ix.DeleteVideo("c") },
	func(ix *Index) error { return ix.MarkDetected("b", "person", 0, 5) },
}

// TestPowerCutEveryCrashpoint crashes the scripted history at every
// filesystem mutation, recovers the durable state and reopens: every
// write acknowledged before the cut is present, a video whose delete
// was acknowledged never returns, and the in-flight write is all or
// nothing.
func TestPowerCutEveryCrashpoint(t *testing.T) {
	ref := fsio.NewMemFS()
	ix := openMem(t, ref)
	states := []string{state(ix)}
	checkpoints := 0
	for i, step := range history {
		before := ref.Ops()
		if err := step(ix); err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		// A write is two mutations (append, sync); a checkpoint four more.
		if ref.Ops()-before > 2 {
			checkpoints++
		}
		states = append(states, state(ix))
	}
	if checkpoints == 0 {
		t.Fatal("history never checkpointed")
	}
	n := ref.Ops()
	t.Logf("history: %d steps, %d crashpoints, %d checkpoints", len(history), n, checkpoints)

	for k := 1; k <= n; k++ {
		fs := fsio.NewMemFS()
		fs.CrashAt(k)
		done := 0
		if ix, err := open(fs, memLog); err == nil {
			for _, step := range history {
				if step(ix) != nil {
					break
				}
				done++
			}
		}
		fs.Recover()
		ix, err := open(fs, memLog)
		if err != nil {
			t.Fatalf("crashpoint %d: reopen: %v", k, err)
		}
		got := state(ix)
		if got != states[done] && (done+1 == len(states) || got != states[done+1]) {
			t.Errorf("crashpoint %d (after step %d): recovered state is neither the acknowledged one nor the in-flight write's", k, done)
		}
		// The reopened index takes writes that survive another cycle.
		if err := ix.AddBatch("z", batch("car", 1, 9)); err != nil {
			t.Fatalf("crashpoint %d: write after recovery: %v", k, err)
		}
		fs.Recover()
		if again := state(openMem(t, fs)); again != state(ix) {
			t.Errorf("crashpoint %d: write after recovery lost", k)
		}
	}
}

// A final append torn by the crash is dropped at open, and the log is
// cut back so the next record does not land behind the torn bytes.
func TestTornTailDropped(t *testing.T) {
	for _, off := range []int{1, headerLen - 1, headerLen, headerLen + 5} {
		fs := fsio.NewMemFS()
		ix := openMem(t, fs)
		for i := 0; i < 3; i++ {
			if err := ix.AddBatch("v", batch("car", 4, i)); err != nil {
				t.Fatal(err)
			}
		}
		acked := state(ix)
		fs.TearWrite(1, off)
		if err := ix.AddBatch("v", batch("car", 4, 7)); !errors.Is(err, fsio.ErrTornWrite) {
			t.Fatalf("torn append: err = %v", err)
		}
		// The torn prefix reached the disk before the power went.
		if err := fs.SyncFile(memLog); err != nil {
			t.Fatal(err)
		}
		fs.Recover()
		ix2, err := open(fs, memLog)
		if err != nil {
			t.Fatalf("tear at %d: open: %v", off, err)
		}
		if got := state(ix2); got != acked {
			t.Fatalf("tear at %d: state changed across the torn append", off)
		}
		if err := ix2.AddBatch("w", batch("bus", 2, 0)); err != nil {
			t.Fatal(err)
		}
		fs.Recover()
		if got := state(openMem(t, fs)); got != state(ix2) {
			t.Errorf("tear at %d: record after the torn tail lost on reopen", off)
		}
	}
}

// An append that fails without a crash (a short write, say) leaves the
// index usable: the next write lands in a log without the torn bytes.
func TestFailedAppendThenWrite(t *testing.T) {
	fs := fsio.NewMemFS()
	ix := openMem(t, fs)
	if err := ix.AddBatch("v", batch("car", 4, 0)); err != nil {
		t.Fatal(err)
	}
	fs.TearWrite(1, headerLen+3)
	if err := ix.AddBatch("v", batch("car", 4, 1)); err == nil {
		t.Fatal("torn append acknowledged")
	}
	if err := ix.AddBatch("w", batch("bus", 2, 2)); err != nil {
		t.Fatal(err)
	}
	fs.Recover()
	ix2, err := open(fs, memLog)
	if err != nil {
		t.Fatalf("reopen after a failed append: %v", err)
	}
	if state(ix2) != state(ix) {
		t.Error("reopened state differs from the acknowledged writes")
	}
}

// A byte flipped anywhere in a record before the last fails Open with
// ErrTileCorrupt: damage never silently drops acknowledged records.
func TestFlippedByteFailsOpen(t *testing.T) {
	fs := fsio.NewMemFS()
	ix := openMem(t, fs)
	last := int64(0) // where the final record starts
	for i := 0; i < 3; i++ {
		fi, err := fs.Stat(memLog)
		if err != nil {
			t.Fatal(err)
		}
		last = fi.Size()
		if err := ix.AddBatch("v", batch("car", 2, i)); err != nil {
			t.Fatal(err)
		}
	}
	clean, err := fs.ReadFile(memLog)
	if err != nil {
		t.Fatal(err)
	}
	for i := range last {
		data := append([]byte(nil), clean...)
		data[i] ^= 0x10
		if err := fs.WriteFile(memLog, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := open(fs, memLog); !errors.Is(err, tasmerr.ErrTileCorrupt) {
			t.Fatalf("byte %d of %d flipped: open err = %v, want ErrTileCorrupt", i, last, err)
		}
	}
}

// syncHookFS runs onSync before every SyncFile.
type syncHookFS struct {
	*fsio.MemFS
	onSync func()
}

func (h syncHookFS) SyncFile(p string) error {
	h.onSync()
	return h.MemFS.SyncFile(p)
}

// A write is acknowledged only after its record is synced, applied only
// after that, and never holds the lock lookups take across an fsync.
func TestApplyAfterSyncOutsideLookupLock(t *testing.T) {
	var ix *Index
	syncs := 0
	fs := syncHookFS{MemFS: fsio.NewMemFS(), onSync: func() {
		if ix == nil {
			return
		}
		syncs++
		if !ix.mu.TryRLock() {
			t.Error("fsync under the lookup lock")
			return
		}
		ix.mu.RUnlock()
		if got, _ := ix.Lookup("v", "car", 0, 100); len(got) != 0 {
			t.Error("write visible before its record was synced")
		}
	}}
	ix = openMem(t, fs)
	if err := ix.AddBatch("v", batch("car", 3, 0)); err != nil {
		t.Fatal(err)
	}
	if syncs == 0 {
		t.Fatal("AddBatch acknowledged without a sync")
	}
	if got, _ := ix.Lookup("v", "car", 0, 100); len(got) != 3 {
		t.Errorf("acknowledged write not visible: %d detections", len(got))
	}
}

// Churn on one video keeps the log under a constant bound: the dead
// records are checkpointed away, not accumulated.
func TestLogBoundedUnderChurn(t *testing.T) {
	fs := fsio.NewMemFS()
	ix := openMem(t, fs)
	d := []Detection{{Frame: 3, Label: "car", Box: geom.R(10, 10, 40, 40)}}
	peak := int64(0)
	for i := 0; i < 10000; i++ {
		if err := ix.AddBatch("v", d); err != nil {
			t.Fatal(err)
		}
		if err := ix.DeleteVideo("v"); err != nil {
			t.Fatal(err)
		}
		fi, err := fs.Stat(memLog)
		if err != nil {
			t.Fatal(err)
		}
		peak = max(peak, fi.Size())
	}
	if bound := int64(checkpointBytes + 1<<10); peak > bound {
		t.Errorf("log peaked at %d bytes over 10000 add/delete cycles, bound %d", peak, bound)
	}
	if got := state(openMem(t, fs)); got != "" {
		t.Errorf("reopened after churn: %q, want empty", got)
	}
}
