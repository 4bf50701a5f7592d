package tilestore

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/layout"
)

// decodeAll decodes every frame of a tile for byte comparisons.
func decodeAll(t *testing.T, tv *container.Video) []byte {
	t.Helper()
	frames, _, err := tv.DecodeRange(0, tv.FrameCount())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, f := range frames {
		buf.Write(f.Y)
		buf.Write(f.Cb)
		buf.Write(f.Cr)
	}
	return buf.Bytes()
}

// TestLeaseDefersGC pins a SOT version with a snapshot lease, re-tiles it,
// and asserts the old version's files survive — and serve the old bytes —
// until the lease is released, at which point they are reaped.
func TestLeaseDefersGC(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	w, h := meta.W, meta.H
	oldSOT := meta.SOTs[0]
	oldDir := filepath.Join(s.Root(), "v", "frames_0-9")

	snapMeta, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	if len(snapMeta.SOTs) != 2 {
		t.Fatalf("snapshot has %d SOTs", len(snapMeta.SOTs))
	}
	before, err := s.ReadTile("v", oldSOT, 0)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := decodeAll(t, before)

	l22, _ := layout.Uniform(2, 2, cons(w, h))
	newTiles, err := container.EncodeTiled(makeFrames(w, h, 10, 5), l22, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSOT("v", 0, l22, newTiles); err != nil {
		t.Fatal(err)
	}

	// Old version still on disk and byte-identical while the lease holds.
	if _, err := os.Stat(oldDir); err != nil {
		t.Fatalf("leased version dir reaped early: %v", err)
	}
	still, err := s.ReadTile("v", oldSOT, 0)
	if err != nil {
		t.Fatalf("leased version unreadable after retile: %v", err)
	}
	if !bytes.Equal(decodeAll(t, still), refBytes) {
		t.Fatal("leased version's bytes changed under the reader")
	}

	lease.Release()
	lease.Release() // idempotent
	if _, err := os.Stat(oldDir); !os.IsNotExist(err) {
		t.Fatalf("dead version dir not reaped after release: %v", err)
	}
	// Live version unaffected.
	got, _ := s.Meta("v")
	if got.SOTs[0].Retiles != 1 {
		t.Fatalf("Retiles = %d", got.SOTs[0].Retiles)
	}
	if _, err := s.ReadTile("v", got.SOTs[0], 3); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteVideoWithLease deletes a video while a snapshot lease pins
// its files, re-creates it under the same name with DIFFERENT pixels, and
// asserts (a) the leased reader keeps getting the deleted generation's
// exact bytes — DeleteVideo tombstones its dirs so the re-ingest cannot
// clobber them — and (b) the release reaps only the tombstones, never the
// re-created video's files.
func TestDeleteVideoWithLease(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	w, h := meta.W, meta.H
	snapMeta, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	before, err := lease.ReadTile(snapMeta.SOTs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	refBytes := decodeAll(t, before)

	if err := s.DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	if videos, _ := s.ListVideos(); len(videos) != 0 {
		t.Fatalf("deleted video still listed: %v", videos)
	}
	// Leased files still readable through the lease (tombstoned).
	if _, err := lease.ReadTile(snapMeta.SOTs[0], 0); err != nil {
		t.Fatalf("leased read after delete: %v", err)
	}

	// Re-create under the same name — same dir names, different pixels.
	meta2 := VideoMeta{
		Name: "v", W: w, H: h, FPS: 10, GOPLength: 10, FrameCount: 10,
		SOTs: []SOTMeta{{ID: 0, From: 0, To: 10, L: layout.Single(w, h)}},
	}
	newTiles, err := container.EncodeTiled(makeFrames(w, h, 10, 60), meta2.SOTs[0].L, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.CreateVideo(meta2, [][]*container.Video{newTiles}); err != nil {
		t.Fatal(err)
	}

	// The leased reader still sees the deleted generation's bytes, not
	// the re-ingested video's.
	still, err := lease.ReadTile(snapMeta.SOTs[0], 0)
	if err != nil {
		t.Fatalf("leased read after re-create: %v", err)
	}
	if !bytes.Equal(decodeAll(t, still), refBytes) {
		t.Fatal("leased reader served the re-ingested video's bytes")
	}
	newMeta, err := s.Meta("v")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := s.ReadTile("v", newMeta.SOTs[0], 0)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(decodeAll(t, fresh), refBytes) {
		t.Fatal("re-created video serves the deleted video's bytes")
	}

	lease.Release()
	// Tombstones reaped; the re-created video survives intact.
	if _, err := os.Stat(filepath.Join(s.Root(), trashDirName)); !os.IsNotExist(err) {
		t.Fatalf("trash not reaped after release: %v", err)
	}
	if _, err := s.ReadTile("v", newMeta.SOTs[0], 0); err != nil {
		t.Fatalf("re-created video reaped by stale lease release: %v", err)
	}
}

// TestReplaceSOTLeasedConflict asserts the lease-validated commit refuses
// to install tiles whose source snapshot was deleted (and re-ingested)
// mid-operation — the RetileSOT ↔ DeleteVideo race.
func TestReplaceSOTLeasedConflict(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	w, h := meta.W, meta.H
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if err := s.DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	buildVideo(t, s, "v") // same name, new epoch
	l22, _ := layout.Uniform(2, 2, cons(w, h))
	tiles, _ := container.EncodeTiled(makeFrames(w, h, 10, 0), l22, 10, params())
	if err := s.ReplaceSOTLeased(lease, "v", 0, l22, tiles); err == nil {
		t.Fatal("stale-snapshot replace committed onto the re-ingested video")
	}
	// The re-ingested video is untouched.
	got, err := s.Meta("v")
	if err != nil {
		t.Fatal(err)
	}
	if got.SOTs[0].Retiles != 0 || !got.SOTs[0].L.IsSingle() {
		t.Fatalf("re-ingested video mutated: %+v", got.SOTs[0])
	}
	// A lease on the current epoch commits fine.
	_, cur, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	defer cur.Release()
	if err := s.ReplaceSOTLeased(cur, "v", 0, l22, tiles); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteVideoReapsAfterRelease asserts a delete with no re-creation
// leaves nothing behind once the lease drops.
func TestDeleteVideoReapsAfterRelease(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	lease.Release()
	if _, err := os.Stat(filepath.Join(s.Root(), "v")); !os.IsNotExist(err) {
		t.Fatalf("video dir survives delete + release: %v", err)
	}
}

// TestCreateVideoCleanupOnFailure is the regression test for partial
// ingest failure: a failed CreateVideo must leave no orphan SOT dirs or
// .staging debris, and a retried ingest must succeed.
func TestCreateVideoCleanupOnFailure(t *testing.T) {
	s, _ := Open(t.TempDir())
	w, h := 128, 96
	l11 := layout.Single(w, h)
	meta := VideoMeta{
		Name: "v", W: w, H: h, FPS: 10, GOPLength: 10, FrameCount: 20,
		SOTs: []SOTMeta{
			{ID: 0, From: 0, To: 10, L: l11},
			{ID: 1, From: 10, To: 20, L: l11},
		},
	}
	good, err := container.EncodeTiled(makeFrames(w, h, 10, 0), l11, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	short, err := container.EncodeTiled(makeFrames(w, h, 5, 0), l11, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	// SOT 0 writes fine, SOT 1 fails on frame-count mismatch.
	if err := s.CreateVideo(meta, [][]*container.Video{good, short}); err == nil {
		t.Fatal("partial create succeeded")
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "v")); !os.IsNotExist(err) {
		t.Fatalf("failed create left the video dir behind: %v", err)
	}
	// Retried ingest starts fresh.
	good2, _ := container.EncodeTiled(makeFrames(w, h, 10, 30), l11, 10, params())
	if err := s.CreateVideo(meta, [][]*container.Video{good, good2}); err != nil {
		t.Fatalf("retried create failed: %v", err)
	}
	if rep, err := s.FSCK(); err != nil || !rep.OK() || len(rep.Orphans) != 0 {
		t.Fatalf("store not clean after retry: %+v, %v", rep, err)
	}
}

// TestGCReclaimsDebris seeds a store with staging debris, a stray version
// dir, a manifest temp file, and an orphan video dir, then asserts GC
// removes exactly those and FSCK comes back clean.
func TestGCReclaimsDebris(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	vdir := filepath.Join(s.Root(), "v")
	for _, d := range []string{"frames_0-9.staging", "frames_90-99.r3"} {
		if err := os.MkdirAll(filepath.Join(vdir, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(vdir, "manifest.json.tmp"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(s.Root(), "crashed-ingest")
	if err := os.MkdirAll(filepath.Join(orphan, "frames_0-9"), 0o755); err != nil {
		t.Fatal(err)
	}

	if rep, err := s.FSCK(); err != nil || len(rep.Orphans) == 0 {
		t.Fatalf("fsck did not flag debris: %+v, %v", rep, err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 5 { // 3 debris entries + orphan contents + orphan dir
		t.Fatalf("GC removed %d paths: %v", len(rep.Removed), rep.Removed)
	}
	if len(rep.Deferred) != 0 {
		t.Fatalf("GC deferred %v with no leases held", rep.Deferred)
	}
	after, err := s.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK() || len(after.Orphans) != 0 {
		t.Fatalf("store not clean after GC: %+v", after)
	}
	if after.Videos != 1 || after.SOTs != 2 || after.Tiles != 5 {
		t.Fatalf("fsck inventory: %+v", after)
	}
	// The live video is untouched.
	meta, _ := s.Meta("v")
	if _, err := s.ReadTile("v", meta.SOTs[1], 3); err != nil {
		t.Fatal(err)
	}
}

// TestGCLeavesUnknownAndCorrupt asserts GC never erases what it does not
// recognize: files the store did not write, and videos whose manifest is
// present but unreadable. Both are fsck problems for the operator.
func TestGCLeavesUnknownAndCorrupt(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	notes := filepath.Join(s.Root(), "v", "notes.txt")
	if err := os.WriteFile(notes, []byte("operator notes"), 0o644); err != nil {
		t.Fatal(err)
	}
	buildVideo(t, s, "c")
	if err := os.WriteFile(filepath.Join(s.Root(), "c", "manifest.json"), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 0 || len(rep.Deferred) != 0 {
		t.Fatalf("GC touched protected content: %+v", rep)
	}
	if _, err := os.Stat(notes); err != nil {
		t.Fatalf("unknown file removed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.Root(), "c", "frames_0-9", "tile0.tsv")); err != nil {
		t.Fatalf("corrupt-manifest video's tiles removed: %v", err)
	}
	fr, err := s.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if len(fr.Problems) != 2 {
		t.Fatalf("fsck should flag the unknown file and the corrupt manifest: %v", fr.Problems)
	}
}

// TestGCDefersLeasedVersions asserts GC leaves a leased dead version in
// place and reports it as deferred.
func TestGCDefersLeasedVersions(t *testing.T) {
	s, _ := Open(t.TempDir())
	meta := buildVideo(t, s, "v")
	w, h := meta.W, meta.H
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	l22, _ := layout.Uniform(2, 2, cons(w, h))
	tiles, _ := container.EncodeTiled(makeFrames(w, h, 10, 0), l22, 10, params())
	if err := s.ReplaceSOT("v", 0, l22, tiles); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Deferred) != 1 || !strings.HasSuffix(rep.Deferred[0], "frames_0-9") {
		t.Fatalf("Deferred = %v", rep.Deferred)
	}
	if len(rep.Removed) != 0 {
		t.Fatalf("GC removed %v", rep.Removed)
	}
	lease.Release()
	if _, err := os.Stat(filepath.Join(s.Root(), "v", "frames_0-9")); !os.IsNotExist(err) {
		t.Fatal("deferred dir not reaped on release")
	}
}

// TestGCMatchesLeasesByPath: a lease on a deleted generation's
// tombstone .trash/v.e0/frames_0-9 must not shelter a crash-left
// v/frames_0-9 of the re-created v — GC reclaims it, and defers only the
// leased tombstones.
func TestGCMatchesLeasesByPath(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	if err := s.DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	meta := buildVideo(t, s, "v")
	// Re-tile SOT 0 so frames_0-9 is no live name of the new v, then
	// leave a crash-left directory under that name.
	l11 := layout.Single(meta.W, meta.H)
	tiles, err := container.EncodeTiled(makeFrames(meta.W, meta.H, 10, 0), l11, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSOT("v", 0, l11, tiles); err != nil {
		t.Fatal(err)
	}
	debris := filepath.Join(s.Root(), "v", "frames_0-9")
	if err := os.MkdirAll(debris, 0o755); err != nil {
		t.Fatal(err)
	}
	rep, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(rep.Removed, debris) || slices.Contains(rep.Deferred, debris) {
		t.Fatalf("crash-left %s not reclaimed: %+v", debris, rep)
	}
	if _, err := os.Stat(debris); !os.IsNotExist(err) {
		t.Fatalf("crash-left dir survives GC: %v", err)
	}
	for _, p := range rep.Deferred {
		if !strings.Contains(p, trashDirName) {
			t.Fatalf("GC deferred %s, which no lease pins", p)
		}
	}
	if len(rep.Deferred) != 2 {
		t.Fatalf("Deferred = %v, want the two leased tombstones", rep.Deferred)
	}
}

// TestFSCKOrphansAreWhatGCReclaims seeds a store with every kind of
// debris and asserts FSCK's orphans are exactly what GC then removes or
// defers: a manifest-less directory holding a foreign entry is not an
// orphan (GC keeps it), only its recognised entries are. After the GC
// the orphans left are the deferred ones, and after the last lease drops
// there are none.
func TestFSCKOrphansAreWhatGCReclaims(t *testing.T) {
	s, _ := Open(t.TempDir())
	root := s.Root()
	meta := buildVideo(t, s, "v")
	buildVideo(t, s, "w")
	_, lease, err := s.Snapshot("v")
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()
	_, wlease, err := s.Snapshot("w")
	if err != nil {
		t.Fatal(err)
	}
	defer wlease.Release()
	// A leased dead version in v and leased tombstones of a deleted w.
	l11 := layout.Single(meta.W, meta.H)
	tiles, err := container.EncodeTiled(makeFrames(meta.W, meta.H, 10, 0), l11, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReplaceSOT("v", 1, l11, tiles); err != nil {
		t.Fatal(err)
	}
	if err := s.DeleteVideo("w"); err != nil {
		t.Fatal(err)
	}
	for _, d := range []string{
		"v/frames_0-9.staging", "v/frames_90-99.r3", // staging debris, stray version
		"crashed/frames_0-9",     // manifest-less video dir
		"empty",                  // empty manifest-less dir
		"foreignonly/frames_0-9", // manifest-less, beside a foreign file
		filepath.Join(trashDirName, "gone.e0", "frames_0-9"), // unpinned tombstone
	} {
		if err := os.MkdirAll(filepath.Join(root, d), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []string{"v/manifest.json.tmp", "v/notes.txt", "foreignonly/README"} {
		if err := os.WriteFile(filepath.Join(root, f), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	before, err := s.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if slices.Contains(before.Orphans, filepath.Join(root, "foreignonly")) {
		t.Fatalf("a directory holding a foreign entry is reported as an orphan: %v", before.Orphans)
	}
	if len(before.Problems) != 2 { // v/notes.txt, foreignonly/README
		t.Fatalf("Problems = %v", before.Problems)
	}
	gc, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range before.Orphans {
		if !slices.Contains(gc.Removed, p) && !slices.Contains(gc.Deferred, p) {
			t.Fatalf("fsck orphan %s neither removed nor deferred by GC %+v", p, gc)
		}
	}
	if !slices.Contains(gc.Deferred, filepath.Join(root, "v", "frames_10-19")) {
		t.Fatalf("leased dead version not deferred: %v", gc.Deferred)
	}
	after, err := s.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range after.Orphans {
		if !slices.Contains(gc.Deferred, p) {
			t.Fatalf("orphan %s survives GC without a lease", p)
		}
	}
	lease.Release()
	wlease.Release()
	if after, err = s.FSCK(); err != nil || len(after.Orphans) != 0 || len(after.Problems) != 2 {
		t.Fatalf("after GC and release: %+v, %v", after, err)
	}
}

// TestFSCKReportsProblems asserts fsck flags a missing tile file and a
// missing version directory.
func TestFSCKReportsProblems(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "v")
	if err := os.Remove(filepath.Join(s.Root(), "v", "frames_10-19", "tile2.tsv")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.FSCK()
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() || len(rep.Problems) != 1 || !strings.Contains(rep.Problems[0], "tile2.tsv") {
		t.Fatalf("Problems = %v", rep.Problems)
	}
	if err := os.RemoveAll(filepath.Join(s.Root(), "v", "frames_0-9")); err != nil {
		t.Fatal(err)
	}
	rep, _ = s.FSCK()
	if len(rep.Problems) != 2 {
		t.Fatalf("Problems = %v", rep.Problems)
	}
}
