package tilestore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/fsio"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// liveStore opens a store with an empty live video of the standard test
// geometry (128x96 @10fps, GOP 10) and returns both.
func liveStore(t *testing.T, pol *RetentionPolicy) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	meta := VideoMeta{Name: "cam", W: 128, H: 96, FPS: 10, GOPLength: 10, Retention: pol}
	if err := s.CreateLiveVideo(meta); err != nil {
		t.Fatal(err)
	}
	return s
}

// appendGOP appends one 10-frame untiled SOT (the shape core's append
// path commits) and returns its catalog record.
func appendGOP(t *testing.T, s *Store, video string, shift int) SOTMeta {
	t.Helper()
	l := layout.Single(128, 96)
	tiles, err := container.EncodeTiled(makeFrames(128, 96, 10, shift), l, 10, params())
	if err != nil {
		t.Fatal(err)
	}
	sot, err := s.AppendSOT(video, l, tiles)
	if err != nil {
		t.Fatal(err)
	}
	return sot
}

func TestCreateLiveVideoAndAppend(t *testing.T) {
	s := liveStore(t, nil)
	meta, err := s.Meta("cam")
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Live || meta.Sealed || meta.FrameCount != 0 || len(meta.SOTs) != 0 {
		t.Fatalf("fresh live meta = %+v", meta)
	}

	// Appends grow the catalog one SOT at a time with contiguous frame
	// ranges and sequential ids.
	for i := 0; i < 3; i++ {
		sot := appendGOP(t, s, "cam", 30*i)
		if sot.ID != i || sot.From != 10*i || sot.To != 10*(i+1) {
			t.Fatalf("append %d = %+v", i, sot)
		}
	}
	meta, _ = s.Meta("cam")
	if meta.FrameCount != 30 || len(meta.SOTs) != 3 || meta.NextSOT != 3 {
		t.Fatalf("meta after 3 appends = %+v", meta)
	}
	// Committed tiles read back like any batch video's.
	if _, err := s.ReadTile("cam", meta.SOTs[2], 0); err != nil {
		t.Fatalf("ReadTile on appended SOT: %v", err)
	}
}

func TestCreateLiveVideoValidation(t *testing.T) {
	s, _ := Open(t.TempDir())
	bad := []VideoMeta{
		{Name: "v", W: 0, H: 96, FPS: 10, GOPLength: 10},
		{Name: "v", W: 127, H: 96, FPS: 10, GOPLength: 10}, // odd width
		{Name: "v", W: 128, H: 96, FPS: 0, GOPLength: 10},
		{Name: "v", W: 128, H: 96, FPS: 10, GOPLength: 0},
		{Name: "../evil", W: 128, H: 96, FPS: 10, GOPLength: 10},
	}
	for _, m := range bad {
		if err := s.CreateLiveVideo(m); err == nil {
			t.Errorf("CreateLiveVideo(%+v) accepted", m)
		}
	}
	ok := VideoMeta{Name: "v", W: 128, H: 96, FPS: 10, GOPLength: 10}
	if err := s.CreateLiveVideo(ok); err != nil {
		t.Fatal(err)
	}
	if err := s.CreateLiveVideo(ok); !errors.Is(err, tasmerr.ErrVideoExists) {
		t.Errorf("duplicate live create = %v, want ErrVideoExists", err)
	}
}

func TestSealVideo(t *testing.T) {
	s := liveStore(t, nil)
	appendGOP(t, s, "cam", 0)
	if err := s.SealVideo("cam"); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("cam")
	if meta.Live || !meta.Sealed {
		t.Fatalf("sealed meta = %+v", meta)
	}
	// Appends after the seal are typed conflicts, as is a double seal.
	l := layout.Single(128, 96)
	tiles, _ := container.EncodeTiled(makeFrames(128, 96, 10, 0), l, 10, params())
	if _, err := s.AppendSOT("cam", l, tiles); !errors.Is(err, tasmerr.ErrVideoSealed) {
		t.Errorf("append after seal = %v, want ErrVideoSealed", err)
	}
	if err := s.SealVideo("cam"); !errors.Is(err, tasmerr.ErrVideoSealed) {
		t.Errorf("double seal = %v, want ErrVideoSealed", err)
	}
	// Sealed videos still read.
	if _, err := s.ReadTile("cam", meta.SOTs[0], 0); err != nil {
		t.Errorf("read after seal: %v", err)
	}
}

func TestAppendToBatchVideoFails(t *testing.T) {
	s, _ := Open(t.TempDir())
	buildVideo(t, s, "batch")
	l := layout.Single(128, 96)
	tiles, _ := container.EncodeTiled(makeFrames(128, 96, 10, 0), l, 10, params())
	if _, err := s.AppendSOT("batch", l, tiles); !errors.Is(err, tasmerr.ErrVideoSealed) {
		t.Errorf("append to batch video = %v, want ErrVideoSealed", err)
	}
}

func TestSetRetentionValidation(t *testing.T) {
	s := liveStore(t, nil)
	if err := s.SetRetention("cam", &RetentionPolicy{MaxAgeFrames: -1}); !errors.Is(err, tasmerr.ErrInvalidRange) {
		t.Errorf("negative age bound = %v, want ErrInvalidRange", err)
	}
	if err := s.SetRetention("cam", &RetentionPolicy{MaxAgeFrames: 20}); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRetention("cam", nil); err != nil {
		t.Fatalf("clearing retention: %v", err)
	}
	if err := s.SealVideo("cam"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRetention("cam", &RetentionPolicy{MaxAgeFrames: 20}); !errors.Is(err, tasmerr.ErrVideoSealed) {
		t.Errorf("retention on sealed video = %v, want ErrVideoSealed", err)
	}
}

func TestTrimExpiredByAge(t *testing.T) {
	s := liveStore(t, &RetentionPolicy{MaxAgeFrames: 15})
	for i := 0; i < 4; i++ {
		appendGOP(t, s, "cam", 30*i)
	}
	// Head is 40: SOTs ending at 10 and 20 are >= 15 frames behind it.
	rep, err := s.TrimExpired("cam")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 2 || rep.Removed[0] != 0 || rep.Removed[1] != 1 {
		t.Fatalf("Removed = %v, want [0 1]", rep.Removed)
	}
	if rep.TrimmedTo != 20 || rep.FreedBytes <= 0 {
		t.Fatalf("report = %+v", rep)
	}
	meta, _ := s.Meta("cam")
	if meta.TrimmedTo != 20 || len(meta.SOTs) != 2 || meta.SOTs[0].ID != 2 || meta.FrameCount != 40 {
		t.Fatalf("meta after trim = %+v", meta)
	}
	// Idempotent: nothing further expired.
	rep, err = s.TrimExpired("cam")
	if err != nil || len(rep.Removed) != 0 {
		t.Fatalf("second trim = %+v, %v", rep, err)
	}
}

// statCountingFS counts Stat calls on tile files.
type statCountingFS struct {
	fsio.FS
	tileStats atomic.Int64
}

func (c *statCountingFS) Stat(p string) (os.FileInfo, error) {
	if strings.HasPrefix(filepath.Base(p), "tile") {
		c.tileStats.Add(1)
	}
	return c.FS.Stat(p)
}

// TestTrimByAgeSizesOnlyVictims: an age-only policy stats just the tiles
// of the SOTs it trims — not every tile of every SOT, which it would do
// under the exclusive catalog lock after every live append — and still
// reports the bytes they held.
func TestTrimByAgeSizesOnlyVictims(t *testing.T) {
	fs := &statCountingFS{FS: fsio.OS{}}
	s, err := Open(t.TempDir(), WithFS(fs))
	if err != nil {
		t.Fatal(err)
	}
	const sots = 20
	if err := s.CreateLiveVideo(VideoMeta{Name: "cam", W: 128, H: 96, FPS: 10, GOPLength: 10,
		Retention: &RetentionPolicy{MaxAgeFrames: 10 * (sots - 2)}}); err != nil {
		t.Fatal(err)
	}
	for i := range sots {
		appendGOP(t, s, "cam", i)
	}
	before, err := s.VideoBytes("cam")
	if err != nil {
		t.Fatal(err)
	}
	fs.tileStats.Store(0)
	rep, err := s.TrimExpired("cam")
	if err != nil {
		t.Fatal(err)
	}
	if got := fs.tileStats.Load(); got != 2 { // two victims, one tile each
		t.Fatalf("age-only trim of 2 of %d SOTs stat'ed %d tile files, want 2", sots, got)
	}
	after, err := s.VideoBytes("cam")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 2 || rep.TrimmedTo != 20 || rep.FreedBytes != before-after || rep.FreedBytes <= 0 {
		t.Fatalf("report = %+v, want SOTs [0 1] freeing %d bytes", rep, before-after)
	}
}

func TestTrimExpiredByBytes(t *testing.T) {
	s := liveStore(t, nil)
	var sizes []int64
	var prev int64
	for i := 0; i < 3; i++ {
		appendGOP(t, s, "cam", 30*i)
		total, err := s.VideoBytes("cam")
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, total-prev)
		prev = total
	}
	// A bound below the total but above the newest two: exactly the
	// oldest SOT must go.
	if err := s.SetRetention("cam", &RetentionPolicy{MaxBytes: sizes[1] + sizes[2]}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.TrimExpired("cam")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != 0 {
		t.Fatalf("Removed = %v, want [0]", rep.Removed)
	}
	if rep.TrimmedTo != 10 {
		t.Fatalf("TrimmedTo = %d, want 10", rep.TrimmedTo)
	}
}

func TestTrimNeverRemovesNewestSOT(t *testing.T) {
	// Bounds tight enough to expire everything still keep the last SOT:
	// a live video always retains its most recent commit.
	s := liveStore(t, &RetentionPolicy{MaxAgeFrames: 1, MaxBytes: 1})
	for i := 0; i < 3; i++ {
		appendGOP(t, s, "cam", 30*i)
	}
	if _, err := s.TrimExpired("cam"); err != nil {
		t.Fatal(err)
	}
	meta, _ := s.Meta("cam")
	if len(meta.SOTs) != 1 || meta.SOTs[0].ID != 2 {
		t.Fatalf("SOTs after aggressive trim = %+v, want only id 2", meta.SOTs)
	}
}

func TestTrimLeasedSOTTombstones(t *testing.T) {
	s := liveStore(t, nil)
	first := appendGOP(t, s, "cam", 0)
	appendGOP(t, s, "cam", 30)
	_, lease, err := s.SnapshotRange("cam", first.From, first.To)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRetention("cam", &RetentionPolicy{MaxAgeFrames: 5}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.TrimExpired("cam")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Removed) != 1 || rep.Removed[0] != 0 {
		t.Fatalf("Removed = %v, want [0]", rep.Removed)
	}
	// The leased version survives on disk (tombstoned) until released.
	dir := s.sotDir("cam", first)
	if _, err := os.Stat(dir); err != nil {
		t.Fatalf("leased trimmed SOT dir gone before release: %v", err)
	}
	lease.Release()
	if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("trimmed SOT dir survives after lease release: %v", err)
	}
	// The catalog no longer serves it regardless of the tombstone.
	meta, _ := s.Meta("cam")
	if len(meta.SOTs) != 1 || meta.SOTs[0].ID != 1 {
		t.Fatalf("catalog after trim = %+v", meta.SOTs)
	}
}
