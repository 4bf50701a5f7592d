package tilestore

// Live (append-mode) videos. A live video's catalog record grows one SOT
// at a time: AppendSOT writes the new version directory with the same
// staging/fsync discipline as CreateVideo, then flips the manifest — the
// store's one atomic commit point — so a crash mid-append leaves the
// previously committed prefix intact and the recovery sweep (plus GC's
// orphan collection) reclaims the half-written directory. Retention
// trims expired SOTs through the same retire/tombstone machinery
// re-tiles use, so a subscriber holding a lease on an aged-out SOT
// keeps its files until the lease drops.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// RetentionPolicy bounds how much of a live video is kept. Zero fields
// are unlimited; when both are set, either bound can expire a SOT. The
// newest SOT is never trimmed, so a live video always retains its most
// recent commit.
type RetentionPolicy struct {
	// MaxAgeFrames expires SOTs whose last frame is more than this many
	// frames behind the append head (frames are the store's clock; at
	// FPS f this is age·f for a wall-clock age).
	MaxAgeFrames int `json:"max_age_frames,omitempty"`
	// MaxBytes expires oldest-first SOTs while the video's live tile
	// bytes exceed this bound.
	MaxBytes int64 `json:"max_bytes,omitempty"`
}

// validate rejects negative bounds (nil, no policy, is valid).
func (p *RetentionPolicy) validate() error {
	if p != nil && (p.MaxAgeFrames < 0 || p.MaxBytes < 0) {
		return fmt.Errorf("tilestore: %w: negative retention bounds", tasmerr.ErrInvalidRange)
	}
	return nil
}

// CreateLiveVideo registers an empty append-mode video. The geometry
// (even, positive dimensions; positive fps and GOP length) is fixed at
// creation, since every appended frame must match it.
func (s *Store) CreateLiveVideo(meta VideoMeta) error {
	if err := validName(meta.Name); err != nil {
		return err
	}
	if meta.W <= 0 || meta.H <= 0 || meta.W%2 != 0 || meta.H%2 != 0 {
		return fmt.Errorf("tilestore: %w: live video dimensions %dx%d", tasmerr.ErrInvalidName, meta.W, meta.H)
	}
	if meta.FPS <= 0 || meta.GOPLength <= 0 {
		return fmt.Errorf("tilestore: %w: live video needs positive fps and GOP length", tasmerr.ErrInvalidName)
	}
	if err := meta.Retention.validate(); err != nil {
		return err
	}
	meta.Live = true
	meta.Sealed = false
	meta.FrameCount = 0
	meta.SOTs = nil
	meta.NextSOT = 0
	meta.TrimmedTo = 0
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.videoDir(meta.Name)
	if _, err := s.fs.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return fmt.Errorf("tilestore: %w: %q", tasmerr.ErrVideoExists, meta.Name)
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := s.writeManifest(meta); err != nil {
		s.fs.RemoveAll(dir)
		return err
	}
	// Commit point: the video directory entry itself becomes durable.
	return s.fs.SyncDir(s.root)
}

// AppendSOT appends one committed SOT to a live video: the tiles (one
// GOP's worth, matching l) are written with full commit discipline,
// then the manifest flip publishes them. Returns the committed SOT's
// catalog record. Appending to a sealed or batch video fails with
// tasmerr.ErrVideoSealed.
func (s *Store) AppendSOT(video string, l layout.Layout, tiles []*container.Video) (SOTMeta, error) {
	if len(tiles) == 0 {
		return SOTMeta{}, fmt.Errorf("tilestore: %w: append with no tiles", tasmerr.ErrNoFrames)
	}
	n := tiles[0].FrameCount()
	if n <= 0 {
		return SOTMeta{}, fmt.Errorf("tilestore: %w: append with empty tiles", tasmerr.ErrNoFrames)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return SOTMeta{}, err
	}
	if !meta.Live {
		return SOTMeta{}, fmt.Errorf("tilestore: %w: cannot append to %q", tasmerr.ErrVideoSealed, video)
	}
	sot := SOTMeta{ID: meta.NextSOT, From: meta.FrameCount, To: meta.FrameCount + n, L: l}
	crcs, err := s.writeSOTDir(video, sot, tiles)
	if err != nil {
		// Leave no staging debris for a retried append to trip over; the
		// version directory name will be reused by the retry.
		s.fs.RemoveAll(s.sotDir(video, sot))
		return SOTMeta{}, err
	}
	sot.TileCRCs = crcs
	meta.SOTs = append(meta.SOTs, sot)
	meta.FrameCount = sot.To
	meta.NextSOT = sot.ID + 1
	if err := s.writeManifest(meta); err != nil {
		return SOTMeta{}, err
	}
	return sot, nil
}

// SealVideo converts a live video into a normal batch one: appends are
// refused from the commit onward, reads are unchanged. Sealing is
// idempotent-hostile on purpose — sealing a video that is not live
// reports tasmerr.ErrVideoSealed so automation notices double seals.
func (s *Store) SealVideo(video string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return err
	}
	if !meta.Live {
		return fmt.Errorf("tilestore: %w: %q is not live", tasmerr.ErrVideoSealed, video)
	}
	meta.Live = false
	meta.Sealed = true
	return s.writeManifest(meta)
}

// SetRetention installs (or, with nil, clears) a live video's retention
// policy. Only live videos carry retention; a sealed or batch video is
// a finished artifact.
func (s *Store) SetRetention(video string, pol *RetentionPolicy) error {
	if err := pol.validate(); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return err
	}
	if !meta.Live {
		return fmt.Errorf("tilestore: %w: retention on %q, which is not live", tasmerr.ErrVideoSealed, video)
	}
	meta.Retention = pol
	return s.writeManifest(meta)
}

// TrimReport describes one retention pass.
type TrimReport struct {
	// Removed lists the trimmed SOT ids, oldest first.
	Removed []int `json:"removed,omitempty"`
	// TrimmedTo is the first frame still stored after the pass.
	TrimmedTo int `json:"trimmed_to"`
	// FreedBytes is the live tile bytes the trimmed SOTs held. Leased
	// SOTs are tombstoned, not removed, so the bytes free when the
	// last lease drops.
	FreedBytes int64 `json:"freed_bytes"`
}

// TrimExpired applies a live video's retention policy: leading SOTs
// expired by age or total-bytes pressure are dropped from the catalog
// (the manifest flip is the commit) and their version directories
// retired through the same lease-aware machinery a re-tile uses —
// removed now if unleased, tombstoned until the last lease drops
// otherwise. A video with no policy (or nothing expired) is a no-op.
func (s *Store) TrimExpired(video string) (TrimReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return TrimReport{}, err
	}
	rep := TrimReport{TrimmedTo: meta.TrimmedTo}
	pol := meta.Retention
	if !meta.Live || pol == nil || len(meta.SOTs) == 0 {
		return rep, nil
	}
	// Size SOTs only as the policy needs: a bytes bound needs every
	// SOT's size up front; an age-only policy sizes just its victims, for
	// the report's freed bytes. Sizing stats every tile under the
	// exclusive catalog lock that snapshots wait on.
	sizes := make([]int64, len(meta.SOTs))
	sizeUpTo := func(n int) error {
		for i := range n {
			if sizes[i], err = s.sotBytesLocked(video, meta.SOTs[i]); err != nil {
				return err
			}
		}
		return nil
	}
	var total int64
	if pol.MaxBytes > 0 {
		if err := sizeUpTo(len(meta.SOTs)); err != nil {
			return rep, err
		}
		for _, n := range sizes {
			total += n
		}
	}
	cut := 0
	// The newest SOT is never trimmed (cut < len-1): a live video always
	// retains its most recent commit.
	for cut < len(meta.SOTs)-1 {
		sot := meta.SOTs[cut]
		expired := false
		if pol.MaxAgeFrames > 0 && sot.To <= meta.FrameCount-pol.MaxAgeFrames {
			expired = true
		}
		if pol.MaxBytes > 0 && total > pol.MaxBytes {
			expired = true
		}
		if !expired {
			break
		}
		total -= sizes[cut]
		cut++
	}
	if cut == 0 {
		return rep, nil
	}
	if pol.MaxBytes <= 0 {
		if err := sizeUpTo(cut); err != nil {
			return rep, err
		}
	}
	trimmed := meta.SOTs[:cut]
	// Resolve the victims' directories before the manifest forgets them.
	dirs := make([]string, cut)
	for i, sot := range trimmed {
		if dirs[i], err = s.resolveSOTDir(video, sot); err != nil {
			return rep, err
		}
	}
	meta.SOTs = append([]SOTMeta(nil), meta.SOTs[cut:]...)
	meta.TrimmedTo = meta.SOTs[0].From
	if err := s.writeManifest(meta); err != nil {
		return rep, err
	}
	for i, sot := range trimmed {
		rep.Removed = append(rep.Removed, sot.ID)
		rep.FreedBytes += sizes[i]
		s.retireLocked(video, sot, dirs[i])
	}
	rep.TrimmedTo = meta.TrimmedTo
	return rep, nil
}

// sotBytesLocked sums one SOT version's tile file sizes; the caller
// holds mu.
func (s *Store) sotBytesLocked(video string, sot SOTMeta) (int64, error) {
	dir, err := s.resolveSOTDir(video, sot)
	if err != nil {
		return 0, err
	}
	var total int64
	for i := 0; i < sot.L.NumTiles(); i++ {
		st, err := s.fs.Stat(filepath.Join(dir, tileFileName(i)))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue
			}
			return 0, err
		}
		total += st.Size()
	}
	return total, nil
}
