package tilestore

import (
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
)

// RepairReport describes what one Repair pass changed.
type RepairReport struct {
	// Quarantined lists version directories whose tiles failed
	// integrity verification, moved into .trash (GC reclaims them once
	// nothing pins them).
	Quarantined []string `json:"quarantined"`
	// Reverted lists SOTs whose catalog record was flipped back to an
	// earlier intact version, as "video SOT <id> -> <dir>".
	Reverted []string `json:"reverted"`
	// Videos lists the videos Repair modified; callers above this
	// layer invalidate caches and refresh pointers for them.
	Videos []string `json:"videos"`
}

// Repair validates the live version of every SOT against its sealed
// checksums and, for each corrupt or missing version, quarantines the
// damaged directory into .trash and falls back to the newest earlier
// version that still verifies — using the tiles.json sidecar each
// version directory carries to recover its layout and checksums. SOTs
// with no intact fallback stay referenced by the manifest (and keep
// failing FSCK) so the data loss stays visible instead of being
// silently erased. Repair runs under the store's write lock.
func (s *Store) Repair() (RepairReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep RepairReport
	entries, err := s.fs.ReadDir(s.root)
	if err != nil {
		return rep, err
	}
	for _, e := range entries {
		if !e.IsDir() || e.Name() == trashDirName {
			continue
		}
		name := e.Name()
		meta, err := s.metaFromDisk(name)
		if err != nil {
			// No catalog record to repair against; an unreadable
			// manifest is FSCK's problem report, not tile repair's.
			continue
		}
		changed, touched := false, false
		for i, sot := range meta.SOTs {
			dir, dirErr := s.resolveSOTDir(name, sot)
			if dirErr == nil && s.validateVersion(sot, dir) == nil {
				continue
			}
			touched = true
			altDir, altSOT, ok := s.findFallback(name, sot)
			if dirErr == nil {
				q, err := s.quarantineLocked(name, sot, dir)
				if err != nil {
					return rep, err
				}
				rep.Quarantined = append(rep.Quarantined, q)
			}
			if ok {
				meta.SOTs[i] = altSOT
				changed = true
				rep.Reverted = append(rep.Reverted, fmt.Sprintf("%s SOT %d -> %s", name, sot.ID, filepath.Base(altDir)))
				// A still-held lease on the adopted version was marked
				// dead when it was superseded; it is live again, and
				// releasing the lease must not reap it.
				s.leaseMu.Lock()
				k := leaseKey{video: name, epoch: s.epochs[name], sot: altSOT.ID, retiles: altSOT.Retiles}
				if le := s.leases[k]; le != nil {
					le.dead = false
					le.dir = altDir
				}
				s.leaseMu.Unlock()
			}
		}
		if changed {
			if err := s.writeManifest(meta); err != nil {
				return rep, err
			}
		}
		if touched {
			rep.Videos = append(rep.Videos, name)
			// The video's version lineage just forked (a quarantined
			// version's number may be written again by a future
			// re-tile). Bumping the delete epoch retires every
			// outstanding lease key, exactly as DeleteVideo does, so
			// stale snapshots cannot commit against the repaired
			// catalog or collide in the lease table.
			s.leaseMu.Lock()
			s.epochs[name]++
			s.leaseMu.Unlock()
		}
	}
	sort.Strings(rep.Quarantined)
	sort.Strings(rep.Reverted)
	sort.Strings(rep.Videos)
	return rep, nil
}

// validateVersion checks every tile of a version directory against the
// catalog record: present, checksum-intact, parseable, and matching
// the layout's frame count and tile dimensions.
func (s *Store) validateVersion(sot SOTMeta, dir string) error {
	for i := 0; i < sot.L.NumTiles(); i++ {
		tv, err := s.loadTile(dir, sot, i)
		if err != nil {
			return err
		}
		if tv.FrameCount() != sot.NumFrames() {
			return fmt.Errorf("tilestore: %s: tile %d has %d frames, want %d", dir, i, tv.FrameCount(), sot.NumFrames())
		}
		if r := sot.L.TileRectByIndex(i); tv.W != r.Width() || tv.H != r.Height() {
			return fmt.Errorf("tilestore: %s: tile %d is %dx%d, layout says %dx%d", dir, i, tv.W, tv.H, r.Width(), r.Height())
		}
	}
	return nil
}

// findFallback scans the video directory for other committed versions
// of the same frame range, validates each against its own sidecar, and
// returns the newest intact one as a catalog record ready to adopt.
func (s *Store) findFallback(video string, sot SOTMeta) (string, SOTMeta, bool) {
	ents, err := s.fs.ReadDir(s.videoDir(video))
	if err != nil {
		return "", SOTMeta{}, false
	}
	best := -1
	var bestDir string
	var bestSOT SOTMeta
	for _, e := range ents {
		if !e.IsDir() {
			continue
		}
		m := sotDirPattern.FindStringSubmatch(e.Name())
		if m == nil || m[5] != "" { // not a version dir, or .staging
			continue
		}
		from, _ := strconv.Atoi(m[1])
		toIncl, _ := strconv.Atoi(m[2])
		if from != sot.From || toIncl != sot.To-1 {
			continue
		}
		ver := 0
		if m[4] != "" {
			ver, _ = strconv.Atoi(m[4])
		}
		if ver == sot.Retiles || ver <= best {
			continue
		}
		dir := filepath.Join(s.videoDir(video), e.Name())
		side, err := s.readSidecar(dir)
		if err != nil || side.From != sot.From || side.To != sot.To {
			continue
		}
		cand := SOTMeta{ID: sot.ID, From: sot.From, To: sot.To, L: side.L, Retiles: ver, TileCRCs: side.TileCRCs}
		if s.validateVersion(cand, dir) != nil {
			continue
		}
		best, bestDir, bestSOT = ver, dir, cand
	}
	return bestDir, bestSOT, best >= 0
}

// quarantineLocked moves a corrupt version directory into the
// tombstone area and dooms any live lease on it, mirroring
// DeleteVideo's tombstoning so in-flight readers fail with the
// corruption error rather than a vanished directory.
func (s *Store) quarantineLocked(video string, sot SOTMeta, dir string) (string, error) {
	trash := filepath.Join(s.root, trashDirName, fmt.Sprintf("%s.e%d", video, s.epochs[video]))
	if err := s.fs.MkdirAll(trash, 0o755); err != nil {
		return "", err
	}
	dst := filepath.Join(trash, filepath.Base(dir))
	for i := 1; ; i++ {
		if _, err := s.fs.Stat(dst); err != nil {
			break
		}
		dst = filepath.Join(trash, fmt.Sprintf("%s.q%d", filepath.Base(dir), i))
	}
	if err := s.fs.Rename(dir, dst); err != nil {
		return "", err
	}
	for _, p := range []string{trash, filepath.Dir(trash), s.root, filepath.Dir(dir)} {
		if err := s.fs.SyncDir(p); err != nil {
			return dst, err
		}
	}
	s.leaseMu.Lock()
	k := leaseKey{video: video, epoch: s.epochs[video], sot: sot.ID, retiles: sot.Retiles}
	if e := s.leases[k]; e != nil {
		e.dir = dst
		e.dead = true
	}
	s.leaseMu.Unlock()
	return dst, nil
}
