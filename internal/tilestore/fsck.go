package tilestore

import (
	"fmt"
	"path/filepath"
	"regexp"
	"sort"
)

// sotDirPattern matches version directories (frames_<a>-<b> or
// frames_<a>-<b>.r<N>) and their .staging working copies.
var sotDirPattern = regexp.MustCompile(`^frames_(\d+)-(\d+)(\.r(\d+))?(\.staging)?$`)

// isDebrisName reports whether a video-directory entry other than
// manifest.json is one this store writes: a version directory (live or
// dead), staging debris, or a manifest temp file. Anything else is
// foreign — GC leaves it alone and FSCK reports it as a problem.
func isDebrisName(base string) bool {
	return sotDirPattern.MatchString(base) || base == "manifest.json.tmp"
}

// leasedDirsLocked returns the full paths of the version directories
// read leases currently pin. Paths, not base names: a lease on a deleted
// generation's tombstone .trash/v.e0/frames_0-9 must not shelter a
// same-named directory of a re-created v.
func (s *Store) leasedDirsLocked() map[string]bool {
	leased := map[string]bool{}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, e := range s.leases {
		if e.refs > 0 {
			leased[e.dir] = true
		}
	}
	return leased
}

// GCReport describes what one GC pass reclaimed.
type GCReport struct {
	// Removed lists the paths deleted: dead version directories, staging
	// debris, stray manifest temp files, and orphan video directories left
	// by a crashed ingest.
	Removed []string `json:"removed"`
	// Deferred lists dead version directories still pinned by read leases;
	// they are reclaimed automatically when the last lease drops.
	Deferred []string `json:"deferred"`
}

// GC reclaims storage that no catalog record references: version
// directories superseded by a re-tile, .staging debris from interrupted
// writes, manifest temp files, and video directories with no manifest.
// Directories pinned by a read lease are left alone and reported as
// deferred. GC runs under the store's write lock, so it cannot race an
// in-flight ingest or re-tile.
func (s *Store) GC() (GCReport, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var rep GCReport
	videos, err := s.fs.ReadDir(s.root)
	if err != nil {
		return rep, err
	}
	leased := s.leasedDirsLocked()
	for _, v := range videos {
		if !v.IsDir() {
			continue
		}
		name := v.Name()
		if name == trashDirName {
			if err := s.gcTrashLocked(&rep, leased); err != nil {
				return rep, err
			}
			continue
		}
		vdir := filepath.Join(s.root, name)
		meta, metaErr := s.metaFromDisk(name)
		if metaErr != nil {
			// Whatever the parsed-manifest cache believes about this video,
			// the disk no longer backs it; drop the entry so reads report
			// the video's true state instead of a phantom catalog record.
			s.invalidateManifest(name)
			if _, err := s.fs.Stat(filepath.Join(vdir, "manifest.json")); err == nil {
				// Manifest present but unreadable: an integrity problem for
				// fsck and the operator, not debris for GC to erase.
				continue
			}
		}

		live := map[string]bool{}
		if metaErr == nil {
			for _, sot := range meta.SOTs {
				if dir, err := s.resolveSOTDir(name, sot); err == nil {
					live[filepath.Base(dir)] = true
				}
			}
		}
		entries, err := s.fs.ReadDir(vdir)
		if err != nil {
			return rep, err
		}
		removable := 0
		for _, ent := range entries {
			base := ent.Name()
			p := filepath.Join(vdir, base)
			switch {
			case base == "manifest.json" && metaErr == nil:
				continue
			case live[base]:
				continue
			case leased[p]:
				rep.Deferred = append(rep.Deferred, p)
				continue
			case !isDebrisName(base) && base != "manifest.json":
				// Not something this store wrote; fsck flags it, GC leaves
				// it alone.
				continue
			}
			if err := s.fs.RemoveAll(p); err != nil {
				return rep, err
			}
			rep.Removed = append(rep.Removed, p)
			removable++
		}
		// A video directory holding nothing live (no manifest survived and
		// nothing is leased) is itself debris from a crashed ingest.
		if metaErr != nil && removable == len(entries) {
			if err := s.fs.Remove(vdir); err == nil {
				rep.Removed = append(rep.Removed, vdir)
			}
		}
	}
	sort.Strings(rep.Removed)
	sort.Strings(rep.Deferred)
	return rep, nil
}

// gcTrashLocked reclaims tombstoned version directories of deleted videos
// (.trash/<video>.e<epoch>/frames_…) that no lease still pins — the
// normal case only after a crash, since releases reap their own
// tombstones.
func (s *Store) gcTrashLocked(rep *GCReport, leased map[string]bool) error {
	trash := filepath.Join(s.root, trashDirName)
	epochs, err := s.fs.ReadDir(trash)
	if err != nil {
		return err
	}
	for _, ep := range epochs {
		edir := filepath.Join(trash, ep.Name())
		entries, err := s.fs.ReadDir(edir)
		if err != nil {
			return err
		}
		kept := 0
		for _, ent := range entries {
			p := filepath.Join(edir, ent.Name())
			if leased[p] {
				rep.Deferred = append(rep.Deferred, p)
				kept++
				continue
			}
			if err := s.fs.RemoveAll(p); err != nil {
				return err
			}
			rep.Removed = append(rep.Removed, p)
		}
		if kept == 0 {
			if err := s.fs.Remove(edir); err == nil {
				rep.Removed = append(rep.Removed, edir)
			}
		}
	}
	s.fs.Remove(trash) // gone once empty
	return nil
}

// FsckReport summarizes a store consistency check.
type FsckReport struct {
	Videos int `json:"videos"`
	SOTs   int `json:"sots"`
	Tiles  int `json:"tiles"`
	// Leases is the number of distinct SOT versions currently pinned by
	// readers.
	Leases int `json:"leases"`
	// Problems are integrity violations: unreadable manifests, missing
	// version directories or tile files, and tiles whose frame count or
	// dimensions contradict the manifest's layout.
	Problems []string `json:"problems"`
	// Orphans are paths GC would reclaim (dead versions, staging debris,
	// manifest-less video directories holding nothing foreign); they are
	// not integrity violations. Leased ones GC defers until release.
	Orphans []string `json:"orphans"`
}

// OK reports whether the check found no integrity problems.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

// FSCK verifies every video's manifest against the bytes on disk: the
// live version directory of each SOT must exist and hold one decodable
// tile file per layout tile, with the frame count and dimensions the
// manifest promises. Unreferenced entries GC would reclaim are reported
// as orphans, classified exactly as GC classifies them; foreign entries
// are problems. FSCK only reads; it never repairs.
func (s *Store) FSCK() (FsckReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	s.leaseMu.Lock()
	rep := FsckReport{Leases: len(s.leases)}
	s.leaseMu.Unlock()
	problemf := func(format string, args ...any) {
		rep.Problems = append(rep.Problems, fmt.Sprintf(format, args...))
	}
	videos, err := s.fs.ReadDir(s.root)
	if err != nil {
		return rep, err
	}
	leased := s.leasedDirsLocked()
	for _, v := range videos {
		if !v.IsDir() {
			continue
		}
		name := v.Name()
		vdir := filepath.Join(s.root, name)
		if name == trashDirName {
			// .trash/<video>.e<epoch>/<version dir>: every unpinned
			// entry — tombstones and quarantined versions alike — is an
			// orphan for GC.
			if eps, err := s.fs.ReadDir(vdir); err == nil {
				for _, ep := range eps {
					if !ep.IsDir() {
						continue
					}
					edir := filepath.Join(vdir, ep.Name())
					ents, err := s.fs.ReadDir(edir)
					if err != nil {
						continue
					}
					for _, ent := range ents {
						if p := filepath.Join(edir, ent.Name()); ent.IsDir() && !leased[p] {
							rep.Orphans = append(rep.Orphans, p)
						}
					}
				}
			}
			continue
		}
		meta, metaErr := s.metaFromDisk(name)
		if metaErr != nil {
			if _, err := s.fs.Stat(filepath.Join(vdir, "manifest.json")); err == nil {
				problemf("video %s: %v", name, metaErr)
				continue
			}
			// No manifest: crash debris. GC reclaims the recognised
			// entries and then the directory itself, unless a foreign or
			// leased entry keeps it.
			if err := s.fsckEntries(&rep, name, nil, leased); err != nil {
				return rep, err
			}
			continue
		}
		rep.Videos++
		live := map[string]bool{}
		// Coverage starts at the retention watermark: a trimmed live
		// video's first stored SOT begins where the trim left off, not at
		// frame 0.
		covered := meta.TrimmedTo
		for _, sot := range meta.SOTs {
			rep.SOTs++
			if sot.From != covered || sot.To <= sot.From {
				problemf("video %s SOT %d: frame range [%d,%d) does not continue at frame %d", name, sot.ID, sot.From, sot.To, covered)
			}
			covered = sot.To
			dir, err := s.resolveSOTDir(name, sot)
			if err != nil {
				problemf("video %s SOT %d: missing version directory %s", name, sot.ID, sotDirName(sot))
				continue
			}
			live[filepath.Base(dir)] = true
			for i := 0; i < sot.L.NumTiles(); i++ {
				path := filepath.Join(dir, tileFileName(i))
				tv, err := s.ReadTile(name, sot, i)
				if err != nil {
					problemf("video %s SOT %d: %s: %v", name, sot.ID, path, err)
					continue
				}
				rep.Tiles++
				if tv.FrameCount() != sot.NumFrames() {
					problemf("video %s SOT %d: %s has %d frames, manifest says %d", name, sot.ID, path, tv.FrameCount(), sot.NumFrames())
				}
				if r := sot.L.TileRectByIndex(i); tv.W != r.Width() || tv.H != r.Height() {
					problemf("video %s SOT %d: %s is %dx%d, layout says %dx%d", name, sot.ID, path, tv.W, tv.H, r.Width(), r.Height())
				}
			}
		}
		if covered != meta.FrameCount {
			problemf("video %s: SOTs cover %d frames, manifest says %d", name, covered, meta.FrameCount)
		}
		if err := s.fsckEntries(&rep, name, live, leased); err != nil {
			return rep, err
		}
	}
	sort.Strings(rep.Problems)
	sort.Strings(rep.Orphans)
	return rep, nil
}

// fsckEntries classifies one video directory's entries as GC would:
// manifest.json and live versions stay, recognised debris is an orphan,
// and a foreign entry is a problem. live == nil marks a manifest-less
// directory, which is itself an orphan once GC could empty it: nothing
// foreign and nothing leased inside.
func (s *Store) fsckEntries(rep *FsckReport, video string, live, leased map[string]bool) error {
	vdir := filepath.Join(s.root, video)
	entries, err := s.fs.ReadDir(vdir)
	if err != nil {
		return err
	}
	kept := false
	for _, ent := range entries {
		base := ent.Name()
		p := filepath.Join(vdir, base)
		switch {
		case base == "manifest.json" || live[base]:
		case isDebrisName(base):
			rep.Orphans = append(rep.Orphans, p)
			kept = kept || leased[p]
		default:
			rep.Problems = append(rep.Problems, fmt.Sprintf("video %s: unrecognized entry %s", video, base))
			kept = true
		}
	}
	if live == nil && !kept {
		rep.Orphans = append(rep.Orphans, vdir)
	}
	return nil
}
