// Package tilestore manages TASM's physical video storage (paper §3.4.5):
// each tile is a separate, independently decodable video file, grouped into
// per-SOT directories named after the paper's Figure 1 frames_<a>-<b>
// convention, with a .r<N> version suffix once a SOT has been re-tiled:
//
//	root/
//	  traffic/
//	    manifest.json
//	    frames_0-29/tile0.tsv            (version 0, as ingested)
//	    frames_30-59.r2/tile0.tsv ...    (version 2, after two re-tiles)
//
// The store is multi-version (MVCC): a SOT's physical layout is immutable
// per version. Re-tiling writes the new tiles into a fresh version
// directory and flips the manifest; it never overwrites tile files in
// place. Readers pin the exact versions their catalog snapshot names by
// holding read leases (Snapshot and its variants), and a superseded
// version's directory is garbage-collected only once the last lease on it
// is released. This is what lets Scan run truly concurrently with RetileSOT:
// a scan holding a lease always reads the tile files of the layout it
// planned against, no matter how many re-tiles commit underneath it.
package tilestore

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/tasm-repro/tasm/internal/container"
	"github.com/tasm-repro/tasm/internal/fsio"
	"github.com/tasm-repro/tasm/internal/layout"
	"github.com/tasm-repro/tasm/internal/tasmerr"
)

// castagnoli is the CRC32C polynomial table used for every integrity
// checksum the store writes (tile files, manifests, version sidecars).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SOTMeta describes one sequence of tiles: a frame range sharing a layout.
type SOTMeta struct {
	ID   int           `json:"id"`
	From int           `json:"from"` // first frame (inclusive)
	To   int           `json:"to"`   // last frame (exclusive)
	L    layout.Layout `json:"layout"`
	// Retiles counts how many times this SOT has been re-encoded. It is
	// also the SOT's storage version: tiles live in frames_<a>-<b> when 0
	// and frames_<a>-<b>.r<Retiles> afterwards.
	Retiles int `json:"retiles"`
	// TileCRCs holds the CRC32C of each tile file's bytes, in layout
	// order, computed when the version was written. Reads verify a
	// tile against its checksum before decoding; nil (a store written
	// before checksums existed) skips verification.
	TileCRCs []uint32 `json:"tile_crcs,omitempty"`
}

// NumFrames returns the SOT's frame count.
func (s SOTMeta) NumFrames() int { return s.To - s.From }

// VideoMeta is the catalog record for one stored video. The live-ingest
// fields (Live, Sealed, NextSOT, TrimmedTo, Retention) all omit when
// empty, so batch manifests written before live ingest existed parse
// and re-seal unchanged.
type VideoMeta struct {
	Name       string    `json:"name"`
	W          int       `json:"width"`
	H          int       `json:"height"`
	FPS        int       `json:"fps"`
	GOPLength  int       `json:"gop_length"`
	FrameCount int       `json:"frame_count"`
	SOTs       []SOTMeta `json:"sots"`
	// Live marks an append-mode video still accepting AppendSOT; Sealed
	// marks one that was live and has been converted to batch by
	// SealVideo. Both false on an ordinary batch ingest.
	Live   bool `json:"live,omitempty"`
	Sealed bool `json:"sealed,omitempty"`
	// NextSOT is the next SOT id AppendSOT will assign. Ids stay
	// monotonic even after retention trims leading SOTs, so a lease on
	// a trimmed SOT can never alias a later append's version.
	NextSOT int `json:"next_sot,omitempty"`
	// TrimmedTo is the first frame still stored: retention may have
	// aged out SOTs covering [0, TrimmedTo). Reads below it return no
	// data; FrameCount keeps counting absolute frame indices.
	TrimmedTo int `json:"trimmed_to,omitempty"`
	// Retention is the video's expiry policy, applied by TrimExpired;
	// nil keeps everything.
	Retention *RetentionPolicy `json:"retention,omitempty"`
	// Checksum is the manifest's own integrity seal: "crc32c:<hex>" of
	// the manifest JSON marshaled with this field empty. A manifest
	// whose bytes do not match its seal is reported corrupt instead of
	// silently driving reads with a torn catalog record. Empty on
	// stores written before checksums existed.
	Checksum string `json:"checksum,omitempty"`
}

// SOTForFrame returns the SOT containing the given frame index.
func (m *VideoMeta) SOTForFrame(frame int) (SOTMeta, bool) {
	i := sort.Search(len(m.SOTs), func(i int) bool { return m.SOTs[i].To > frame })
	if i >= len(m.SOTs) || frame < m.SOTs[i].From {
		return SOTMeta{}, false
	}
	return m.SOTs[i], true
}

// SOTByID returns the SOT with the given id, or an error wrapping
// tasmerr.ErrSOTNotFound.
func (m *VideoMeta) SOTByID(id int) (SOTMeta, error) {
	for _, s := range m.SOTs {
		if s.ID == id {
			return s, nil
		}
	}
	return SOTMeta{}, fmt.Errorf("tilestore: %w: video %q has no SOT %d", tasmerr.ErrSOTNotFound, m.Name, id)
}

// SOTsInRange returns the SOTs overlapping frames [from, to).
func (m *VideoMeta) SOTsInRange(from, to int) []SOTMeta {
	var out []SOTMeta
	for _, s := range m.SOTs {
		if s.From < to && from < s.To {
			out = append(out, s)
		}
	}
	return out
}

// leaseKey identifies one leased SOT version. The epoch distinguishes
// same-named videos across DeleteVideo/re-ingest cycles, so a lease taken
// on a deleted video can never pin (or worse, reap) its successor's files.
type leaseKey struct {
	video   string
	epoch   uint64
	sot     int
	retiles int
}

// leaseEntry is the refcount for one leased version directory. dead marks
// versions superseded by a re-tile (or orphaned by DeleteVideo) whose
// directory must be removed when the last reference drops.
type leaseEntry struct {
	refs int
	dir  string
	dead bool
}

// Lease pins a set of SOT version directories against garbage collection.
// Release is idempotent and safe to defer; a nil *Lease releases nothing.
type Lease struct {
	s    *Store
	keys []leaseKey
	once sync.Once
}

// Release drops the lease's references. Any version directory the lease
// was the last reader of, and that has since been superseded, is removed.
func (l *Lease) Release() {
	if l == nil {
		return
	}
	l.once.Do(func() {
		l.s.leaseMu.Lock()
		defer l.s.leaseMu.Unlock()
		l.s.releaseLocked(l.keys)
	})
}

// sotDir resolves the directory currently backing a leased SOT version,
// through the live lease table — not by path probing — so it stays
// correct even after DeleteVideo tombstones the directory into .trash.
func (l *Lease) sotDir(sot SOTMeta) (string, error) {
	if l == nil {
		return "", errors.New("tilestore: nil lease")
	}
	l.s.leaseMu.Lock()
	defer l.s.leaseMu.Unlock()
	for _, k := range l.keys {
		if k.sot != sot.ID || k.retiles != sot.Retiles {
			continue
		}
		if e := l.s.leases[k]; e != nil {
			return e.dir, nil
		}
	}
	return "", fmt.Errorf("tilestore: lease does not pin SOT %d version %d", sot.ID, sot.Retiles)
}

// ReadTile loads one tile stream of a leased SOT version. Unlike
// Store.ReadTile it cannot be redirected by concurrent re-tiles, deletes,
// or re-ingests: the lease pins the exact files of the caller's catalog
// snapshot.
func (l *Lease) ReadTile(sot SOTMeta, tileIdx int) (*container.Video, error) {
	if tileIdx < 0 || tileIdx >= sot.L.NumTiles() {
		return nil, fmt.Errorf("tilestore: tile %d out of range for SOT %d", tileIdx, sot.ID)
	}
	// DeleteVideo may tombstone-rename the directory between the path
	// lookup and the open; one retry re-reads the moved location.
	for attempt := 0; ; attempt++ {
		dir, err := l.sotDir(sot)
		if err != nil {
			return nil, err
		}
		tv, err := l.s.loadTile(dir, sot, tileIdx)
		if err == nil || attempt > 0 || !errors.Is(err, os.ErrNotExist) {
			return tv, err
		}
	}
}

// ReadAllTiles loads every tile stream of a leased SOT in layout order,
// honoring ctx between tile reads.
func (l *Lease) ReadAllTiles(ctx context.Context, sot SOTMeta) ([]*container.Video, error) {
	out := make([]*container.Video, sot.L.NumTiles())
	for i := range out {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("tilestore: read SOT %d tiles: %w", sot.ID, err)
		}
		tv, err := l.ReadTile(sot, i)
		if err != nil {
			return nil, err
		}
		out[i] = tv
	}
	return out, nil
}

// Store is a directory of stored videos. Methods are safe for concurrent
// use; readers that must observe a frozen physical layout across multiple
// calls hold a Lease (see Snapshot).
//
// Locking: mu is the catalog lock — writers (CreateVideo, ReplaceSOT,
// DeleteVideo, GC) hold it exclusively, snapshot/lease acquisition holds it
// shared, so concurrent scan starts no longer serialize on each other.
// leaseMu guards the lease refcount table and delete epochs and nests
// inside mu (mu → leaseMu, never the reverse); Lease.Release takes only
// leaseMu, so dropping a lease never contends with the catalog. manMu
// guards the parsed-manifest cache, which turns the per-snapshot
// manifest.json read — previously a file read and JSON parse under the
// exclusive lock on every request — into a map lookup.
type Store struct {
	mu   sync.RWMutex
	root string

	// fs is the filesystem seam every store mutation and read goes
	// through: the real filesystem with fsync discipline by default,
	// or a fault-injecting fsio.MemFS under crash tests (WithFS).
	fs fsio.FS

	// unlock releases the cross-process ownership lease; nil when the
	// store was opened without one (the default for direct library use —
	// core.Open passes WithLock).
	unlock func() error

	// corruptTiles counts tile reads that failed checksum or parse
	// verification; recoverySweeps counts crash-recovery sweeps run by
	// Open. Both feed tasmd's /metrics endpoint.
	corruptTiles   atomic.Uint64
	recoverySweeps atomic.Uint64

	leaseMu sync.Mutex
	leases  map[leaseKey]*leaseEntry
	epochs  map[string]uint64 // bumped by DeleteVideo; never reset

	manMu     sync.Mutex
	manifests map[string]VideoMeta // parsed manifest.json cache
}

// lockFileName is the cross-process ownership lease file under the
// store root. It is a regular file, so the catalog walk (which skips
// non-directories) and fsck never mistake it for a video.
const lockFileName = ".lock"

// OpenOption configures Open.
type OpenOption func(*openConfig)

type openConfig struct {
	lock bool
	fs   fsio.FS
}

// WithLock makes Open acquire the store's cross-process ownership
// lease (an exclusive flock on <root>/.lock). A second locked Open of
// the same directory — another process, or even this one — fails fast
// with tasmerr.ErrStoreLocked instead of reading caches the owner is
// about to invalidate. Release it with Close.
func WithLock() OpenOption {
	return func(c *openConfig) { c.lock = true }
}

// WithFS routes every filesystem operation of the store through fs
// instead of the real filesystem — the seam crash tests use to open a
// store on a fault-injecting fsio.MemFS. Incompatible with WithLock,
// whose flock is inherently an OS-level construct.
func WithFS(fs fsio.FS) OpenOption {
	return func(c *openConfig) { c.fs = fs }
}

// Open creates (if needed) and opens a store rooted at dir, then runs
// a crash-recovery sweep: staging directories, manifest temp files,
// tombstones, and manifest-less video directories left by a crash are
// removed, so a store that lost power mid-write comes back FSCK-clean.
func Open(dir string, opts ...OpenOption) (*Store, error) {
	cfg := openConfig{fs: fsio.OS{}}
	for _, opt := range opts {
		opt(&cfg)
	}
	s := &Store{
		root:      dir,
		fs:        cfg.fs,
		leases:    map[leaseKey]*leaseEntry{},
		epochs:    map[string]uint64{},
		manifests: map[string]VideoMeta{},
	}
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if cfg.lock {
		release, err := acquireLock(dir)
		if err != nil {
			return nil, err
		}
		s.unlock = release
	}
	if err := s.recoverSweep(); err != nil {
		s.Close()
		return nil, fmt.Errorf("tilestore: recovery sweep: %w", err)
	}
	return s, nil
}

// recoverSweep removes debris a crash can leave behind: .staging
// working copies and manifest.json.tmp files whose commit never
// happened, tombstoned version directories in .trash (no lease can
// outlive the process that held it), and video directories without a
// manifest — a CreateVideo that never reached its commit point, or a
// DeleteVideo that passed it. It runs once per Open, before any reads,
// and is deliberately conservative: directories holding anything the
// store did not write are left alone.
func (s *Store) recoverSweep() error {
	entries, err := s.fs.ReadDir(s.root)
	if err != nil {
		return err
	}
	swept := false
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		p := filepath.Join(s.root, name)
		if name == trashDirName {
			if err := s.fs.RemoveAll(p); err != nil {
				return err
			}
			swept = true
			continue
		}
		vents, err := s.fs.ReadDir(p)
		if err != nil {
			return err
		}
		hasManifest, foreign := false, false
		for _, ve := range vents {
			base := ve.Name()
			vp := filepath.Join(p, base)
			switch {
			case base == "manifest.json":
				hasManifest = true
			case base == "manifest.json.tmp":
				if err := s.fs.Remove(vp); err != nil {
					return err
				}
				swept = true
			case strings.HasSuffix(base, ".staging") && sotDirPattern.MatchString(base):
				if err := s.fs.RemoveAll(vp); err != nil {
					return err
				}
				swept = true
			case sotDirPattern.MatchString(base):
				// A committed or half-flipped version directory; keep it.
				// If the manifest references it, it is live; otherwise it
				// is an orphan for GC (and a fallback for Repair).
			default:
				foreign = true
			}
		}
		if !hasManifest && !foreign {
			if err := s.fs.RemoveAll(p); err != nil {
				return err
			}
			swept = true
		}
	}
	if swept {
		if err := s.fs.SyncDir(s.root); err != nil {
			return err
		}
	}
	s.recoverySweeps.Add(1)
	return nil
}

// Metrics is a snapshot of the store's durability counters.
type Metrics struct {
	// CorruptTiles counts tile reads rejected by checksum or parse
	// verification since the store was opened.
	CorruptTiles uint64
	// RecoverySweeps counts crash-recovery sweeps run by Open.
	RecoverySweeps uint64
}

// Metrics returns the store's durability counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		CorruptTiles:   s.corruptTiles.Load(),
		RecoverySweeps: s.recoverySweeps.Load(),
	}
}

// Close releases the store's cross-process ownership lease (when one
// was taken). It does not wait for read leases: callers above this
// layer stop serving before closing. Close is idempotent.
func (s *Store) Close() error {
	if s.unlock == nil {
		return nil
	}
	unlock := s.unlock
	s.unlock = nil
	return unlock()
}

// Root returns the store's root directory.
func (s *Store) Root() string { return s.root }

func (s *Store) videoDir(name string) string { return filepath.Join(s.root, name) }

// sotDirName is the canonical directory name for a SOT version: the
// paper's frames_<a>-<b> for version 0, frames_<a>-<b>.r<N> afterwards.
func sotDirName(m SOTMeta) string {
	if m.Retiles == 0 {
		return fmt.Sprintf("frames_%d-%d", m.From, m.To-1)
	}
	return fmt.Sprintf("frames_%d-%d.r%d", m.From, m.To-1, m.Retiles)
}

func (s *Store) sotDir(video string, m SOTMeta) string {
	return filepath.Join(s.videoDir(video), sotDirName(m))
}

// resolveSOTDir locates the directory holding a SOT version's tiles;
// a manifest entry whose directory is missing is a typed failure fsck
// and repair report rather than a read error deep in a scan.
func (s *Store) resolveSOTDir(video string, m SOTMeta) (string, error) {
	dir := s.sotDir(video, m)
	if _, err := s.fs.Stat(dir); err == nil {
		return dir, nil
	}
	return "", fmt.Errorf("tilestore: video %q SOT %d version %d: no tile directory", video, m.ID, m.Retiles)
}

func tileFileName(i int) string { return fmt.Sprintf("tile%d.tsv", i) }

// trashDirName holds tombstoned version directories: files of deleted
// videos still pinned by read leases, moved out of the video directory so
// a re-ingest under the same name can never collide with them.
const trashDirName = ".trash"

// validName rejects names that would escape the store directory or
// collide with the store's own bookkeeping entries.
func validName(name string) error {
	if name == "" || name == "." || name == ".." || name[0] == '.' {
		return fmt.Errorf("tilestore: %w: %q", tasmerr.ErrInvalidName, name)
	}
	if filepath.Base(name) != name {
		return fmt.Errorf("tilestore: %w: %q contains a path separator", tasmerr.ErrInvalidName, name)
	}
	return nil
}

// CreateVideo registers a new video and writes the tiles of each SOT. The
// lengths of sotTiles must match meta.SOTs, and each inner slice must match
// the SOT's layout tile count. On failure the video's directory is removed
// so a retried ingest starts fresh instead of tripping over half-written
// SOT directories or staging debris.
func (s *Store) CreateVideo(meta VideoMeta, sotTiles [][]*container.Video) (err error) {
	if err := validName(meta.Name); err != nil {
		return err
	}
	if len(sotTiles) != len(meta.SOTs) {
		return fmt.Errorf("tilestore: %d tile sets for %d SOTs", len(sotTiles), len(meta.SOTs))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.videoDir(meta.Name)
	if _, err := s.fs.Stat(filepath.Join(dir, "manifest.json")); err == nil {
		return fmt.Errorf("tilestore: %w: %q", tasmerr.ErrVideoExists, meta.Name)
	}
	defer func() {
		if err != nil {
			s.fs.RemoveAll(dir)
		}
	}()
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Work on a private SOT slice: the tile checksums computed below
	// belong to the committed catalog record, not the caller's copy.
	meta.SOTs = append([]SOTMeta(nil), meta.SOTs...)
	for i, sot := range meta.SOTs {
		crcs, err := s.writeSOTDir(meta.Name, sot, sotTiles[i])
		if err != nil {
			return err
		}
		meta.SOTs[i].TileCRCs = crcs
	}
	if err := s.writeManifest(meta); err != nil {
		return err
	}
	// Commit point: the video directory entry itself becomes durable.
	return s.fs.SyncDir(s.root)
}

// tileSidecar records a version directory's own description —
// enough for Repair to re-adopt the version after the manifest moved
// on — and is written into every version directory as tiles.json.
type tileSidecar struct {
	From     int           `json:"from"`
	To       int           `json:"to"`
	L        layout.Layout `json:"layout"`
	TileCRCs []uint32      `json:"tile_crcs"`
}

// sidecarFileName is the per-version sidecar within a version dir.
const sidecarFileName = "tiles.json"

func (s *Store) readSidecar(dir string) (tileSidecar, error) {
	var side tileSidecar
	data, err := s.fs.ReadFile(filepath.Join(dir, sidecarFileName))
	if err != nil {
		return side, err
	}
	if err := json.Unmarshal(data, &side); err != nil {
		return side, fmt.Errorf("tilestore: %s: corrupt sidecar: %w", dir, err)
	}
	return side, nil
}

// writeSOTDir writes a SOT version directory with full commit
// discipline — every tile and the sidecar written and synced into a
// .staging copy, the staging directory synced, renamed over the final
// name, and the parent directory synced — and returns the CRC32C of
// each tile file for the manifest. A crash at any point leaves either
// the previous state or the complete new version, never a torn one.
func (s *Store) writeSOTDir(video string, sot SOTMeta, tiles []*container.Video) ([]uint32, error) {
	if len(tiles) != sot.L.NumTiles() {
		return nil, fmt.Errorf("tilestore: SOT %d has %d tiles for a %d-tile layout", sot.ID, len(tiles), sot.L.NumTiles())
	}
	dir := s.sotDir(video, sot)
	staging := dir + ".staging"
	if err := s.fs.RemoveAll(staging); err != nil {
		return nil, err
	}
	if err := s.fs.MkdirAll(staging, 0o755); err != nil {
		return nil, err
	}
	crcs := make([]uint32, len(tiles))
	for i, tv := range tiles {
		if tv.FrameCount() != sot.NumFrames() {
			s.fs.RemoveAll(staging)
			return nil, fmt.Errorf("tilestore: SOT %d tile %d has %d frames, want %d", sot.ID, i, tv.FrameCount(), sot.NumFrames())
		}
		data := tv.Bytes()
		crcs[i] = crc32.Checksum(data, castagnoli)
		path := filepath.Join(staging, tileFileName(i))
		if err := s.fs.WriteFile(path, data, 0o644); err != nil {
			s.fs.RemoveAll(staging)
			return nil, err
		}
		if err := s.fs.SyncFile(path); err != nil {
			s.fs.RemoveAll(staging)
			return nil, err
		}
	}
	side := tileSidecar{From: sot.From, To: sot.To, L: sot.L, TileCRCs: crcs}
	data, err := json.MarshalIndent(&side, "", "  ")
	if err != nil {
		s.fs.RemoveAll(staging)
		return nil, err
	}
	sidePath := filepath.Join(staging, sidecarFileName)
	if err := s.fs.WriteFile(sidePath, data, 0o644); err != nil {
		s.fs.RemoveAll(staging)
		return nil, err
	}
	if err := s.fs.SyncFile(sidePath); err != nil {
		s.fs.RemoveAll(staging)
		return nil, err
	}
	if err := s.fs.SyncDir(staging); err != nil {
		s.fs.RemoveAll(staging)
		return nil, err
	}
	if err := s.fs.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := s.fs.Rename(staging, dir); err != nil {
		return nil, err
	}
	return crcs, s.fs.SyncDir(s.videoDir(video))
}

// manifestChecksum seals a catalog record: the CRC32C of the manifest
// marshaled with its Checksum field empty.
func manifestChecksum(meta VideoMeta) (string, error) {
	meta.Checksum = ""
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("crc32c:%08x", crc32.Checksum(data, castagnoli)), nil
}

func (s *Store) writeManifest(meta VideoMeta) error {
	sum, err := manifestChecksum(meta)
	if err != nil {
		return err
	}
	meta.Checksum = sum
	data, err := json.MarshalIndent(&meta, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(s.videoDir(meta.Name), "manifest.json")
	tmp := path + ".tmp"
	if err := s.fs.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := s.fs.SyncFile(tmp); err != nil {
		return err
	}
	if err := s.fs.Rename(tmp, path); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.videoDir(meta.Name)); err != nil {
		return err
	}
	s.cacheManifest(meta)
	return nil
}

// cacheManifest installs a private copy of meta in the parsed-manifest
// cache (the SOT slice is copied; Layout internals are shared but never
// mutated in place — re-tiles replace whole SOTMeta values).
func (s *Store) cacheManifest(meta VideoMeta) {
	meta.SOTs = append([]SOTMeta(nil), meta.SOTs...)
	s.manMu.Lock()
	s.manifests[meta.Name] = meta
	s.manMu.Unlock()
}

// invalidateManifest drops a video's cached catalog record; the next read
// re-parses manifest.json (or reports the video gone).
func (s *Store) invalidateManifest(video string) {
	s.manMu.Lock()
	delete(s.manifests, video)
	s.manMu.Unlock()
}

// Meta returns the catalog record for a video. The record is a snapshot:
// to also pin the physical files it names, use Snapshot instead.
func (s *Store) Meta(video string) (VideoMeta, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.metaLocked(video)
}

// metaLocked returns the catalog record, serving from the in-memory
// manifest cache on the hot path. Callers hold mu (shared or exclusive),
// which orders reads against the writers that refresh or invalidate the
// cache. The returned record's SOT slice is a private copy.
func (s *Store) metaLocked(video string) (VideoMeta, error) {
	var meta VideoMeta
	if err := validName(video); err != nil {
		return meta, err
	}
	s.manMu.Lock()
	cached, ok := s.manifests[video]
	s.manMu.Unlock()
	if ok {
		cached.SOTs = append([]SOTMeta(nil), cached.SOTs...)
		return cached, nil
	}
	meta, err := s.metaFromDisk(video)
	if err != nil {
		return meta, err
	}
	s.cacheManifest(meta)
	return meta, nil
}

// metaFromDisk reads and parses manifest.json, bypassing the cache — the
// read GC and FSCK use, so an externally corrupted or deleted manifest is
// seen as it is on disk rather than masked by a cached copy.
func (s *Store) metaFromDisk(video string) (VideoMeta, error) {
	var meta VideoMeta
	data, err := s.fs.ReadFile(filepath.Join(s.videoDir(video), "manifest.json"))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return meta, fmt.Errorf("tilestore: %w: %q", tasmerr.ErrVideoNotFound, video)
		}
		return meta, fmt.Errorf("tilestore: video %q: %w", video, err)
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("tilestore: video %q: corrupt manifest: %w", video, err)
	}
	if meta.Checksum != "" {
		sum, err := manifestChecksum(meta)
		if err != nil {
			return meta, err
		}
		if sum != meta.Checksum {
			return VideoMeta{}, fmt.Errorf("tilestore: video %q: corrupt manifest: checksum %s, sealed %s", video, sum, meta.Checksum)
		}
	}
	return meta, nil
}

// Snapshot atomically reads a video's catalog record and acquires read
// leases on the live version of every SOT it names. Until the lease is
// released, those versions' tile files stay on disk even if the SOTs are
// re-tiled or the video deleted, so the caller reads exactly the layout
// the snapshot describes.
func (s *Store) Snapshot(video string) (VideoMeta, *Lease, error) {
	return s.snapshot(context.Background(), video, 0, -1)
}

// SnapshotContext is Snapshot under a context: a done context fails the
// acquisition before any lease is taken, so no release is owed.
func (s *Store) SnapshotContext(ctx context.Context, video string) (VideoMeta, *Lease, error) {
	return s.snapshot(ctx, video, 0, -1)
}

// SnapshotRange is Snapshot restricted to the SOTs overlapping the frame
// range [from, to) after clamping it to the video (from < 0 becomes 0;
// to < 0 or past the end becomes the frame count) — what Scan and
// DecodeFrames use so a narrow query does not pin (or pay a stat for)
// every SOT of a long video.
func (s *Store) SnapshotRange(video string, from, to int) (VideoMeta, *Lease, error) {
	return s.snapshot(context.Background(), video, from, to)
}

// SnapshotRangeContext is SnapshotRange under a context.
func (s *Store) SnapshotRangeContext(ctx context.Context, video string, from, to int) (VideoMeta, *Lease, error) {
	return s.snapshot(ctx, video, from, to)
}

// snapshot runs under the shared catalog lock: concurrent snapshots
// proceed in parallel (the manifest comes from the in-memory cache and the
// lease table has its own mutex), while the exclusive writers —
// ReplaceSOT, DeleteVideo, CreateVideo, GC — are excluded, which is what
// makes the meta read plus lease acquisition atomic.
func (s *Store) snapshot(ctx context.Context, video string, from, to int) (VideoMeta, *Lease, error) {
	if err := ctx.Err(); err != nil {
		return VideoMeta{}, nil, fmt.Errorf("tilestore: snapshot %q: %w", video, err)
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return meta, nil, err
	}
	if from < 0 {
		from = 0
	}
	if to < 0 || to > meta.FrameCount {
		to = meta.FrameCount
	}
	l := &Lease{s: s}
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	for _, sot := range meta.SOTs {
		if sot.From >= to || from >= sot.To {
			continue
		}
		k, err := s.acquireLocked(video, sot)
		if err != nil {
			s.releaseLocked(l.keys)
			return meta, nil, err
		}
		l.keys = append(l.keys, k)
	}
	return meta, l, nil
}

// acquireLocked takes one read-lease reference; the caller holds leaseMu
// (and mu shared, to exclude the writers that retire versions).
func (s *Store) acquireLocked(video string, sot SOTMeta) (leaseKey, error) {
	k := leaseKey{video: video, epoch: s.epochs[video], sot: sot.ID, retiles: sot.Retiles}
	if e := s.leases[k]; e != nil {
		if e.dead {
			return k, fmt.Errorf("tilestore: %w: video %q SOT %d version %d was superseded", tasmerr.ErrRetileConflict, video, sot.ID, sot.Retiles)
		}
		e.refs++
		return k, nil
	}
	dir, err := s.resolveSOTDir(video, sot)
	if err != nil {
		return k, err
	}
	s.leases[k] = &leaseEntry{refs: 1, dir: dir}
	return k, nil
}

// releaseLocked drops lease references; the caller holds leaseMu.
func (s *Store) releaseLocked(keys []leaseKey) {
	for _, k := range keys {
		e := s.leases[k]
		if e == nil {
			continue
		}
		if e.refs--; e.refs > 0 {
			continue
		}
		delete(s.leases, k)
		if e.dead {
			s.removeDeadDirLocked(k, e.dir)
		}
	}
}

// removeDeadDirLocked reaps a superseded version directory. Dead dirs
// never collide with live data: a retired version keeps a name no future
// write reuses (retile counters only grow), and DeleteVideo tombstones
// leased dirs into .trash before the name can be re-ingested.
func (s *Store) removeDeadDirLocked(k leaseKey, dir string) {
	s.fs.RemoveAll(dir)
	// Reap the enclosing .trash/<video>.e<epoch>/ dir — and .trash itself
	// — once empty; Remove fails harmlessly while non-empty, and a
	// retired-in-place dir's parent (the video dir) still holds the
	// manifest.
	parent := filepath.Dir(dir)
	if s.fs.Remove(parent) == nil && filepath.Base(filepath.Dir(parent)) == trashDirName {
		s.fs.Remove(filepath.Dir(parent))
	}
}

// ListVideos returns the names of all stored videos, sorted.
func (s *Store) ListVideos() ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	entries, err := s.fs.ReadDir(s.root)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		if _, err := s.fs.Stat(filepath.Join(s.root, e.Name(), "manifest.json")); err == nil {
			out = append(out, e.Name())
		}
	}
	sort.Strings(out)
	return out, nil
}

// loadTile reads, verifies, and parses one tile file of a version
// directory. A checksum mismatch or unparseable tile surfaces
// tasmerr.ErrTileCorrupt (and bumps the corrupt-tile counter); a
// missing file keeps wrapping os.ErrNotExist so lease retry logic and
// not-found classification still work.
func (s *Store) loadTile(dir string, sot SOTMeta, tileIdx int) (*container.Video, error) {
	path := filepath.Join(dir, tileFileName(tileIdx))
	data, err := s.fs.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if tileIdx < len(sot.TileCRCs) {
		if got := crc32.Checksum(data, castagnoli); got != sot.TileCRCs[tileIdx] {
			s.corruptTiles.Add(1)
			return nil, fmt.Errorf("tilestore: %w: %s: crc32c %08x, manifest says %08x", tasmerr.ErrTileCorrupt, path, got, sot.TileCRCs[tileIdx])
		}
	}
	tv, err := container.Parse(data)
	if err != nil {
		s.corruptTiles.Add(1)
		return nil, fmt.Errorf("tilestore: %w: %s: %v", tasmerr.ErrTileCorrupt, path, err)
	}
	return tv, nil
}

// ReadTile loads one tile stream of a SOT version, verifying its
// checksum when the catalog record carries one. Tile files are never
// rewritten in place, so the read needs no lock; callers that must keep
// the version on disk across several reads hold a Lease on it.
func (s *Store) ReadTile(video string, sot SOTMeta, tileIdx int) (*container.Video, error) {
	if tileIdx < 0 || tileIdx >= sot.L.NumTiles() {
		return nil, fmt.Errorf("tilestore: tile %d out of range for SOT %d", tileIdx, sot.ID)
	}
	dir, err := s.resolveSOTDir(video, sot)
	if err != nil {
		return nil, err
	}
	return s.loadTile(dir, sot, tileIdx)
}

// ReplaceSOT swaps a SOT's tiles for a new layout by writing a fresh
// version directory and flipping the manifest; the old version's files are
// untouched until every lease on them is released, then reaped. The new
// tiles must match newLayout and the SOT's frame count.
func (s *Store) ReplaceSOT(video string, sotID int, newLayout layout.Layout, tiles []*container.Video) error {
	return s.replaceSOT(video, sotID, newLayout, tiles, nil)
}

// ReplaceSOTLeased is ReplaceSOT with a write-time validity check against
// the snapshot the new tiles were produced from: if the video was deleted
// (and possibly re-ingested) or the SOT re-tiled since the lease was
// taken, the replace is refused instead of committing tiles encoded from
// a stale — or entirely different — video's frames.
func (s *Store) ReplaceSOTLeased(lease *Lease, video string, sotID int, newLayout layout.Layout, tiles []*container.Video) error {
	if lease == nil {
		return errors.New("tilestore: ReplaceSOTLeased requires a lease")
	}
	return s.replaceSOT(video, sotID, newLayout, tiles, lease)
}

func (s *Store) replaceSOT(video string, sotID int, newLayout layout.Layout, tiles []*container.Video, lease *Lease) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	meta, err := s.metaLocked(video)
	if err != nil {
		return err
	}
	idx := slices.IndexFunc(meta.SOTs, func(sot SOTMeta) bool { return sot.ID == sotID })
	if idx < 0 {
		return fmt.Errorf("tilestore: %w: video %q has no SOT %d", tasmerr.ErrSOTNotFound, video, sotID)
	}
	oldSOT := meta.SOTs[idx]
	if lease != nil {
		if err := s.validateLeasePin(lease, video, sotID, oldSOT.Retiles); err != nil {
			return err
		}
	}
	oldDir, oldDirErr := s.resolveSOTDir(video, oldSOT)
	newSOT := oldSOT
	newSOT.L = newLayout
	newSOT.Retiles++
	crcs, err := s.writeSOTDir(video, newSOT, tiles)
	if err != nil {
		return err
	}
	newSOT.TileCRCs = crcs
	meta.SOTs[idx] = newSOT
	if err := s.writeManifest(meta); err != nil {
		return err
	}
	if oldDirErr == nil {
		s.retireLocked(video, oldSOT, oldDir)
	}
	return nil
}

// validateLeasePin checks that a commit's snapshot lease still pins the
// SOT version the live catalog names, classifying the mismatch: the video
// was deleted/re-ingested (epoch moved), the SOT was re-tiled by someone
// else (version moved), or the snapshot never pinned the SOT at all.
func (s *Store) validateLeasePin(lease *Lease, video string, sotID, retiles int) error {
	s.leaseMu.Lock()
	epoch := s.epochs[video]
	s.leaseMu.Unlock()
	for _, k := range lease.keys {
		if k.sot != sotID {
			continue
		}
		if k.epoch != epoch {
			return fmt.Errorf("tilestore: %w: video %q was deleted (and possibly re-ingested) since the snapshot was taken; not replacing SOT %d", tasmerr.ErrVideoDeleted, video, sotID)
		}
		if k.retiles != retiles {
			return fmt.Errorf("tilestore: %w: video %q SOT %d was re-tiled since the snapshot was taken; not replacing", tasmerr.ErrRetileConflict, video, sotID)
		}
		return nil
	}
	return fmt.Errorf("tilestore: %w: the snapshot does not pin video %q SOT %d; not replacing", tasmerr.ErrRetileConflict, video, sotID)
}

// retireLocked schedules a superseded version directory for removal: now
// if no reader holds a lease on it, otherwise when the last lease drops.
// The caller holds mu exclusively.
func (s *Store) retireLocked(video string, sot SOTMeta, dir string) {
	s.leaseMu.Lock()
	k := leaseKey{video: video, epoch: s.epochs[video], sot: sot.ID, retiles: sot.Retiles}
	if e := s.leases[k]; e != nil && e.refs > 0 {
		e.dead = true
		e.dir = dir
		s.leaseMu.Unlock()
		return
	}
	s.leaseMu.Unlock()
	s.fs.RemoveAll(dir)
}

// VideoBytes returns the total on-disk size of a video's live tile files,
// the storage-cost metric in Figure 9. The walk runs under a snapshot
// lease, so a concurrent re-tile can neither skew the sum nor pull files
// out from under it.
func (s *Store) VideoBytes(video string) (int64, error) {
	meta, lease, err := s.Snapshot(video)
	if err != nil {
		return 0, err
	}
	defer lease.Release()
	var total int64
	for _, sot := range meta.SOTs {
		dir, err := lease.sotDir(sot)
		if err != nil {
			return 0, err
		}
		for i := 0; i < sot.L.NumTiles(); i++ {
			st, err := s.fs.Stat(filepath.Join(dir, tileFileName(i)))
			if errors.Is(err, os.ErrNotExist) {
				// A concurrent DeleteVideo may have tombstone-renamed the
				// leased dir; re-resolve through the lease table and retry.
				if dir, err = lease.sotDir(sot); err == nil {
					st, err = s.fs.Stat(filepath.Join(dir, tileFileName(i)))
				}
			}
			if err != nil {
				return 0, err
			}
			total += st.Size()
		}
	}
	return total, nil
}

// DeleteVideo removes a video: its manifest and every version directory
// no reader is leasing, immediately. Leased version directories are
// tombstoned — moved into .trash/<video>.e<epoch>/ — so in-flight scans
// finish reading the exact files they pinned while the video's directory
// becomes immediately reusable: a re-ingest under the same name can never
// collide with (or be clobbered into) the deleted generation's files.
// Tombstones are reaped when their leases drop, or by GC after a crash.
func (s *Store) DeleteVideo(video string) error {
	if err := validName(video); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	dir := s.videoDir(video)
	if _, err := s.fs.Stat(dir); errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("tilestore: %w: %q", tasmerr.ErrVideoNotFound, video)
	}
	s.invalidateManifest(video)
	s.leaseMu.Lock()
	defer s.leaseMu.Unlock()
	// Phase 1: move every leased version dir into the tombstone area. Only
	// after all renames succeed is anything marked dead or the epoch
	// bumped, so a failed rename rolls back to a fully live video instead
	// of leaving some versions doomed to be reaped on lease release.
	trash := filepath.Join(s.root, trashDirName, fmt.Sprintf("%s.e%d", video, s.epochs[video]))
	type move struct {
		e        *leaseEntry
		from, to string
	}
	var moves []move
	// rollback restores the tombstoned dirs; its own failures are
	// collected and surfaced, not swallowed — a half-renamed video is an
	// integrity event the caller must hear about, because until the
	// leases drop those versions read from .trash and GC will not
	// reclaim them.
	rollback := func() error {
		var errs []error
		for _, mv := range moves {
			if err := s.fs.Rename(mv.to, mv.from); err != nil {
				errs = append(errs, fmt.Errorf("restore %s: %w", mv.from, err))
			}
		}
		s.fs.Remove(trash)
		s.fs.Remove(filepath.Dir(trash))
		return errors.Join(errs...)
	}
	fail := func(err error) error {
		if rbErr := rollback(); rbErr != nil {
			return fmt.Errorf("tilestore: delete %q: %w (rollback failed, tombstoned versions left under %s: %v)", video, err, trash, rbErr)
		}
		return err
	}
	for k, e := range s.leases {
		if k.video != video || e.refs == 0 || !strings.HasPrefix(e.dir, dir+string(filepath.Separator)) {
			continue
		}
		if err := s.fs.MkdirAll(trash, 0o755); err != nil {
			return fail(err)
		}
		moved := filepath.Join(trash, filepath.Base(e.dir))
		if err := s.fs.Rename(e.dir, moved); err != nil {
			return fail(err)
		}
		moves = append(moves, move{e, e.dir, moved})
	}
	// Make the tombstones durable before the commit point, so a crash
	// between the two cannot lose leased version directories: until the
	// manifest removal below is synced, the renames revert on power
	// loss and the video comes back fully live.
	if len(moves) > 0 {
		for _, p := range []string{trash, filepath.Dir(trash), s.root} {
			if err := s.fs.SyncDir(p); err != nil {
				return fail(err)
			}
		}
	}
	// Phase 2: commit — durably retire the catalog record FIRST, so no
	// crash can leave a manifest naming version directories that were
	// already removed. Then retarget the leases at the tombstones, mark
	// them dead, retire the name, and remove the rest.
	if err := s.fs.Remove(filepath.Join(dir, "manifest.json")); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fail(err)
	}
	for _, mv := range moves {
		mv.e.dir = mv.to
		mv.e.dead = true
	}
	s.epochs[video]++
	var errs []error
	// Syncing the video dir commits both the manifest removal and the
	// tombstone renames out of it in one step.
	if err := s.fs.SyncDir(dir); err != nil {
		errs = append(errs, err)
	}
	if err := s.fs.RemoveAll(dir); err != nil {
		errs = append(errs, err)
	}
	if err := s.fs.SyncDir(s.root); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
