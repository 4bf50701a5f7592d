// Package tilecache implements a byte-budgeted, sharded LRU cache of
// decoded tile GOPs. TASM's scan path repeatedly decodes the same tiles:
// object queries revisit time ranges, the adaptive policies re-scan to
// evaluate layouts, and detectors iterate over whole videos. Because the
// software codec makes decoding the dominant cost (the β·P term of the
// cost model), serving a repeated (video, SOT, tile) request from memory
// turns the second scan of a region into pure pixel assembly.
//
// Entries are keyed by (video, sotID, tileIdx, generation). The generation
// is bumped whenever a SOT is re-tiled or replaced, so a cached decode of
// an old physical layout can never satisfy a request issued after the
// layout changed — even if the decode that produced it was still in flight
// when the layout flipped (its Put lands under the stale generation, which
// no future Get asks for).
//
// Each cached value is the decoded frame prefix [0, n) of one tile stream.
// SOTs are single GOPs, so every decode starts at frame 0's keyframe; a
// cached prefix therefore serves any request for fewer or equal frames,
// and a longer decode simply replaces a shorter cached prefix.
package tilecache

import (
	"hash/maphash"
	"sync"
	"sync/atomic"

	"github.com/tasm-repro/tasm/internal/frame"
)

// numShards spreads lock contention across independent LRU segments. A
// power of two keeps the shard selection a mask.
const numShards = 16

// Key identifies one decoded tile GOP.
type Key struct {
	Video string
	SOT   int
	Tile  int
	// Retiles is the SOT's re-encode counter from the catalog snapshot the
	// caller is scanning with. Including it makes an entry unreachable the
	// instant a scan observes a newer layout, even before the invalidation
	// sweep lands, so a decode of the old physical layout can never be
	// assembled under the new one.
	Retiles int
	// Gen is the invalidation generation at the time the decode started
	// (per-SOT bumps combined with a per-video epoch; see Gen). Entries
	// from older generations are unreachable and get swept on bump.
	Gen uint64
}

// Stats is a snapshot of the cache's global counters.
type Stats struct {
	Hits          int64 `json:"hits"`
	Misses        int64 `json:"misses"`
	Evictions     int64 `json:"evictions"`
	Invalidations int64 `json:"invalidations"`
	BytesCached   int64 `json:"bytes_cached"`
	Entries       int   `json:"entries"`
	Budget        int64 `json:"budget"`
}

type entry struct {
	key    Key
	frames []*frame.Frame
	bytes  int64
	// use is the cache-global clock reading at the entry's last touch.
	// Recency comparisons across shards need a shared ordering: the
	// per-shard lists only order entries within one shard, and shard
	// placement is randomized per process (maphash seed), so evicting by
	// shard position alone would make the cross-shard victim choice
	// depend on the seed rather than on recency.
	use uint64
	// LRU list links (per shard, most recent at head).
	prev, next *entry
}

type shard struct {
	mu    sync.Mutex
	items map[Key]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
}

// Cache is a sharded LRU over decoded tile GOPs. A nil *Cache is a valid,
// always-miss cache: every method is nil-safe, so callers can hold a nil
// cache when caching is disabled and skip the branching.
type Cache struct {
	shards [numShards]shard
	seed   maphash.Seed
	budget int64
	bytes  atomic.Int64  // global byte accounting against budget
	clock  atomic.Uint64 // global use ordering for cross-shard eviction

	genMu  sync.Mutex
	gens   map[string]map[int]uint64
	epochs map[string]uint64 // never reset, so a re-created video starts fresh

	hits, misses, evictions, invalidations atomic.Int64
}

// New creates a cache with the given byte budget. A non-positive budget
// returns nil (caching disabled).
func New(budget int64) *Cache {
	if budget <= 0 {
		return nil
	}
	c := &Cache{
		seed:   maphash.MakeSeed(),
		budget: budget,
		gens:   map[string]map[int]uint64{},
		epochs: map[string]uint64{},
	}
	for i := range c.shards {
		c.shards[i].items = map[Key]*entry{}
	}
	return c
}

// shardFor hashes the tile's identity (video, sot, tile) but not its
// generation fields, so a re-decode after invalidation lands in the same
// shard as its predecessor and the replaced entry's budget is reclaimed
// there first. Note that a SOT's tiles still spread across shards, which
// is why sweep() must visit every shard.
func (c *Cache) shardFor(k Key) *shard {
	var h maphash.Hash
	h.SetSeed(c.seed)
	h.WriteString(k.Video)
	h.WriteByte(0)
	writeInt(&h, uint64(k.SOT))
	writeInt(&h, uint64(k.Tile))
	return &c.shards[h.Sum64()&(numShards-1)]
}

func writeInt(h *maphash.Hash, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	h.Write(b[:])
}

// Gen returns the current generation for (video, sot): the video's delete
// epoch in the high bits and the SOT's invalidation counter in the low
// bits. Capture it before reading the tile from disk so a concurrent
// re-tile or delete invalidates the in-flight decode rather than letting
// it poison the cache.
func (c *Cache) Gen(video string, sot int) uint64 {
	if c == nil {
		return 0
	}
	c.genMu.Lock()
	defer c.genMu.Unlock()
	return c.epochs[video]<<32 | c.gens[video][sot]&0xffffffff
}

// Get returns the first n decoded frames of the keyed tile if a prefix of
// at least that length is cached. The returned frames are shared and must
// be treated as immutable.
func (c *Cache) Get(k Key, n int) ([]*frame.Frame, bool) {
	if c == nil {
		return nil, false
	}
	frames, ok := c.Peek(k, n)
	if ok {
		c.hits.Add(1)
	} else {
		c.misses.Add(1)
	}
	return frames, ok
}

// Peek is Get without the hit/miss accounting, for a caller looking again
// at a key whose miss it has already counted.
func (c *Cache) Peek(k Key, n int) ([]*frame.Frame, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.items[k]
	if !ok || len(e.frames) < n {
		return nil, false
	}
	e.use = c.clock.Add(1)
	s.moveToFront(e)
	return e.frames[:n:n], true
}

// Put stores the decoded prefix for a key, replacing any shorter cached
// prefix, and returns how many entries were evicted to fit it. Only a
// value larger than the entire cache budget is rejected; a value that
// dominates its own shard evicts LRU tails from other shards instead of
// being dropped.
func (c *Cache) Put(k Key, frames []*frame.Frame) (evicted int) {
	if c == nil || len(frames) == 0 {
		return 0
	}
	var bytes int64
	for _, f := range frames {
		bytes += frameBytes(f)
	}
	if bytes > c.budget {
		return 0
	}
	s := c.shardFor(k)
	s.mu.Lock()
	if e, ok := s.items[k]; ok {
		if len(e.frames) >= len(frames) {
			e.use = c.clock.Add(1)
			s.moveToFront(e)
			s.mu.Unlock()
			return 0
		}
		c.bytes.Add(bytes - e.bytes)
		e.frames, e.bytes = frames, bytes
		e.use = c.clock.Add(1)
		s.moveToFront(e)
	} else {
		e = &entry{key: k, frames: frames, bytes: bytes, use: c.clock.Add(1)}
		s.items[k] = e
		c.bytes.Add(bytes)
		s.pushFront(e)
	}
	// Evict from this shard first (its lock is already held), never the
	// entry just inserted.
	evicted += c.evictShardLocked(s, k)
	s.mu.Unlock()
	if c.bytes.Load() > c.budget {
		evicted += c.evictAcrossShards(k)
	}
	c.evictions.Add(int64(evicted))
	return evicted
}

// evictShardLocked drops entries from the shard's LRU tail (skipping keep)
// until the cache is within budget or the shard has no victim left. The
// shard lock must be held.
func (c *Cache) evictShardLocked(s *shard, keep Key) (evicted int) {
	e := s.tail
	for c.bytes.Load() > c.budget && e != nil {
		prev := e.prev
		if e.key != keep {
			c.bytes.Add(-e.bytes)
			s.remove(e)
			evicted++
		}
		e = prev
	}
	return evicted
}

// evictAcrossShards drops the globally least-recently-used entry other
// than keep until the cache is within budget or no victim remains. Each
// round scans every shard's tail for its oldest eligible entry, picks the
// one with the smallest use-clock reading, then re-locks that shard to
// evict. Locks are taken one shard at a time, so concurrent Puts may
// interleave; the re-locked eviction is best-effort — it takes the
// shard's current oldest eligible entry, which a race may have changed —
// and the loop terminates once a round finds no victim anywhere.
func (c *Cache) evictAcrossShards(keep Key) (evicted int) {
	for c.bytes.Load() > c.budget {
		victimShard := -1
		var victimUse uint64
		for i := range c.shards {
			s := &c.shards[i]
			s.mu.Lock()
			for e := s.tail; e != nil; e = e.prev {
				if e.key != keep {
					if victimShard < 0 || e.use < victimUse {
						victimShard, victimUse = i, e.use
					}
					break
				}
			}
			s.mu.Unlock()
		}
		if victimShard < 0 {
			return evicted
		}
		s := &c.shards[victimShard]
		s.mu.Lock()
		for e := s.tail; e != nil; e = e.prev {
			if e.key != keep {
				c.bytes.Add(-e.bytes)
				s.remove(e)
				evicted++
				break
			}
		}
		s.mu.Unlock()
	}
	return evicted
}

// InvalidateSOT bumps the SOT's generation and frees every cached entry
// for it (any generation). Decodes of the old layout that are still in
// flight will Put under the old generation and stay unreachable.
func (c *Cache) InvalidateSOT(video string, sot int) {
	if c == nil {
		return
	}
	c.genMu.Lock()
	m := c.gens[video]
	if m == nil {
		m = map[int]uint64{}
		c.gens[video] = m
	}
	m[sot]++
	c.genMu.Unlock()
	c.sweep(func(k Key) bool { return k.Video == video && k.SOT == sot })
}

// InvalidateVideo drops every cached entry for a video and advances its
// epoch (e.g. after DeleteVideo). The epoch is monotonic, so a video later
// re-created under the same name can never hit an in-flight decode of the
// deleted one.
func (c *Cache) InvalidateVideo(video string) {
	if c == nil {
		return
	}
	c.genMu.Lock()
	c.epochs[video]++
	delete(c.gens, video)
	c.genMu.Unlock()
	c.sweep(func(k Key) bool { return k.Video == video })
}

func (c *Cache) sweep(match func(Key) bool) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.items {
			if match(k) {
				c.bytes.Add(-e.bytes)
				s.remove(e)
				c.invalidations.Add(1)
			}
		}
		s.mu.Unlock()
	}
}

// Stats snapshots the global counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits:          c.hits.Load(),
		Misses:        c.misses.Load(),
		Evictions:     c.evictions.Load(),
		Invalidations: c.invalidations.Load(),
		BytesCached:   c.bytes.Load(),
		Budget:        c.budget,
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Entries += len(s.items)
		s.mu.Unlock()
	}
	return st
}

// frameBytes is the memory footprint of one decoded 4:2:0 frame.
func frameBytes(f *frame.Frame) int64 {
	return int64(len(f.Y) + len(f.Cb) + len(f.Cr))
}

// --- intrusive LRU list (shard lock held) ---

func (s *shard) pushFront(e *entry) {
	e.prev, e.next = nil, s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

func (s *shard) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (s *shard) moveToFront(e *entry) {
	if s.head == e {
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// remove unlinks and deletes an entry; the caller adjusts the cache-level
// byte counter.
func (s *shard) remove(e *entry) {
	s.unlink(e)
	delete(s.items, e.key)
}
