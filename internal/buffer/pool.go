// Package buffer implements a bounded buffer pool over the simulated
// disk with clock-sweep eviction and dirty-page write-back.
//
// The buffer pool is central to the paper's Experiment 3: maintaining many
// secondary B+Trees floods the pool with dirty pages, forcing evictions
// and random write-back I/O, while correlation maps are small enough to
// live outside the pool entirely. The pool therefore tracks hits, misses,
// evictions and dirty write-backs so experiments can report them.
//
// A dirty page normally reaches disk when the clock evicts it, in each
// shard's own order. WriteBack lets a writer that is done with a page
// write it now instead: a bulk load writes each heap page as it leaves
// it, so the heap goes to disk as one sequential stream and the clock
// later evicts clean pages. It changes no hit, miss or eviction.
//
// The pool owns no page memory. A miss points the frame at the page the
// simulated disk lends (sim.Disk.ReadPageDeferWait), and NewPage at the
// page the disk allocates, so a cached page exists once, in the disk's
// store. A writer's bytes are therefore in the store as it writes them;
// what the pool keeps is residency, pins, the clock and which pages are
// dirty, and a write-back charges the write that makes the bytes
// durable. Capacity bounds residency and costs only the frame table.
//
// The pool is safe for concurrent use. Frames are partitioned into shards
// (pages hash to a shard by identity), each with its own lock, frame
// table and clock hand, so parallel scan workers and concurrent queries
// contend only when they touch the same shard. Small pools collapse to a
// single shard and behave exactly like the classic one-clock pool.
package buffer

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/sim"
)

// PageKey identifies a page on the simulated disk.
type PageKey struct {
	File sim.FileID
	Page int64
}

// packed is the key as one word, which is how the shards' page tables
// are keyed: a map with uint64 keys takes Go's fast 64-bit path, where a
// struct key goes through the generic hasher. The file takes the top 24
// bits and the page the low 40, far more pages than a simulated disk
// holds.
func (k PageKey) packed() uint64 { return uint64(k.File)<<40 | uint64(k.Page) }

// Stats aggregates buffer pool counters. Every counter lives in this
// struct — per shard, reset by one zero-assignment in ResetStats — so
// counters added later are covered by reset automatically (a
// regression test asserts this by reflection).
type Stats struct {
	Hits        uint64
	Misses      uint64
	Evictions   uint64
	DirtyWrites uint64 // evictions (or flushes) that wrote a dirty page
}

// Frame is a pinned page in the pool. Data is the disk store's page
// itself, not a copy: callers mutate it in place and must Unpin (marking
// dirty when modified) when done, since a change is in the store at once
// but its write is charged only when the page is written back. Frame
// contents may be read concurrently by multiple pinners; mutation
// requires external write serialization (the table-level write lock in
// this engine).
type Frame struct {
	Data []byte // the store's page, lent by the disk; use it only while pinned

	key   PageKey
	pin   int
	dirty bool
	ref   bool // clock reference bit
	used  bool
}

// Sharding parameters: shards hold at least minShardFrames frames so tiny
// pools (unit tests, height-bounded trees) keep one deterministic clock,
// and at most maxShards so shard state stays cache-friendly.
const (
	minShardFrames = 64
	maxShards      = 16
)

// shard is one lock domain: a slice of frames with its own page table and
// clock hand.
type shard struct {
	mu     sync.Mutex
	frames []Frame
	table  map[uint64]int // PageKey.packed → frame
	hand   int
	stats  Stats
}

// Pool is a sharded clock-sweep buffer pool, safe for concurrent use.
type Pool struct {
	disk   *sim.Disk
	shards []shard
}

// NewPool creates a pool of at most capacity pages over disk. Only the
// frame table is allocated: a frame's bytes are the page the disk lends.
func NewPool(disk *sim.Disk, capacity int) *Pool {
	capacity = max(capacity, 1)
	n := min(max(capacity/minShardFrames, 1), maxShards)
	p := &Pool{disk: disk, shards: make([]shard, n)}
	base, extra := capacity/n, capacity%n
	for i := range p.shards {
		sz := base
		if i < extra {
			sz++
		}
		sh := &p.shards[i]
		sh.frames = make([]Frame, sz)
		sh.table = make(map[uint64]int, sz)
	}
	return p
}

// shardFor maps a page identity to its shard.
func (p *Pool) shardFor(key PageKey) *shard {
	h := (uint64(key.File) + 1) * 0x9E3779B97F4A7C15
	h ^= uint64(key.Page) * 0xBF58476D1CE4E5B9
	h ^= h >> 29
	return &p.shards[h%uint64(len(p.shards))]
}

// Disk returns the underlying simulated disk.
func (p *Pool) Disk() *sim.Disk { return p.disk }

// Shards returns the number of lock domains the frames are split into.
func (p *Pool) Shards() int { return len(p.shards) }

// Stats returns a snapshot of the counters, aggregated over shards.
func (p *Pool) Stats() Stats {
	var out Stats
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out.Hits += sh.stats.Hits
		out.Misses += sh.stats.Misses
		out.Evictions += sh.stats.Evictions
		out.DirtyWrites += sh.stats.DirtyWrites
		sh.mu.Unlock()
	}
	return out
}

// ShardStats returns one counter snapshot per shard, in shard order.
// The metrics registry publishes these so per-shard skew (one hot
// shard thrashing while the others idle) is visible in SHOW METRICS.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		out[i] = sh.stats
		sh.mu.Unlock()
	}
	return out
}

// ResetStats zeroes the counters (page contents are unaffected).
func (p *Pool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.stats = Stats{}
		sh.mu.Unlock()
	}
}

// victim advances the shard's clock to the next evictable frame — an
// unused slot or an unpinned frame whose reference bit has expired —
// and evicts it, writing back dirty contents and dropping its page-table
// entry. It returns the frame index and the deferred real-wait cost of
// any write-back, or an error if every frame is pinned or the write-back
// fails; the disk charges a failed write nothing, so an error costs no
// wait. Called with the shard lock held.
func (sh *shard) victim(disk *sim.Disk) (int, time.Duration, error) {
	for range 2 * len(sh.frames) {
		i := sh.hand
		sh.hand = (sh.hand + 1) % len(sh.frames)
		fr := &sh.frames[i]
		if !fr.used {
			return i, 0, nil
		}
		if fr.pin > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		var owed time.Duration
		if fr.dirty {
			var err error
			if owed, err = sh.write(disk, fr); err != nil {
				return i, owed, err
			}
		}
		delete(sh.table, fr.key.packed())
		sh.stats.Evictions++
		fr.used = false
		return i, owed, nil
	}
	return 0, 0, fmt.Errorf("buffer: all %d frames of shard pinned", len(sh.frames))
}

// write charges the disk write of the frame's dirty page (its bytes are
// the store's already, so nothing is copied), counts it in DirtyWrites
// and marks the frame clean; on an error the frame stays dirty. It
// returns the deferred real-wait cost. Called with the shard lock held.
func (sh *shard) write(disk *sim.Disk, fr *Frame) (time.Duration, error) {
	cost, err := disk.WritePageDeferWait(fr.key.File, fr.key.Page)
	if err != nil {
		return cost, err
	}
	sh.stats.DirtyWrites++
	fr.dirty = false
	return cost, nil
}

// Get pins the page into the pool, reading it from disk on a miss. The
// shard lock is held across the disk read so concurrent requests for the
// same missing page load it exactly once; the real I/O wait (when the
// disk runs with RealWaitScale) is paid after the lock is released so
// waiting does not convoy other pages of the shard.
func (p *Pool) Get(file sim.FileID, page int64) (*Frame, error) {
	key := PageKey{file, page}
	sh := p.shardFor(key)
	sh.mu.Lock()
	if i, ok := sh.table[key.packed()]; ok {
		fr := &sh.frames[i]
		fr.pin++
		fr.ref = true
		sh.stats.Hits++
		sh.mu.Unlock()
		return fr, nil
	}
	sh.stats.Misses++
	i, owed, err := sh.victim(p.disk)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	data, cost, err := p.disk.ReadPageDeferWait(file, page)
	owed += cost
	if err != nil {
		sh.mu.Unlock()
		p.disk.PayWait(owed)
		return nil, err
	}
	fr := &sh.frames[i]
	fr.Data = data
	fr.key = key
	fr.pin = 1 // a free frame is clean: the clock writes a dirty page before it frees its frame
	fr.ref = true
	fr.used = true
	sh.table[key.packed()] = i
	sh.mu.Unlock()
	p.disk.PayWait(owed)
	return fr, nil
}

// Resident reports whether the page is cached right now. It is a hint
// for callers deciding how to read a page set, not a reservation: the
// answer can be stale the moment the shard lock is released. It takes
// that lock and looks the page up — nothing else: no pin, no hit or miss
// count, no clock reference bit — so asking
// changes neither Stats nor what the pool evicts next.
func (p *Pool) Resident(file sim.FileID, page int64) bool {
	key := PageKey{file, page}
	sh := p.shardFor(key)
	sh.mu.Lock()
	_, ok := sh.table[key.packed()]
	sh.mu.Unlock()
	return ok
}

// NewPage allocates a fresh page in the file and pins a frame holding
// it, zeroed, without any read I/O. Its write is charged when it is
// evicted or flushed. When no frame can be had (the victim's write-back
// fails, or every frame is pinned), the page is given back to the disk,
// so the file's next page is the number the next NewPage returns. The
// caller owns the file's tail, as sim.Disk.Shrink requires.
func (p *Pool) NewPage(file sim.FileID) (int64, *Frame, error) {
	page, data := p.disk.AllocPage(file)
	key := PageKey{file, page}
	sh := p.shardFor(key)
	sh.mu.Lock()
	i, owed, err := sh.victim(p.disk)
	if err != nil {
		sh.mu.Unlock()
		p.disk.Shrink(file, page)
		return 0, nil, err
	}
	fr := &sh.frames[i]
	fr.Data = data
	fr.key = key
	fr.pin = 1
	fr.dirty = true // a new page must eventually be written
	fr.ref = true
	fr.used = true
	sh.table[key.packed()] = i
	sh.mu.Unlock()
	p.disk.PayWait(owed)
	return page, fr, nil
}

// Unpin releases a pin, marking the frame dirty when the caller modified it.
func (p *Pool) Unpin(fr *Frame, dirty bool) {
	// fr.key is stable while the caller holds its pin.
	sh := p.shardFor(fr.key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if fr.pin <= 0 {
		panic("buffer: unpin of unpinned frame")
	}
	fr.pin--
	if dirty {
		fr.dirty = true
	}
}

// WriteBack writes the page to disk now when it is resident and dirty,
// and leaves it cached and clean, so evicting it later costs no write. A
// writer that is done with a page calls it to put its pages on disk in
// the order it finished them, instead of the order each shard's clock
// happens to evict them. A clean or absent page costs no I/O. The write
// counts in DirtyWrites; its real wait is paid after the shard lock is
// released, as Get's is. On a write error the frame stays dirty. Nothing
// may mutate the page during the call (callers hold the table latch).
func (p *Pool) WriteBack(file sim.FileID, page int64) error {
	key := PageKey{file, page}
	sh := p.shardFor(key)
	sh.mu.Lock()
	i, ok := sh.table[key.packed()]
	if !ok || !sh.frames[i].dirty {
		sh.mu.Unlock()
		return nil
	}
	cost, err := sh.write(p.disk, &sh.frames[i])
	sh.mu.Unlock()
	p.disk.PayWait(cost)
	return err
}

// Discard drops the page from the pool without writing it when it is
// resident and unpinned, dirty or not: a writer that gives a page back to
// the disk (sim.Disk.Shrink) discards it first. A pinned or absent page is
// left alone.
func (p *Pool) Discard(file sim.FileID, page int64) {
	key := PageKey{file, page}
	sh := p.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if i, ok := sh.table[key.packed()]; ok && sh.frames[i].pin == 0 {
		delete(sh.table, key.packed())
		sh.frames[i] = Frame{}
	}
}

// FlushAll writes every dirty page back to disk. Pages stay cached.
func (p *Pool) FlushAll() error {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		var owed time.Duration
		for i := range sh.frames {
			fr := &sh.frames[i]
			if fr.used && fr.dirty {
				cost, err := sh.write(p.disk, fr)
				owed += cost
				if err != nil {
					sh.mu.Unlock()
					p.disk.PayWait(owed)
					return err
				}
			}
		}
		sh.mu.Unlock()
		p.disk.PayWait(owed)
	}
	return nil
}

// Invalidate drops every cached page. It models the paper's cold-cache
// methodology (dropping OS caches between runs). Callers must FlushAll
// first and ensure no frames are pinned (no queries in flight): it
// panics on a pinned frame and on a dirty one, whose bytes are already
// in the store but whose write would never be charged.
func (p *Pool) Invalidate() {
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			fr := &sh.frames[i]
			switch {
			case fr.pin > 0:
				sh.mu.Unlock()
				panic("buffer: invalidate with pinned frames")
			case fr.used && fr.dirty:
				sh.mu.Unlock()
				panic("buffer: invalidate with dirty frames; FlushAll first")
			}
		}
		for i := range sh.frames {
			sh.frames[i].used = false
		}
		clear(sh.table)
		sh.mu.Unlock()
	}
}

// PinnedFrames returns the number of frames with a nonzero pin count.
// Error-path tests assert it returns to zero after a cancelled or
// fault-injected scan: a leaked pin would wedge eviction forever.
func (p *Pool) PinnedFrames() int {
	n := 0
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			if sh.frames[i].used && sh.frames[i].pin > 0 {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
