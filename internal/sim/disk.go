// Package sim implements the simulated disk that underlies every access
// method in this reproduction.
//
// The paper's experiments are disk-bound on a 7200rpm SATA drive and its
// analytical methodology (Table 1, Table 3) converts page-access patterns
// into elapsed time using two measured constants:
//
//	seek_cost     = 5.5 ms   time to seek to a random page and read it
//	seq_page_cost = 0.078 ms time to read one page sequentially
//
// sim.Disk stores pages in memory, classifies each access as sequential or
// random by comparing it with the recently active access streams (the
// read-ahead contexts a drive or OS keeps alive — see Disk), and
// accumulates a virtual elapsed time from the same constants. The store
// lends its pages rather than copying them: AllocPage and a read return
// the stored bytes, and every writer — a buffer pool frame, the
// write-ahead log's tail, a B+Tree build's open nodes — writes in them in
// place, so every page exists once in memory and a write is only the
// charge that makes bytes already in the store durable. Shrink gives a
// file's last pages back, and AllocPage hands their numbers out again.
// Every "Elapsed [s]" number in our experiment output is this virtual,
// disk-bound time, so result shapes are independent of host hardware and
// dataset scale.
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// Default hardware parameters, matching Table 1 of the paper.
const (
	DefaultPageSize    = 8192
	DefaultSeekCost    = 5500 * time.Microsecond
	DefaultSeqPageCost = 78 * time.Microsecond
)

// Config holds the simulated hardware parameters.
type Config struct {
	PageSize    int           // bytes per page
	SeekCost    time.Duration // random page access (seek + read)
	SeqPageCost time.Duration // sequential page read/write
	// RealWaitScale, when positive, makes every access also block the
	// calling goroutine for its virtual cost divided by this factor
	// (RealWaitScale 10 turns a 5.5 ms seek into a 0.55 ms sleep). The
	// wait happens after the disk mutex is released, so independent
	// accesses from concurrent scan workers overlap their waits the way
	// requests overlap on hardware with internal parallelism (command
	// queueing, SSD channels, disk arrays). Zero (the default) disables
	// real waits: accesses only advance the virtual clock. The virtual
	// clock itself remains a single serial time line either way.
	RealWaitScale int
}

// DefaultConfig returns the paper's measured hardware parameters.
func DefaultConfig() Config {
	return Config{
		PageSize:    DefaultPageSize,
		SeekCost:    DefaultSeekCost,
		SeqPageCost: DefaultSeqPageCost,
	}
}

// FileID names a file (segment) on the simulated disk.
type FileID uint32

// ErrInjected is the sentinel under every fault the disk injects from a
// FaultPlan. Error paths match it with errors.Is to distinguish an
// injected (or real) device fault from logic errors like out-of-range
// page numbers.
var ErrInjected = errors.New("sim: injected disk fault")

// FaultPlan describes deterministic fault injection for chaos testing.
// All trigger fields compose: an access fails when any armed trigger
// matches, and the page-range gate (when set) restricts every trigger.
// Counters are relative to SetFaultPlan, so re-installing a plan replays
// the same fault sequence — runs are reproducible by construction, and
// the probabilistic trigger draws from a stream seeded by Seed.
type FaultPlan struct {
	// FailReadN fails the Nth page read (1-based) exactly once.
	FailReadN int64
	// FailWriteN fails the Nth page write (1-based) exactly once.
	FailWriteN int64
	// EveryKth fails every Kth access (reads and writes pooled).
	EveryKth int64
	// PageLo/PageHi, when PageHi > 0, gate every trigger to accesses of
	// pages in [PageLo, PageHi].
	PageLo, PageHi int64
	// ReadProb fails each read independently with this probability,
	// drawn from a deterministic stream seeded by Seed.
	ReadProb float64
	// Seed seeds the ReadProb stream (0 behaves as an arbitrary fixed
	// seed; equal seeds give equal fault sequences).
	Seed int64
}

// armed reports whether the plan can trigger at all.
func (fp FaultPlan) armed() bool {
	return fp.FailReadN > 0 || fp.FailWriteN > 0 || fp.EveryKth > 0 || fp.ReadProb > 0
}

// Stats aggregates I/O counters and the virtual clock. Every field is
// maintained and snapshotted under the one disk mutex, so a Stats read
// mid-query is internally consistent — the read-ahead stream counters
// can never be torn against the page counters.
type Stats struct {
	Reads      uint64 // total page reads
	Writes     uint64 // total page writes
	SeqReads   uint64 // reads classified sequential
	RandReads  uint64 // reads classified random (seeks)
	SeqWrites  uint64
	RandWrites uint64
	Syncs      uint64        // fsync-style barriers (each costs one seek)
	Elapsed    time.Duration // accumulated virtual time

	// Read-ahead stream accounting: StreamStarts counts streams opened
	// by a seek, StreamEvictions counts live streams dropped to make
	// room at the maxStreams cap, and ActiveStreams is the number of
	// live read-ahead contexts at snapshot time. Stream continuations
	// are exactly SeqReads + SeqWrites.
	StreamStarts    uint64
	StreamEvictions uint64
	ActiveStreams   int

	// IOWait is the cumulative real sleep time paid in RealWaitScale
	// mode (zero when real waits are disabled).
	IOWait time.Duration

	// InjectedFaults counts accesses failed by the installed FaultPlan.
	InjectedFaults uint64
}

// Seeks returns the total number of random accesses including syncs.
func (s Stats) Seeks() uint64 { return s.RandReads + s.RandWrites + s.Syncs }

// Disk is an in-memory page store with mechanical-disk cost accounting.
// It is safe for concurrent use: a single mutex serializes every access,
// modeling the one spindle the cost constants describe — concurrent
// requests queue at the disk exactly as they would at real hardware.
//
// Sequential classification tracks up to maxStreams recent access
// streams, not just one head position: drives and operating systems keep
// several read-ahead contexts alive (NCQ, per-file read-ahead), so a
// scan interleaved with another scan — or with WAL appends — still reads
// sequentially within each stream. This is what lets the parallel
// executor's chunked sweeps stay sequential instead of charging a full
// seek per page once two workers interleave. A single monotonically
// advancing scan classifies exactly as the old single-head model did;
// serial patterns that alternate between streams (a sweep interleaved
// with log appends, runs resumed after a gap) now classify sequential
// where the single head charged seeks — intended, since real read-ahead
// absorbs exactly those patterns.
type Disk struct {
	cfg Config

	mu    sync.Mutex
	files [][][]byte

	// streams holds the next expected page of each live access stream,
	// most recently used first.
	streams []stream

	stats Stats

	// Fault injection (all under mu): the installed plan, the access
	// counters it triggers on (relative to SetFaultPlan, so reinstalling
	// a plan replays its fault sequence) and the seeded stream behind the
	// probabilistic trigger.
	fp          *FaultPlan
	faultReads  int64
	faultWrites int64
	faultAccs   int64
	faultRng    *rand.Rand

	// owed pools un-slept real-wait time (RealWaitScale mode). Host
	// sleep granularity is ~1 ms, far above a scaled sequential page
	// read, so waits accumulate here and are paid in chunks: totals are
	// preserved, and concurrent accessors still overlap their sleeps.
	owed atomic.Int64

	// slept accumulates real wait time actually paid, surfaced as
	// Stats.IOWait. Updated outside the mutex (sleeps must overlap),
	// read atomically by Stats.
	slept atomic.Int64
}

// stream is one sequential access context: the page an access must
// touch to continue the stream.
type stream struct {
	file FileID
	next int64
}

// maxStreams bounds the live read-ahead contexts. It must comfortably
// exceed the scan fan-out (Config.Workers defaults to GOMAXPROCS) plus
// log/index traffic, or concurrent chunk sweeps LRU-thrash the table
// and every access charges a seek; hits move to the front, so the
// linear probe stays short for the hot streams even at this size.
const maxStreams = 64

// waitChunk is the minimum real wait paid at once, chosen above typical
// host sleep granularity so chunked sleeps stay accurate.
const waitChunk = 2 * time.Millisecond

// NewDisk creates a disk with the given configuration. Zero fields fall
// back to the defaults.
func NewDisk(cfg Config) *Disk {
	if cfg.PageSize <= 0 {
		cfg.PageSize = DefaultPageSize
	}
	if cfg.SeekCost <= 0 {
		cfg.SeekCost = DefaultSeekCost
	}
	if cfg.SeqPageCost <= 0 {
		cfg.SeqPageCost = DefaultSeqPageCost
	}
	return &Disk{cfg: cfg}
}

// Config returns the disk's configuration.
func (d *Disk) Config() Config { return d.cfg }

// PageSize returns the configured page size in bytes.
func (d *Disk) PageSize() int { return d.cfg.PageSize }

// CreateFile allocates a new empty file and returns its ID.
func (d *Disk) CreateFile() FileID {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.files = append(d.files, nil)
	return FileID(len(d.files) - 1)
}

// NumPages returns the number of pages in the file.
func (d *Disk) NumPages(f FileID) int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return int64(len(d.files[f]))
}

// AllocPage appends a zeroed page to the file and returns its page
// number and its bytes, lent as ReadPageDeferWait lends them.
// Allocation itself is free; the subsequent write pays the I/O cost.
func (d *Disk) AllocPage(f FileID) (int64, []byte) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pg := make([]byte, d.cfg.PageSize)
	d.files[f] = append(d.files[f], pg)
	return int64(len(d.files[f]) - 1), pg
}

// Shrink drops the file's pages from page number pages on, with their
// bytes; a file no longer than that is left as it is. A dropped page is
// out of range for reads and writes, and AllocPage hands its number out
// again, zeroed. It costs no I/O. The caller owns the file's tail: no
// other writer may allocate in it meanwhile, and no buffer pool frame
// may hold a dropped page.
func (d *Disk) Shrink(f FileID, pages int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	fs := d.files[f]
	if pages >= int64(len(fs)) {
		return
	}
	clear(fs[pages:]) // the backing array must not keep the bytes alive
	d.files[f] = fs[:pages]
}

// StoreBytes returns the bytes of every page the disk holds.
func (d *Disk) StoreBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	pages := 0
	for _, fs := range d.files {
		pages += len(fs)
	}
	return int64(pages) * int64(d.cfg.PageSize)
}

// SetFaultPlan installs (or, with nil, removes) a fault-injection plan.
// Installation resets the plan's access counters and reseeds its
// probability stream, so the same plan on the same workload injects the
// same faults. Stats.InjectedFaults keeps accumulating across plans.
func (d *Disk) SetFaultPlan(fp *FaultPlan) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if fp != nil && !fp.armed() {
		fp = nil
	}
	d.fp = fp
	d.faultReads, d.faultWrites, d.faultAccs = 0, 0, 0
	d.faultRng = nil
	if fp != nil && fp.ReadProb > 0 {
		d.faultRng = rand.New(rand.NewSource(fp.Seed))
	}
}

// injectFault consults the installed FaultPlan for an access of page p
// and returns the injected error when a trigger fires. Called with the
// disk mutex held, before the access is charged or applied — an
// injected fault costs nothing and moves no data, like a request the
// device rejected.
func (d *Disk) injectFault(f FileID, p int64, write bool) error {
	fp := d.fp
	if fp == nil {
		return nil
	}
	d.faultAccs++
	if write {
		d.faultWrites++
	} else {
		d.faultReads++
	}
	if fp.PageHi > 0 && (p < fp.PageLo || p > fp.PageHi) {
		return nil
	}
	fire := false
	switch {
	case !write && fp.FailReadN > 0 && d.faultReads == fp.FailReadN:
		fire = true
	case write && fp.FailWriteN > 0 && d.faultWrites == fp.FailWriteN:
		fire = true
	case fp.EveryKth > 0 && d.faultAccs%fp.EveryKth == 0:
		fire = true
	case !write && d.faultRng != nil && d.faultRng.Float64() < fp.ReadProb:
		fire = true
	}
	if !fire {
		return nil
	}
	d.stats.InjectedFaults++
	op := "read"
	if write {
		op = "write"
	}
	return fmt.Errorf("sim: %s of file %d page %d: %w", op, f, p, ErrInjected)
}

func (d *Disk) page(f FileID, p int64) ([]byte, error) {
	if int(f) >= len(d.files) {
		return nil, fmt.Errorf("sim: no such file %d", f)
	}
	pages := d.files[f]
	if p < 0 || p >= int64(len(pages)) {
		return nil, fmt.Errorf("sim: file %d has no page %d (size %d)", f, p, len(pages))
	}
	return pages[p], nil
}

// charge classifies an access at (f, p) against the live streams,
// advances the virtual clock and returns the virtual cost of the access.
func (d *Disk) charge(f FileID, p int64, write bool) time.Duration {
	seq := false
	for i := range d.streams {
		if d.streams[i].file == f && d.streams[i].next == p {
			seq = true
			d.streams[i].next = p + 1
			// Move to front: the LRU slot is the replacement victim.
			s := d.streams[i]
			copy(d.streams[1:i+1], d.streams[:i])
			d.streams[0] = s
			break
		}
	}
	if !seq {
		// A seek starts (or restarts) a stream at the new position.
		if len(d.streams) < maxStreams {
			d.streams = append(d.streams, stream{})
		} else {
			d.stats.StreamEvictions++
		}
		copy(d.streams[1:], d.streams)
		d.streams[0] = stream{file: f, next: p + 1}
		d.stats.StreamStarts++
	}
	var cost time.Duration
	if seq {
		cost = d.cfg.SeqPageCost
		if write {
			d.stats.SeqWrites++
		} else {
			d.stats.SeqReads++
		}
	} else {
		cost = d.cfg.SeekCost
		if write {
			d.stats.RandWrites++
		} else {
			d.stats.RandReads++
		}
	}
	d.stats.Elapsed += cost
	if write {
		d.stats.Writes++
	} else {
		d.stats.Reads++
	}
	return cost
}

// wait blocks for the access's scaled real-time cost when the disk is
// configured with RealWaitScale. Called without the mutex held so
// concurrent accesses overlap their waits. Sub-chunk costs pool in owed
// and the accessor that pushes the pool past waitChunk sleeps it off.
func (d *Disk) wait(cost time.Duration) {
	if d.cfg.RealWaitScale <= 0 {
		return
	}
	real := cost / time.Duration(d.cfg.RealWaitScale)
	owed := d.owed.Add(int64(real))
	if owed < int64(waitChunk) {
		return
	}
	// Claim the whole pool; on a lost race the racing accessor observed
	// an even larger pool and claims it instead.
	if d.owed.CompareAndSwap(owed, 0) {
		time.Sleep(time.Duration(owed))
		d.slept.Add(owed)
	}
}

// ReadPageDeferWait charges a read of page p of file f and lends the
// page: it returns the store's own bytes, not a copy, so a caller that
// mutates them mutates the stored page. The buffer pool's frames hold
// these bytes, which is why a cached page costs no second buffer. It
// does not wait: it returns the access's virtual cost for the caller to
// pay with PayWait once it has released its own locks (the buffer pool
// holds a shard lock across the read, and sleeping inside it would
// convoy unrelated accessors).
func (d *Disk) ReadPageDeferWait(f FileID, p int64) ([]byte, time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	pg, err := d.page(f, p)
	if err != nil {
		return nil, 0, err
	}
	if err := d.injectFault(f, p, false); err != nil {
		return nil, 0, err
	}
	return pg, d.charge(f, p, false), nil
}

// WritePageDeferWait charges a write of page p of file f, returning the
// access's cost for PayWait; see ReadPageDeferWait. It takes no bytes:
// the writer wrote in the page the store lent, so the bytes are in place
// and the write is only the charge.
func (d *Disk) WritePageDeferWait(f FileID, p int64) (time.Duration, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.page(f, p); err != nil {
		return 0, err
	}
	if err := d.injectFault(f, p, true); err != nil {
		return 0, err
	}
	return d.charge(f, p, true), nil
}

// PayWait blocks for a previously deferred access cost. A zero cost is
// free.
func (d *Disk) PayWait(cost time.Duration) {
	if cost > 0 {
		d.wait(cost)
	}
}

// SyncDeferWait models an fsync barrier, one random access, and returns
// its cost for PayWait; see ReadPageDeferWait.
func (d *Disk) SyncDeferWait() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats.Syncs++
	d.stats.Elapsed += d.cfg.SeekCost
	d.streams = d.streams[:0] // head position is unknown after a barrier
	return d.cfg.SeekCost
}

// Stats returns a snapshot of the counters. The page and stream
// counters are captured under one mutex hold, so they are mutually
// consistent even while a query is mid-flight.
func (d *Disk) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.stats
	s.ActiveStreams = len(d.streams)
	s.IOWait = time.Duration(d.slept.Load())
	return s
}

// Elapsed returns the accumulated virtual time.
func (d *Disk) Elapsed() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats.Elapsed
}

// ResetStats zeroes the counters and the virtual clock. The head position
// is also forgotten so the first access after a reset is a seek, matching
// the paper's cold-cache methodology. The stream counters, the pooled
// real-wait debt and the paid-wait total reset in the same critical
// section as the page counters, so a concurrent Stats snapshot sees
// either the old epoch or the new one — never a mix.
func (d *Disk) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
	d.streams = d.streams[:0]
	d.owed.Store(0)
	d.slept.Store(0)
}
