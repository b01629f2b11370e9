// Package wal implements a write-ahead log on the simulated disk.
//
// The paper's prototype keeps correlation maps in main memory and makes
// them as recoverable as a secondary B+Tree by logging every maintenance
// operation and flushing the log during two-phase commit with PostgreSQL
// (Section 7.1). This log reproduces that cost structure: appends fill
// sequential pages, and Flush writes the partial tail page and pays one
// fsync barrier (a seek).
//
// The log keeps no page image of its own. It appends into the tail page
// the simulated disk lends (sim.Disk.AllocPage), so a page write is only
// the charge for bytes already in the store, and an append that fails
// gives back the pages it opened (sim.Disk.Shrink) and restores its
// cursor, reading nothing.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// RecordType distinguishes logged operations.
type RecordType uint8

// Record types used by the engine.
const (
	RecInsert RecordType = iota + 1
	RecDelete
	RecCommit
	RecCheckpoint
)

// Record is one logged operation.
type Record struct {
	Type    RecordType
	Target  string // table or structure the record applies to
	Payload []byte
}

// Log is an append-only write-ahead log. Safe for concurrent use: one
// mutex serializes appends and flushes, since the log is shared by every
// table of a DB and writers on different tables may commit concurrently.
type Log struct {
	disk *sim.Disk
	file sim.FileID

	mu      sync.Mutex
	page    int64  // page currently being filled, -1 before first write
	tail    []byte // that page's bytes, lent by the disk
	used    int    // bytes of tail holding records
	length  int64  // total logged bytes (LSN of the end of log)
	flushed int64  // bytes durably on disk
	appends uint64
	flushes uint64
	// owed accumulates deferred real-wait disk cost incurred under mu;
	// the public entry points pay it after unlocking so a flushing
	// writer does not convoy appenders and stat readers.
	owed time.Duration

	// flushHist, when set, records each Flush barrier's wall time —
	// the engine's commit-latency histogram. Stored atomically so a
	// late SetFlushHistogram does not race in-flight flushes.
	flushHist atomic.Pointer[metrics.Histogram]
}

// SetFlushHistogram wires a histogram that records each Flush's wall
// time (commit latency, since every Commit ends in a Flush). A nil
// histogram disables recording.
func (l *Log) SetFlushHistogram(h *metrics.Histogram) {
	l.flushHist.Store(h)
}

// takeOwed drains the deferred wait. Called with mu held.
func (l *Log) takeOwed() time.Duration {
	owed := l.owed
	l.owed = 0
	return owed
}

// NewLog creates an empty log in a fresh file.
func NewLog(disk *sim.Disk) *Log {
	return &Log{
		disk: disk,
		file: disk.CreateFile(),
		page: -1,
	}
}

// Len returns the total number of bytes appended (the end-of-log LSN).
func (l *Log) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.length
}

// Appends returns the number of records appended.
func (l *Log) Appends() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appends
}

// Flushes returns the number of Flush barriers.
func (l *Log) Flushes() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushes
}

// Append adds records to the log. They become durable at the next
// Flush. Record framing: type byte, target length (u16), target,
// payload length (u32), payload. The frames' pieces are copied straight
// into the tail page, so an append allocates nothing.
//
// Append is atomic against disk faults: a failed page write rolls the
// log back to its pre-append state (length, page and cursor), so a later
// Append or Replay sees none of the records — not a torn one, and not
// the ones before it.
func (l *Log) Append(recs ...Record) error {
	for _, r := range recs {
		if len(r.Target) > 0xFFFF {
			return fmt.Errorf("wal: target name too long")
		}
	}
	l.mu.Lock()
	var err error
	// One mark brackets every record, whichever piece fails.
	mark := walMark{length: l.length, page: l.page, tail: l.tail, used: l.used}
	for _, r := range recs {
		if err = l.writeFrame(r); err != nil {
			l.rollback(mark)
			err = fmt.Errorf("wal: append: %w", err)
			break
		}
	}
	if err == nil {
		l.appends += uint64(len(recs))
	}
	owed := l.takeOwed()
	l.mu.Unlock()
	l.disk.PayWait(owed)
	return err
}

// writeFrame streams one record's pieces, in order, into the log.
func (l *Log) writeFrame(r Record) error {
	var head [3]byte
	head[0] = byte(r.Type)
	binary.LittleEndian.PutUint16(head[1:], uint16(len(r.Target)))
	var plen [4]byte
	binary.LittleEndian.PutUint32(plen[:], uint32(len(r.Payload)))
	if err := writeBytes(l, head[:]); err != nil {
		return err
	}
	if err := writeBytes(l, r.Target); err != nil {
		return err
	}
	if err := writeBytes(l, plen[:]); err != nil {
		return err
	}
	return writeBytes(l, r.Payload)
}

// walMark snapshots the append cursor for rollback.
type walMark struct {
	length int64
	page   int64
	tail   []byte
	used   int
}

// rollback restores the pre-append state after a failed writeFrame so
// the log stays replayable. The pages the failed append opened go back
// to the disk, so the file ends at the marked page again. That page's
// bytes past m.used are the torn record: the restored cursor masks them,
// and the next append overwrites them.
func (l *Log) rollback(m walMark) {
	l.length = m.length
	l.disk.Shrink(l.file, m.page+1)
	l.page, l.tail, l.used = m.page, m.tail, m.used
}

// writeBytes streams bytes, a slice or a string, across page
// boundaries, writing out full pages as they fill. Outside a call the
// cursor invariant holds: l.used < len(l.tail) (a full page is written
// and rotated past before returning), so Append's rollback only ever
// restores a partially filled tail.
func writeBytes[B []byte | string](l *Log, b B) error {
	for len(b) > 0 {
		if l.page < 0 {
			l.rotatePage()
		}
		n := copy(l.tail[l.used:], b)
		l.used += n
		l.length += int64(n)
		b = b[n:]
		if l.used == len(l.tail) {
			// Full page: write it immediately (sequential I/O) and
			// advance to the next page.
			if err := l.writeTail(); err != nil {
				return err
			}
			l.rotatePage()
		}
	}
	return nil
}

// rotatePage advances the cursor to a new page at the end of the file.
func (l *Log) rotatePage() {
	l.page, l.tail = l.disk.AllocPage(l.file)
	l.used = 0
}

// writeTail charges the write of the tail page, whose bytes are already
// in the store. The real wait is deferred into l.owed and paid outside
// the log mutex.
func (l *Log) writeTail() error {
	cost, err := l.disk.WritePageDeferWait(l.file, l.page)
	l.owed += cost
	if err != nil {
		return fmt.Errorf("tail write: %w", err)
	}
	return nil
}

// Flush makes every appended record durable: it writes the partial tail
// page and issues an fsync barrier. On error nothing is marked durable;
// a later Flush retries the tail's write.
func (l *Log) Flush() error {
	var start time.Time
	if l.flushHist.Load() != nil {
		start = time.Now()
	}
	l.mu.Lock()
	var err error
	if l.length > l.flushed {
		if l.page >= 0 && l.used > 0 {
			err = l.writeTail()
		}
		if err == nil {
			l.flushed = l.length
		}
	}
	if err == nil {
		l.owed += l.disk.SyncDeferWait()
		l.flushes++
	}
	owed := l.takeOwed()
	l.mu.Unlock()
	l.disk.PayWait(owed)
	if h := l.flushHist.Load(); h != nil && err == nil {
		h.ObserveSince(start)
	}
	if err != nil {
		err = fmt.Errorf("wal: flush: %w", err)
	}
	return err
}

// Replay decodes every record in order and passes it to fn, reading the
// log pages back from disk (charging recovery I/O). It stops early if fn
// returns false.
func (l *Log) Replay(fn func(Record) bool) error {
	return l.ReplayFrom(0, fn)
}

// ReplayFrom replays records starting at the given LSN, which must be a
// record boundary previously obtained from Len() (for example at a
// checkpoint). Only the pages holding the suffix are read back.
func (l *Log) ReplayFrom(lsn int64, fn func(Record) bool) error {
	l.mu.Lock()
	payOwed := func() { l.disk.PayWait(l.takeOwed()) }
	defer l.mu.Unlock()
	defer payOwed() // runs before Unlock: recovery is exclusive anyway
	// Ensure the tail is durable before it is read back.
	if l.page >= 0 && l.used > 0 {
		if err := l.writeTail(); err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
		l.flushed = l.length
	}
	if lsn < 0 || lsn > l.length {
		return fmt.Errorf("wal: LSN %d out of range [0, %d]", lsn, l.length)
	}
	pageSize := int64(l.disk.PageSize())
	firstPage := lsn / pageSize
	stream := make([]byte, 0, l.length-firstPage*pageSize)
	numPages := l.disk.NumPages(l.file)
	for p := firstPage; p < numPages; p++ {
		pg, cost, err := l.disk.ReadPageDeferWait(l.file, p)
		l.owed += cost
		if err != nil {
			return err
		}
		stream = append(stream, pg...)
	}
	if max := l.length - firstPage*pageSize; int64(len(stream)) > max {
		stream = stream[:max]
	}
	for off := lsn - firstPage*pageSize; off < int64(len(stream)); {
		rest := stream[off:]
		if len(rest) < 7 {
			return fmt.Errorf("wal: truncated record header at %d", off)
		}
		typ := RecordType(rest[0])
		tlen := int(binary.LittleEndian.Uint16(rest[1:]))
		if len(rest) < 3+tlen+4 {
			return fmt.Errorf("wal: truncated record target at %d", off)
		}
		target := string(rest[3 : 3+tlen])
		plen := int(binary.LittleEndian.Uint32(rest[3+tlen:]))
		start := 3 + tlen + 4
		if len(rest) < start+plen {
			return fmt.Errorf("wal: truncated record payload at %d", off)
		}
		payload := append([]byte(nil), rest[start:start+plen]...)
		off += int64(start + plen)
		if !fn(Record{Type: typ, Target: target, Payload: payload}) {
			return nil
		}
	}
	return nil
}
