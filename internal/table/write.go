package table

import (
	"context"
	"fmt"
	"time"

	"repro/internal/heap"
	"repro/internal/metrics"
	"repro/internal/value"
	"repro/internal/wal"
)

// This file implements the MVCC writer statement. A writer never holds the
// table latch for its whole run: it takes the per-table writer gate (which
// only excludes other writers and DDL), stamps its new row versions with
// clock+1, and applies mutations in small batches under short exclusive
// latch holds, so a concurrent reader waits at most one batch. Readers
// capture the published clock at statement start and filter every heap
// access through the per-tuple begin/end timestamps, so a half-applied
// statement is invisible to them.
//
// Correlation-map maintenance follows the paper's Algorithm 1, split
// across the statement so snapshot readers stay correct mid-flight:
// additions (AddRow for new versions) apply immediately — harmless,
// because the new heap versions are invisible until publish and CM scans
// re-filter on heap bytes — while retractions (RemoveRow for replaced or
// deleted versions) are deferred to Publish. Removing a CM pair early
// could hide rows a pre-publish snapshot must still find through the CM
// access path. The same deferral covers the old versions' secondary index
// entries and their references in the page directory (the clustered
// index). WAL records are also queued until Publish, so an aborted
// statement leaves no trace for CM recovery replay.
//
// After Publish only the heap slot of an old version remains, and one
// last step reclaims it (reclaim.go): the version is handed to the heap
// as dead — its slot and bytes reusable — unless a pinned snapshot older
// than the statement can still read it, in which case it waits in a
// queue drained at a later exclusive hold. A facade reader's snapshot
// lives inside one shared latch hold, and reclamation runs only under
// the exclusive latch, so no such reader can be left holding a reclaimed
// version. New versions do not go to the heap's tail: each clustered
// bucket's new versions are placed together on one page — one of the
// bucket's own pages with room, else the reclaimed page that fits them
// most tightly, else the tail — which keeps the heap clustered and the
// page directory's lists short. Only Load appends at the tail, and it
// writes each full tail page back as it leaves it (applyInsert).
//
// An updated row whose new image can stay where it is does not move at
// all (applyReplace): the new bytes overwrite the old in their slot, and
// the heap keeps the old bytes as the slot's pre-image for the snapshots
// that still read them. The row keeps its RID and page, so its index
// entries and page-directory reference stand; its CM pairs and WAL
// records are an UPDATE's like any other, and reclamation drops the
// pre-image behind the same pin rule as a dead slot.

// writeBatchRows bounds how many rows one exclusive latch hold applies:
// small enough that a waiting reader stalls for microseconds, large
// enough to amortize the latch handoff across a bulk statement.
const writeBatchRows = 128

// WriteObs is the write path's metric set. All fields are optional
// (nil disables that metric); the struct is installed atomically via
// SetWriteObs so live writer statements never race a wiring change.
type WriteObs struct {
	// Publishes counts committed writer statements.
	Publishes *metrics.Counter
	// Aborts counts rolled-back writer statements.
	Aborts *metrics.Counter
	// Rows counts row versions written (inserted plus ended).
	Rows *metrics.Counter
	// LatchHold records the wall time of each exclusive latch hold in
	// nanoseconds — the writeBatchRows-chunked holds plus the final
	// publish hold, i.e. exactly the stalls a concurrent reader can see.
	LatchHold *metrics.Histogram
}

// lockLatched takes the exclusive latch, reclaims the retired versions
// no pin holds any more (drainRetired), and, when latch observation is
// wired, returns the acquisition time for unlockLatched to record.
func (t *Table) lockLatched() time.Time {
	t.mu.Lock()
	var start time.Time
	if o := t.writeObs.Load(); o != nil && o.LatchHold != nil {
		start = time.Now()
	}
	t.drainRetired()
	return start
}

// unlockLatched releases the exclusive latch and records the hold time
// started by lockLatched.
func (t *Table) unlockLatched(start time.Time) {
	t.mu.Unlock()
	if !start.IsZero() {
		if o := t.writeObs.Load(); o != nil {
			o.LatchHold.ObserveSince(start)
		}
	}
}

// retraction is one old row version the statement ended: its index
// entries, page-directory reference and CM pairs are removed when the
// statement publishes, and then its heap slot (size bytes) is reclaimed.
// An old version replaced in place (inPlace) keeps its index entries and
// reference, which its new version inherits, and leaves a pre-image
// where the others leave a slot.
type retraction struct {
	row     value.Row
	rid     heap.RID
	cb      int32
	size    int
	inPlace bool
}

// undoInsert is one new row version to unwind if the statement aborts;
// one written in place (inPlace) has only its CM pairs to take back.
type undoInsert struct {
	row     value.Row
	rid     heap.RID
	cb      int32
	inPlace bool
}

// stay is the current version of an updated row that its new image
// overwrites in place: its bytes, logged as the update's RecDelete, and
// its row, retracted from the CMs at Publish. The zero stay marks a row
// that relocates.
type stay struct {
	data []byte
	row  value.Row
}

// WriteTxn is one MVCC writer statement on a table: a sequence of
// InsertBatch / DeleteBatch / UpdateBatch calls between BeginWrite and
// Publish (or Abort). It is single-goroutine; the writer gate it holds
// excludes concurrent writer statements and DDL, but not readers.
type WriteTxn struct {
	t  *Table
	ts uint64

	inserted []undoInsert
	retract  []retraction
	recs     []wal.Record
	load     bool // a bulk load: unlogged, appended at the heap's tail
	done     bool
	ctx      context.Context
}

// SetContext attaches a cancellation context to the statement. Batch
// application checks it between latch bursts: a cancelled statement
// stops at the next chunk boundary with the context's error, leaving
// the caller to Abort (the physical unwind restores the pre-statement
// state). A nil context — the default — never cancels.
func (tx *WriteTxn) SetContext(ctx context.Context) { tx.ctx = ctx }

// ctxErr reports the statement context's cancellation error, if any.
func (tx *WriteTxn) ctxErr() error {
	if tx.ctx == nil {
		return nil
	}
	select {
	case <-tx.ctx.Done():
		return tx.ctx.Err()
	default:
		return nil
	}
}

// BeginWrite starts a writer statement: it acquires the writer gate and
// assigns the statement's version timestamp (published clock + 1). Every
// BeginWrite must be paired with exactly one Publish or Abort.
func (t *Table) BeginWrite() *WriteTxn {
	t.wmu.Lock()
	t.writerActive.Store(true)
	clear(t.placing)
	return &WriteTxn{t: t, ts: t.clock.Load() + 1}
}

// InsertBatch appends the rows as new versions: heap placement at the
// statement timestamp, page-directory references, secondary index
// entries, and CM additions (Algorithm 1's insert half). Validation, encoding and the
// per-bucket space reservation happen outside the latch; the mutations
// apply in writeBatchRows chunks, each under its own short exclusive
// hold. The rows stay invisible to readers until Publish.
func (tx *WriteTxn) InsertBatch(rows []value.Row) error {
	encs, err := tx.encode(rows)
	if err != nil {
		return err
	}
	return tx.insertBatch(rows, encs, tx.reserve(rows, encs, nil))
}

// insertBatch applies rows, already encoded as encs, in clustered buckets
// cbs: InsertBatch's reserved buckets, or Load's from its bucket builder,
// which is ahead of the installed bounds.
func (tx *WriteTxn) insertBatch(rows []value.Row, encs [][]byte, cbs []int32) error {
	t := tx.t
	for start := 0; start < len(rows); start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
			return err
		}
		end := start + writeBatchRows
		if end > len(rows) {
			end = len(rows)
		}
		held := t.lockLatched()
		for i := start; i < end; i++ {
			if err := tx.applyInsert(rows[i], encs[i], cbs[i]); err != nil {
				t.unlockLatched(held)
				return err
			}
		}
		t.unlockLatched(held)
	}
	return nil
}

// encode validates and encodes the statement's new row images
// (EncodeRow validates); a rejected row's error carries its 1-based
// position in rows.
func (tx *WriteTxn) encode(rows []value.Row) ([][]byte, error) {
	sch := tx.t.cfg.Schema
	encs := make([][]byte, len(rows))
	for i, r := range rows {
		enc, err := sch.EncodeRow(r)
		if err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
		encs[i] = enc
	}
	return encs, nil
}

// applyInsert installs one new row version in clustered bucket cb: at the
// heap's tail for a load, else where place puts the bucket's versions.
// Caller holds the latch.
func (tx *WriteTxn) applyInsert(row value.Row, enc []byte, cb int32) error {
	t := tx.t
	var rid heap.RID
	var err error
	if tx.load {
		// A load never returns to a page it has left: before the append
		// opens a new tail, the full one goes to disk (see Load).
		if tail := t.heapf.NumPages() - 1; tail >= 0 && t.heapf.Room(tail) < heap.TupleCost(len(enc)) {
			if err := t.pool.WriteBack(t.heapf.FileID(), tail); err != nil {
				return err
			}
		}
		rid, err = t.heapf.AppendAt(enc, tx.ts)
	} else {
		rid, err = tx.place(enc, cb)
	}
	if err != nil {
		return err
	}
	tx.inserted = append(tx.inserted, undoInsert{row: row, rid: rid, cb: cb})
	t.pageDir.add(cb, rid.Page)
	for _, ix := range t.secondary {
		if err := ix.Insert(row, rid); err != nil {
			return err
		}
	}
	for _, cm := range t.cms {
		cm.AddRow(row, cb)
	}
	if !tx.load {
		tx.recs = append(tx.recs, wal.Record{Type: wal.RecInsert, Target: t.cfg.Name, Payload: enc})
	}
	return nil
}

// DeleteBatch logically ends the rows at the given RIDs, applying in
// writeBatchRows chunks under short exclusive latch holds. The tuple
// bytes stay readable by older snapshots; index entries and CM pairs are
// retracted at Publish.
func (tx *WriteTxn) DeleteBatch(rids []heap.RID) error {
	t := tx.t
	for start := 0; start < len(rids); start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
			return err
		}
		end := start + writeBatchRows
		if end > len(rids) {
			end = len(rids)
		}
		held := t.lockLatched()
		for i := start; i < end; i++ {
			if err := tx.applyDelete(rids[i]); err != nil {
				t.unlockLatched(held)
				return err
			}
		}
		t.unlockLatched(held)
	}
	return nil
}

// applyDelete ends one row version. Caller holds the latch.
func (tx *WriteTxn) applyDelete(rid heap.RID) error {
	t := tx.t
	data, err := t.heapf.Get(rid)
	if err != nil {
		return err
	}
	if data == nil {
		return fmt.Errorf("table %s: delete of missing row %v", t.cfg.Name, rid)
	}
	row, err := t.cfg.Schema.DecodeRow(data)
	if err != nil {
		return err
	}
	if err := t.heapf.SetEnd(rid, tx.ts); err != nil {
		return err
	}
	tx.retract = append(tx.retract, retraction{row: row, rid: rid, cb: t.ClusterBucketFor(row), size: len(data)})
	if !tx.load {
		tx.recs = append(tx.recs, wal.Record{Type: wal.RecDelete, Target: t.cfg.Name, Payload: data})
	}
	return nil
}

// UpdateBatch replaces the rows at olds with news (position-matched) —
// Algorithm 1's retraction + reinsert: the old version is ended and
// queued for CM retraction at Publish and the new version is added to
// every CM, so per-entry statistics come out exact once the statement
// publishes. A new image that may stay in its old one's slot (see
// stayers) overwrites it there; any other ends the old version, whose
// index entries and page-directory reference go at Publish too, and is
// placed with its bucket's others and indexed. Which rows stay is
// decided before placement is reserved, so only the rows that move
// reserve room. Mutations apply in writeBatchRows chunks under short
// exclusive latch holds.
func (tx *WriteTxn) UpdateBatch(olds []heap.RID, news []value.Row) error {
	t := tx.t
	if len(olds) != len(news) {
		return fmt.Errorf("table %s: update batch mismatch: %d rids, %d rows", t.cfg.Name, len(olds), len(news))
	}
	encs, err := tx.encode(news)
	if err != nil {
		return err
	}
	stays, err := tx.stayers(olds, news, encs)
	if err != nil {
		return err
	}
	cbs := tx.reserve(news, encs, stays)
	for start := 0; start < len(olds); start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
			return err
		}
		end := start + writeBatchRows
		if end > len(olds) {
			end = len(olds)
		}
		held := t.lockLatched()
		for i := start; i < end; i++ {
			if stays[i].data != nil {
				err = tx.applyReplace(olds[i], stays[i], news[i], encs[i], cbs[i])
			} else if err = tx.applyDelete(olds[i]); err == nil {
				err = tx.applyInsert(news[i], encs[i], cbs[i])
			}
			if err != nil {
				t.unlockLatched(held)
				return err
			}
		}
		t.unlockLatched(held)
	}
	return nil
}

// stayers reads, under a shared latch hold, the current version of each
// updated row and returns those its new image may overwrite in its slot,
// by the eligibility rule of PostgreSQL's HOT updates: the same clustered
// bucket, the same encoded length, no secondary-index column changed, and
// no pre-image still in the slot. The others come back zero
// and relocate (a missing row among them fails in applyDelete). Under the
// writer gate nothing else changes the versions read here.
func (tx *WriteTxn) stayers(olds []heap.RID, news []value.Row, encs [][]byte) ([]stay, error) {
	t := tx.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	stays := make([]stay, len(olds))
	for i, rid := range olds {
		data, err := t.heapf.Get(rid)
		if err != nil {
			return nil, err
		}
		if data == nil || len(data) != len(encs[i]) || t.heapf.HasPreImage(rid) {
			continue
		}
		row, err := t.cfg.Schema.DecodeRow(data)
		if err != nil {
			return nil, err
		}
		if t.ClusterBucketFor(row) != t.ClusterBucketFor(news[i]) || t.indexedChange(row, news[i]) {
			continue
		}
		stays[i] = stay{data: data, row: row}
	}
	return stays, nil
}

// indexedChange reports whether a secondary-index key differs between
// two images of a row: a value of another kind or payload, floats
// compared bit for bit as the key encodes them.
func (t *Table) indexedChange(old, new value.Row) bool {
	for _, ix := range t.secondary {
		for _, c := range ix.Cols {
			a, b := old[c], new[c]
			if a.K != b.K || a.I != b.I || a.S != b.S || floatBits(a.F) != floatBits(b.F) {
				return true
			}
		}
	}
	return false
}

// applyReplace overwrites the version at rid, read as old, with the new
// image row (encoded enc, in old's bucket cb) in its slot. The heap keeps
// old's bytes as the slot's pre-image; the statement adds the new image
// to every CM now and retracts old from them at Publish, and logs the
// pair an UPDATE always logs. Caller holds the latch.
func (tx *WriteTxn) applyReplace(rid heap.RID, old stay, row value.Row, enc []byte, cb int32) error {
	t := tx.t
	if err := t.heapf.ReplaceAt(rid, enc, tx.ts); err != nil {
		return err
	}
	tx.retract = append(tx.retract, retraction{row: old.row, rid: rid, cb: cb, inPlace: true})
	tx.inserted = append(tx.inserted, undoInsert{row: row, rid: rid, cb: cb, inPlace: true})
	for _, cm := range t.cms {
		cm.AddRow(row, cb)
	}
	tx.recs = append(tx.recs,
		wal.Record{Type: wal.RecDelete, Target: t.cfg.Name, Payload: old.data},
		wal.Record{Type: wal.RecInsert, Target: t.cfg.Name, Payload: enc})
	return nil
}

// Publish commits the statement: under one final exclusive latch hold it
// appends the statement's WAL records, applies the deferred retractions
// (index entries, page-directory references and CM pairs of replaced and
// deleted versions —
// Algorithm 1's retraction half), advances the published clock so new
// reader snapshots see the statement's versions, and retires the old
// versions' heap slots (see retire). Then it releases the writer gate.
//
// WAL appends go first on purpose: a failing log (injected or real disk
// fault) then leaves the in-memory structures untouched, and the
// physical unwind below restores exactly the pre-statement state — the
// statement fails cleanly and the table stays consistent. A failed
// Publish self-aborts; callers must not call Abort afterwards (doing so
// is a no-op).
func (tx *WriteTxn) Publish() error {
	t := tx.t
	held := t.lockLatched()
	var err error
	if t.log != nil {
		for _, rec := range tx.recs {
			if err = t.log.Append(rec); err != nil {
				break
			}
		}
	}
	if err == nil {
		// A retraction failure past this point restores the retracted
		// entries (see applyRetractions) and unwinds, but the appended
		// WAL records cannot be taken back; a later CM recovery replay
		// would include the aborted statement. Retractions are in-memory
		// except for B+Tree page faults, so the window is narrow.
		err = tx.applyRetractions()
	}
	if err == nil {
		t.written.Add(int64(len(tx.inserted) + len(tx.retract)))
		t.clock.Store(tx.ts)
		t.retire(tx.ts, tx.retract)
	} else {
		tx.unwind()
	}
	t.unlockLatched(held)
	if o := t.writeObs.Load(); o != nil {
		if err == nil {
			o.Publishes.Inc()
			o.Rows.Add(int64(len(tx.inserted) + len(tx.retract)))
		} else {
			o.Aborts.Inc()
		}
	}
	tx.release()
	return err
}

// applyRetractions removes the index entries, page-directory references
// and CM pairs of every retracted old version — only the CM pairs of one
// replaced in place. Caller holds the latch. On error every
// operation already applied is reverted (in reverse order, best
// effort), so the old versions stay fully indexed and counted and the
// caller sees a clean pre-retraction state.
func (tx *WriteTxn) applyRetractions() error {
	t := tx.t
	var undo []func()
	fail := func(err error) error {
		for i := len(undo) - 1; i >= 0; i-- {
			undo[i]()
		}
		return err
	}
	for _, r := range tx.retract {
		r := r
		if !r.inPlace {
			t.pageDir.remove(r.cb, r.rid.Page)
			undo = append(undo, func() { t.pageDir.add(r.cb, r.rid.Page) })
			for _, ix := range t.secondary {
				ix := ix
				if _, err := ix.Delete(r.row, r.rid); err != nil {
					return fail(err)
				}
				undo = append(undo, func() { _ = ix.Insert(r.row, r.rid) })
			}
		}
		for _, cm := range t.cms {
			cm := cm
			if err := cm.RemoveRow(r.row, r.cb); err != nil {
				return fail(err)
			}
			undo = append(undo, func() { cm.AddRow(r.row, r.cb) })
		}
	}
	return nil
}

// unwind physically removes the statement's work: appended versions are
// deleted (heap, page directory, indexes, CMs) in reverse order — their heap slots
// reusable at once — and logically-ended old versions are restored to
// live and versions replaced in place get their old bytes back, also in
// reverse order, so a slot replaced and then ended is live again before
// its bytes go back. Caller holds the latch. Inverse
// operations are best-effort — they undo work that was just applied, so
// a failure here means the structure was already inconsistent.
func (tx *WriteTxn) unwind() {
	t := tx.t
	for i := len(tx.inserted) - 1; i >= 0; i-- {
		u := tx.inserted[i]
		if u.inPlace {
			for _, cm := range t.cms {
				_ = cm.RemoveRow(u.row, u.cb)
			}
			continue
		}
		t.pageDir.remove(u.cb, u.rid.Page)
		for _, ix := range t.secondary {
			_, _ = ix.Delete(u.row, u.rid)
		}
		for _, cm := range t.cms {
			_ = cm.RemoveRow(u.row, u.cb)
		}
		_ = t.heapf.Delete(u.rid)
	}
	for i := len(tx.retract) - 1; i >= 0; i-- {
		if r := tx.retract[i]; r.inPlace {
			_ = t.heapf.RestoreAt(r.rid)
		} else {
			_ = t.heapf.ClearEnd(r.rid)
		}
	}
}

// Abort rolls the statement back: the physical unwind removes appended
// versions and restores logically-ended old versions. No WAL records
// were written, so recovery replay never sees the statement. The writer
// gate is released. Abort after a failed Publish (which self-aborts) is
// a no-op.
func (tx *WriteTxn) Abort() {
	if tx.done {
		return
	}
	t := tx.t
	held := t.lockLatched()
	tx.unwind()
	t.unlockLatched(held)
	if o := t.writeObs.Load(); o != nil {
		o.Aborts.Inc()
	}
	tx.release()
}

// release drops the writer gate once, whether publishing or aborting.
func (tx *WriteTxn) release() {
	if tx.done {
		return
	}
	tx.done = true
	tx.t.writerActive.Store(false)
	tx.t.wmu.Unlock()
}
