package table

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/heap"
	"repro/internal/keyenc"
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
// statement leaves no trace for CM recovery replay; an abort takes its
// new versions out of every snapshot at once (rollback).
//
// After Publish, retirement (reclaim.go) deletes an old version's index
// entries and hands the version to the heap as dead — its slot and bytes
// reusable — unless a pinned snapshot older than the statement can still
// read it, in which case it waits in a queue drained at a later
// exclusive hold. An aborted statement retires the same way. A facade reader's snapshot
// lives inside one shared latch hold, and reclamation runs only under
// the exclusive latch, so no such reader can be left holding a reclaimed
// version. New versions do not go to the heap's tail: each clustered
// bucket's new versions are placed together on one page — one of the
// bucket's own pages with room, else the reclaimed page that fits them
// most tightly, else the tail — which keeps the heap clustered and the
// page directory's lists short. Only Load appends at the tail, a page at
// a time under one pin, and it writes each full tail page back as it
// leaves it (see Table.Load).
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
// no pin holds any more (drain; a step that fails stays queued for the
// next BeginWrite to report), and, when latch observation is wired,
// returns the acquisition time for unlockLatched to record.
func (t *Table) lockLatched() time.Time {
	t.mu.Lock()
	var start time.Time
	if o := t.writeObs.Load(); o != nil && o.LatchHold != nil {
		start = time.Now()
	}
	_ = t.drain()
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

// rowVersion is one row version a statement wrote or ended: its row,
// RID, clustered bucket and encoded size, and whether it shares its slot
// with the version it replaced in place (inPlace).
type rowVersion struct {
	row     value.Row
	rid     heap.RID
	cb      int32
	size    int32
	inPlace bool
}

// Images is what a writer statement's read phase saw of the rows it
// rewrites or ends: each row's RID and tuple bytes, copied into one arena
// as the scan passed them. UpdateBatch and DeleteBatch take them instead
// of reading the rows again — under the writer gate nothing changes a
// row between the two phases. The statement keeps the bytes as they are
// until it is done and beyond: its old rows' strings are views of them,
// its WAL records carry them, and an old version replaced in place keeps
// them as its pre-image.
type Images struct {
	refs []imageRef
	buf  []byte
}

// imageRef locates image i: its RID, and the end of its bytes in the
// arena, which start where image i-1's end.
type imageRef struct {
	rid heap.RID
	end int
}

// imagesPresize is the rows the first Add makes room for, at the first
// tuple's length each: a statement of up to this many rows of that size
// grows neither slice again.
const imagesPresize = 16

// Add appends one row's image: its RID and a copy of its bytes.
func (im *Images) Add(rid heap.RID, tuple []byte) {
	if im.refs == nil {
		im.refs = make([]imageRef, 0, imagesPresize)
		im.buf = make([]byte, 0, imagesPresize*len(tuple))
	}
	im.buf = append(im.buf, tuple...)
	im.refs = append(im.refs, imageRef{rid: rid, end: len(im.buf)})
}

// Len returns the number of images.
func (im *Images) Len() int { return len(im.refs) }

// tuple returns image i's bytes.
func (im *Images) tuple(i int) []byte {
	start := 0
	if i > 0 {
		start = im.refs[i-1].end
	}
	end := im.refs[i].end
	return im.buf[start:end:end]
}

// decode decodes every image into one flat arena of rows, each stride
// values wide (stride ≥ the schema's width, room for a second row image
// after the decoded one); strings are views of the images' bytes. Row i
// starts at vals[i*stride].
func (im *Images) decode(sch Schema, stride int) ([]value.Value, error) {
	nc := len(sch.Cols)
	vals := make([]value.Value, len(im.refs)*stride)
	for i := range im.refs {
		if err := sch.decodeRow(vals[i*stride:i*stride+nc:i*stride+nc], im.tuple(i), true); err != nil {
			return nil, err
		}
	}
	return vals, nil
}

// update is one row of an UPDATE: the old version at rid (bytes oldEnc,
// row old in clustered bucket oldCB), the new image (row new, encoded
// enc, in bucket cb), and whether the new image overwrites the old in
// its slot.
type update struct {
	rid         heap.RID
	old, new    value.Row
	oldEnc, enc []byte
	oldCB, cb   int32
	inPlace     bool
}

// WriteTxn is one MVCC writer statement on a table: a sequence of
// InsertBatch / DeleteBatch / UpdateBatch calls between BeginWrite and
// Publish (or Abort). It is single-goroutine; the writer gate it holds
// excludes concurrent writer statements and DDL, but not readers.
type WriteTxn struct {
	t  *Table
	ts uint64

	inserted []rowVersion // new versions
	ended    []rowVersion // old versions, ended or replaced in place
	recs     []wal.Record
	// loaded counts the rows a bulk load appended: it keeps no undo
	// record of them, since a failed load truncates the heap instead.
	loaded int64
	done   bool
	ctx    context.Context
	err    error  // BeginWrite's drain failure: batches and Publish return it
	key    []byte // bucketFor's clustering-key buffer
}

// SetContext attaches a cancellation context to the statement. Batch
// application checks it between latch bursts: a cancelled statement
// stops at the next chunk boundary with the context's error, leaving
// the caller to Abort, which takes the statement's work back. A nil
// context — the default — never cancels.
func (tx *WriteTxn) SetContext(ctx context.Context) { tx.ctx = ctx }

// stopErr reports why the statement must stop before its next latch
// burst: BeginWrite's drain failure, or the context's cancellation.
func (tx *WriteTxn) stopErr() error {
	if tx.err != nil || tx.ctx == nil {
		return tx.err
	}
	select {
	case <-tx.ctx.Done():
		return tx.ctx.Err()
	default:
		return nil
	}
}

// BeginWrite starts a writer statement: it acquires the writer gate,
// finishes the cleanup earlier statements left queued (drain), and
// assigns the statement's version timestamp (published clock + 1). A
// cleanup step that fails stays queued, and the statement's batches and
// Publish return its error, so no writer starts over a half-restored slot.
// Every BeginWrite must be paired with exactly one Publish or Abort.
func (t *Table) BeginWrite() *WriteTxn {
	t.wmu.Lock()
	t.writerActive.Store(true)
	clear(t.placing)
	tx := &WriteTxn{t: t, ts: t.clock.Load() + 1}
	if len(t.retired) > 0 { // only writer-gate holders change the queue
		t.mu.Lock()
		tx.err = t.drain()
		t.mu.Unlock()
	}
	return tx
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
	cbs := make([]int32, len(rows))
	for i, r := range rows {
		cbs[i] = tx.bucketFor(r)
		tx.reserve(cbs[i], len(encs[i]))
	}
	tx.inserted = slices.Grow(tx.inserted, len(rows))
	tx.recs = slices.Grow(tx.recs, len(rows))
	t := tx.t
	for start := 0; start < len(rows); start += writeBatchRows {
		if err := tx.stopErr(); err != nil {
			return err
		}
		end := min(start+writeBatchRows, len(rows))
		held := t.lockLatched()
		for i := start; i < end && err == nil; i++ {
			err = tx.applyInsert(rows[i], encs[i], cbs[i])
		}
		t.unlockLatched(held)
		if err != nil {
			return err
		}
	}
	return nil
}

// bucketFor returns the clustered bucket of the row's clustering key,
// encoding the key into a buffer the statement reuses.
func (tx *WriteTxn) bucketFor(row value.Row) int32 {
	tx.key = keyenc.AppendRowPrefix(tx.key[:0], row, tx.t.cfg.ClusteredCols)
	return tx.t.cbuckets.Locate(tx.key)
}

// encode validates and encodes the statement's new row images into one
// arena; a rejected row's error carries its 1-based position in rows.
func (tx *WriteTxn) encode(rows []value.Row) ([][]byte, error) {
	size := 0
	for _, r := range rows {
		size += encodedSize(r)
	}
	buf := make([]byte, 0, size)
	encs := make([][]byte, len(rows))
	for i, r := range rows {
		start := len(buf)
		var err error
		if buf, err = tx.t.cfg.Schema.AppendRow(buf, r); err != nil {
			return nil, fmt.Errorf("row %d: %w", i+1, err)
		}
		encs[i] = buf[start:len(buf):len(buf)]
	}
	return encs, nil
}

// applyInsert installs one new row version in clustered bucket cb, where
// place puts the bucket's versions. Caller holds the latch.
func (tx *WriteTxn) applyInsert(row value.Row, enc []byte, cb int32) error {
	rid, err := tx.place(enc, cb)
	if err != nil {
		return err
	}
	return tx.added(row, enc, rid, cb)
}

// added records and indexes the new row version at rid, whose encoding
// is enc, in clustered bucket cb: the undo log, the page directory, every
// CM, every secondary index and the WAL. Caller holds the latch.
func (tx *WriteTxn) added(row value.Row, enc []byte, rid heap.RID, cb int32) error {
	t := tx.t
	tx.inserted = append(tx.inserted, rowVersion{row: row, rid: rid, cb: cb, size: int32(len(enc))})
	t.pageDir.add(cb, rid.Page)
	for _, cm := range t.cms {
		cm.AddRow(row, cb)
	}
	for _, ix := range t.secondary {
		if err := ix.Insert(row, rid); err != nil {
			return err
		}
	}
	tx.recs = append(tx.recs, wal.Record{Type: wal.RecInsert, Target: t.cfg.Name, Payload: enc})
	return nil
}

// DeleteBatch logically ends the rows olds holds, the read phase's
// images: each old row is decoded from its image once, outside the
// latch, and the versions end in writeBatchRows chunks under short
// exclusive latch holds. The tuple bytes stay readable by older
// snapshots; index entries and CM pairs are retracted at Publish.
func (tx *WriteTxn) DeleteBatch(olds *Images) error {
	t := tx.t
	n, nc := olds.Len(), len(t.cfg.Schema.Cols)
	vals, err := olds.decode(t.cfg.Schema, nc)
	if err != nil {
		return err
	}
	cbs := make([]int32, n)
	for i := range cbs {
		cbs[i] = tx.bucketFor(vals[i*nc : (i+1)*nc])
	}
	tx.ended = slices.Grow(tx.ended, n)
	tx.recs = slices.Grow(tx.recs, n)
	for start := 0; start < n; start += writeBatchRows {
		if err := tx.stopErr(); err != nil {
			return err
		}
		end := min(start+writeBatchRows, n)
		held := t.lockLatched()
		for i := start; i < end; i++ {
			if err := tx.applyDelete(olds.refs[i].rid, olds.tuple(i), vals[i*nc:(i+1)*nc:(i+1)*nc], cbs[i]); err != nil {
				t.unlockLatched(held)
				return err
			}
		}
		t.unlockLatched(held)
	}
	return nil
}

// applyDelete ends the version at rid, whose bytes are tuple and row
// row, in clustered bucket cb. Caller holds the latch.
func (tx *WriteTxn) applyDelete(rid heap.RID, tuple []byte, row value.Row, cb int32) error {
	t := tx.t
	if err := t.heapf.SetEnd(rid, tx.ts); err != nil {
		return err
	}
	tx.ended = append(tx.ended, rowVersion{row: row, rid: rid, cb: cb, size: int32(len(tuple))})
	tx.recs = append(tx.recs, wal.Record{Type: wal.RecDelete, Target: t.cfg.Name, Payload: tuple})
	return nil
}

// UpdateBatch replaces the rows olds holds, the read phase's images,
// with new images — Algorithm 1's retraction + reinsert: the old version
// is ended and queued for CM retraction at Publish and the new version is
// added to every CM, so per-entry statistics come out exact once the
// statement publishes. Each old row is decoded from its image once, and
// its new image starts as a copy that set changes in place (set(i, row)
// for image i); the new images are validated and encoded into one arena.
//
// A new image that may stay in its old one's slot — by the eligibility
// rule of PostgreSQL's HOT updates: the same clustered bucket, the same
// encoded length, no secondary-index column changed, no pre-image still
// in the slot, and an old version an earlier statement wrote
// (heap.File.Replaceable) — overwrites it there. Any other ends the old
// version, whose page-directory reference goes at Publish and its index
// entries at its retirement, and is placed with its bucket's others and
// indexed. The old row's
// bucket is located only when its clustering columns differ from the new
// image's, so a SET that touches none of them locates each row once.
// Which rows stay is decided before placement is reserved, so only the
// rows that move reserve room. Mutations apply in writeBatchRows chunks
// under short exclusive latch holds.
func (tx *WriteTxn) UpdateBatch(olds *Images, set func(i int, row value.Row)) error {
	t := tx.t
	sch := t.cfg.Schema
	n, nc := olds.Len(), len(sch.Cols)
	// Row i's old image is vals[2i*nc:], its new one the nc values after.
	vals, err := olds.decode(sch, 2*nc)
	if err != nil {
		return err
	}
	ups := make([]update, n)
	size := 0
	for i := range ups {
		u := &ups[i]
		at := 2 * i * nc
		u.rid, u.oldEnc = olds.refs[i].rid, olds.tuple(i)
		u.old, u.new = vals[at:at+nc:at+nc], vals[at+nc:at+2*nc:at+2*nc]
		copy(u.new, u.old)
		set(i, u.new)
		size += encodedSize(u.new)
	}
	buf := make([]byte, 0, size)
	for i := range ups {
		start := len(buf)
		if buf, err = sch.AppendRow(buf, ups[i].new); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		ups[i].enc = buf[start:len(buf):len(buf)]
	}
	tx.stayers(ups)
	for i := range ups {
		if !ups[i].inPlace {
			tx.reserve(ups[i].cb, len(ups[i].enc))
		}
	}
	tx.ended = slices.Grow(tx.ended, n)
	tx.inserted = slices.Grow(tx.inserted, n)
	tx.recs = slices.Grow(tx.recs, 2*n)
	for start := 0; start < n; start += writeBatchRows {
		if err := tx.stopErr(); err != nil {
			return err
		}
		end := min(start+writeBatchRows, n)
		held := t.lockLatched()
		for i := start; i < end; i++ {
			u := &ups[i]
			if u.inPlace {
				err = tx.applyReplace(u)
			} else if err = tx.applyDelete(u.rid, u.oldEnc, u.old, u.oldCB); err == nil {
				err = tx.applyInsert(u.new, u.enc, u.cb)
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

// stayers locates each updated row's buckets and marks the rows whose new
// image may overwrite the old in its slot (see UpdateBatch); the others
// relocate. The slot check reads the heap's versions under a shared
// latch hold. Under the writer gate nothing else changes the versions.
func (tx *WriteTxn) stayers(ups []update) {
	t := tx.t
	t.mu.RLock()
	defer t.mu.RUnlock()
	for i := range ups {
		u := &ups[i]
		u.cb = tx.bucketFor(u.new)
		u.oldCB = u.cb
		if !sameValues(u.old, u.new, t.cfg.ClusteredCols) {
			u.oldCB = tx.bucketFor(u.old)
		}
		u.inPlace = u.oldCB == u.cb && len(u.enc) == len(u.oldEnc) &&
			!t.indexedChange(u.old, u.new) && t.heapf.Replaceable(u.rid, tx.ts)
	}
}

// indexedChange reports whether a secondary-index key differs between
// two images of a row.
func (t *Table) indexedChange(old, new value.Row) bool {
	for _, ix := range t.secondary {
		if !sameValues(old, new, ix.Cols) {
			return true
		}
	}
	return false
}

// sameValues reports whether two images of a row hold the same values in
// cols, which then encode to the same key: the same kind and payload,
// floats compared bit for bit as the key encodes them.
func sameValues(a, b value.Row, cols []int) bool {
	for _, c := range cols {
		x, y := a[c], b[c]
		if x.K != y.K || x.I != y.I || x.S != y.S || floatBits(x.F) != floatBits(y.F) {
			return false
		}
	}
	return true
}

// applyReplace overwrites the old version of u in its slot with the new
// image. The heap keeps the old image's bytes as the slot's pre-image;
// the statement adds the new image to every CM now and retracts the old
// from them at Publish, and logs the pair an UPDATE always logs. Caller
// holds the latch.
func (tx *WriteTxn) applyReplace(u *update) error {
	t := tx.t
	if err := t.heapf.ReplaceAt(u.rid, u.enc, u.oldEnc, tx.ts); err != nil {
		return err
	}
	tx.ended = append(tx.ended, rowVersion{row: u.old, rid: u.rid, cb: u.cb, inPlace: true})
	tx.inserted = append(tx.inserted, rowVersion{row: u.new, rid: u.rid, cb: u.cb, inPlace: true})
	for _, cm := range t.cms {
		cm.AddRow(u.new, u.cb)
	}
	tx.recs = append(tx.recs,
		wal.Record{Type: wal.RecDelete, Target: t.cfg.Name, Payload: u.oldEnc},
		wal.Record{Type: wal.RecInsert, Target: t.cfg.Name, Payload: u.enc})
	return nil
}

// Publish commits the statement: under one final exclusive latch hold it
// appends the statement's WAL records, takes the CM pairs and
// page-directory references of the versions it ended out of memory
// (Algorithm 1's retraction half), advances the published clock so new
// reader snapshots see the statement's versions, and retires the
// statement (see retire): the old versions' index entries go, then their
// heap slots. Then it releases the writer gate.
//
// The WAL append goes first on purpose, all of the statement's records
// in one atomic Append: a failing log (injected or real disk fault) holds
// none of them, and Publish aborts the statement as Abort does, so a CM
// recovery replay never sees it. Once the log holds the statement,
// Publish cannot fail on a disk fault: an index delete that fails stays
// queued for the next writer (the version is ended, so readers skip its
// stale entry). A failed Publish has aborted; calling Abort afterwards is
// a no-op.
func (tx *WriteTxn) Publish() error {
	t := tx.t
	held := t.lockLatched()
	err := tx.err
	if err == nil && t.log != nil {
		err = t.log.Append(tx.recs...)
	}
	rows := int64(len(tx.inserted)+len(tx.ended)) + tx.loaded
	if err == nil {
		err = tx.applyRetractions()
		t.written.Add(rows)
		t.clock.Store(tx.ts)
		// The log holds the statement: a failed index delete stays queued.
		_ = t.retire(retiredStmt{ts: tx.ts, versions: tx.ended, touched: tx.inserted})
	} else {
		err = errors.Join(err, tx.rollback())
	}
	t.unlockLatched(held)
	if o := t.writeObs.Load(); o != nil {
		if err == nil {
			o.Publishes.Inc()
			o.Rows.Add(rows)
		} else {
			o.Aborts.Inc()
		}
	}
	tx.release()
	return err
}

// applyRetractions removes the CM pairs of every old version, and the
// page-directory reference of each that leaves its slot; its index
// entries wait for retire. Both are in memory, so only a bug can fail
// them: the error is returned, and the rest are still applied. Caller
// holds the latch.
func (tx *WriteTxn) applyRetractions() error {
	t := tx.t
	var err error
	for _, v := range tx.ended {
		if !v.inPlace {
			t.pageDir.remove(v.cb, v.rid.Page)
		}
		for _, cm := range t.cms {
			err = errors.Join(err, cm.RemoveRow(v.row, v.cb))
		}
	}
	return err
}

// rollback takes the statement's work back. What is in memory goes at
// once: the CM pairs and page-directory references of its new versions,
// which end at their own begin timestamp (visible to no snapshot, and out
// of the live-tuple count), the ends it set, and the pre-images of the
// slots it replaced, reopened for every snapshot. What reads pages — the
// new versions' index entries and slots, the pre-images copied back — is
// retired as an aborted statement. Caller holds the latch exclusively.
func (tx *WriteTxn) rollback() error {
	t := tx.t
	var err error
	// Reverse order, so a slot ended after its replacement is live
	// again before its pre-image reopens.
	for i := len(tx.ended) - 1; i >= 0; i-- {
		if v := tx.ended[i]; v.inPlace {
			err = errors.Join(err, t.heapf.ReopenPreImage(v.rid))
		} else {
			err = errors.Join(err, t.heapf.ClearEnd(v.rid))
		}
	}
	var gone []rowVersion
	for i := len(tx.inserted) - 1; i >= 0; i-- {
		v := tx.inserted[i]
		for _, cm := range t.cms {
			err = errors.Join(err, cm.RemoveRow(v.row, v.cb))
		}
		if !v.inPlace {
			t.pageDir.remove(v.cb, v.rid.Page)
			err = errors.Join(err, t.heapf.SetEnd(v.rid, tx.ts))
			gone = append(gone, v)
		}
	}
	for i := len(tx.ended) - 1; i >= 0; i-- {
		if v := tx.ended[i]; v.inPlace {
			gone = append(gone, v)
		}
	}
	if err = errors.Join(err, t.retire(retiredStmt{ts: tx.ts, aborted: true, versions: gone, touched: tx.ended})); err != nil {
		return fmt.Errorf("table %s: abort: %w", t.cfg.Name, err)
	}
	return nil
}

// Abort rolls the statement back (see rollback) and returns what failed:
// nil, or the error of a cleanup step that reads pages, which stays
// queued for the next writer; a caller joins it into the statement's
// error. Readers see the pre-statement state either way. No WAL records
// were written, so recovery replay never sees the statement. The writer
// gate is released. Abort after a failed Publish (which aborts) is a
// no-op.
func (tx *WriteTxn) Abort() error {
	if tx.done {
		return nil
	}
	t := tx.t
	held := t.lockLatched()
	err := tx.rollback()
	t.unlockLatched(held)
	if o := t.writeObs.Load(); o != nil {
		o.Aborts.Inc()
	}
	tx.release()
	return err
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
