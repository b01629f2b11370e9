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

	inserted []undoInsert
	retract  []retraction
	recs     []wal.Record
	// loaded counts the rows a bulk load appended: it keeps no undo
	// record of them, since a failed load truncates the heap instead.
	loaded int64
	done   bool
	ctx    context.Context
	key    []byte // bucketFor's clustering-key buffer
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
	cbs := make([]int32, len(rows))
	for i, r := range rows {
		cbs[i] = tx.bucketFor(r)
		tx.reserve(cbs[i], len(encs[i]))
	}
	tx.inserted = slices.Grow(tx.inserted, len(rows))
	tx.recs = slices.Grow(tx.recs, len(rows))
	t := tx.t
	for start := 0; start < len(rows); start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
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
	tx.inserted = append(tx.inserted, undoInsert{row: row, rid: rid, cb: cb})
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
	tx.retract = slices.Grow(tx.retract, n)
	tx.recs = slices.Grow(tx.recs, n)
	for start := 0; start < n; start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
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
	tx.retract = append(tx.retract, retraction{row: row, rid: rid, cb: cb, size: len(tuple)})
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
// encoded length, no secondary-index column changed, and no pre-image
// still in the slot — overwrites it there. Any other ends the old
// version, whose index entries and page-directory reference go at Publish
// too, and is placed with its bucket's others and indexed. The old row's
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
	tx.retract = slices.Grow(tx.retract, n)
	tx.inserted = slices.Grow(tx.inserted, n)
	tx.recs = slices.Grow(tx.recs, 2*n)
	for start := 0; start < n; start += writeBatchRows {
		if err := tx.ctxErr(); err != nil {
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
// relocate. The pre-image check reads the heap under a shared latch
// hold. Under the writer gate nothing else changes the versions.
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
			!t.indexedChange(u.old, u.new) && !t.heapf.HasPreImage(u.rid)
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
	tx.retract = append(tx.retract, retraction{row: u.old, rid: u.rid, cb: u.cb, inPlace: true})
	tx.inserted = append(tx.inserted, undoInsert{row: u.new, rid: u.rid, cb: u.cb, inPlace: true})
	for _, cm := range t.cms {
		cm.AddRow(u.new, u.cb)
	}
	tx.recs = append(tx.recs,
		wal.Record{Type: wal.RecDelete, Target: t.cfg.Name, Payload: u.oldEnc},
		wal.Record{Type: wal.RecInsert, Target: t.cfg.Name, Payload: u.enc})
	return nil
}

// Publish commits the statement: under one final exclusive latch hold it
// appends the statement's WAL records, applies the deferred retractions
// (index entries, page-directory references and CM pairs of replaced and
// deleted versions —
// Algorithm 1's retraction half), advances the published clock so new
// reader snapshots see the statement's versions, and retires the
// statement (see retire): the old versions' heap slots go back and its
// pages refold. Then it releases the writer gate.
//
// The WAL append goes first on purpose, all of the statement's records
// in one atomic Append: a failing log (injected or real disk fault) then
// holds none of them and leaves the in-memory structures untouched, and
// the physical unwind below restores exactly the pre-statement state —
// the statement fails cleanly, the table stays consistent and a CM
// recovery replay never sees the statement. A failed
// Publish self-aborts, and its error joins what that unwind failed to
// undo; callers must not call Abort afterwards (doing so is a no-op).
func (tx *WriteTxn) Publish() error {
	t := tx.t
	held := t.lockLatched()
	var err error
	if t.log != nil {
		err = t.log.Append(tx.recs...)
	}
	if err == nil {
		// A retraction failure past this point restores the retracted
		// entries (see applyRetractions) and unwinds, but the appended
		// WAL records cannot be taken back; a later CM recovery replay
		// would include the aborted statement. Retractions are in-memory
		// except for B+Tree page faults, so the window is narrow.
		err = tx.applyRetractions()
	}
	rows := int64(len(tx.inserted)+len(tx.retract)) + tx.loaded
	if err == nil {
		t.written.Add(rows)
		t.clock.Store(tx.ts)
		t.retire(retiredStmt{ts: tx.ts, versions: tx.retract, inserted: tx.inserted})
	} else {
		err = errors.Join(err, tx.unwind())
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

// applyRetractions removes the index entries, page-directory references
// and CM pairs of every retracted old version — only the CM pairs of one
// replaced in place. Caller holds the latch. On error every operation
// already applied is reverted (in reverse order, best effort), so the
// old versions stay fully indexed and counted and the caller sees a
// clean pre-retraction state.
func (tx *WriteTxn) applyRetractions() error {
	for i, r := range tx.retract {
		if err := tx.t.retractVersion(r); err != nil {
			for j := i - 1; j >= 0; j-- {
				tx.t.restoreVersion(tx.retract[j], len(tx.t.secondary), len(tx.t.cms))
			}
			return err
		}
	}
	return nil
}

// retractVersion removes one old version's index entries, page-directory
// reference and CM pairs; on error it restores what it removed.
func (t *Table) retractVersion(r retraction) error {
	if !r.inPlace {
		t.pageDir.remove(r.cb, r.rid.Page)
		for i, ix := range t.secondary {
			if _, err := ix.Delete(r.row, r.rid); err != nil {
				t.restoreVersion(r, i, 0)
				return err
			}
		}
	}
	for i, cm := range t.cms {
		if err := cm.RemoveRow(r.row, r.cb); err != nil {
			t.restoreVersion(r, len(t.secondary), i)
			return err
		}
	}
	return nil
}

// restoreVersion undoes retractVersion for a version whose first ixs index entries and
// first cms CM pairs were removed, in the reverse order of removal.
func (t *Table) restoreVersion(r retraction, ixs, cms int) {
	for i := cms - 1; i >= 0; i-- {
		t.cms[i].AddRow(r.row, r.cb)
	}
	if r.inPlace {
		return
	}
	for i := ixs - 1; i >= 0; i-- {
		_ = t.secondary[i].Insert(r.row, r.rid)
	}
	t.pageDir.add(r.cb, r.rid.Page)
}

// unwind physically removes the statement's work: appended versions are
// deleted (heap, page directory, indexes, CMs) in reverse order — their heap slots
// reusable at once — and logically-ended old versions are restored to
// live and versions replaced in place get their old bytes back, also in
// reverse order, so a slot replaced and then ended is live again before
// its bytes go back. Caller holds the latch. Every inverse operation is
// tried, and the errors of those that fail are returned joined: they
// undo work that was just applied, so a failure (a page read fault, say)
// leaves a structure the statement changed, and the caller must hear of
// it. An index entry the unwind does not find is not an error: the row's
// insert into that index may be what failed.
func (tx *WriteTxn) unwind() error {
	t := tx.t
	var errs []error
	note := func(err error) {
		if err != nil {
			errs = append(errs, err)
		}
	}
	for i := len(tx.inserted) - 1; i >= 0; i-- {
		u := tx.inserted[i]
		if u.inPlace {
			for _, cm := range t.cms {
				note(cm.RemoveRow(u.row, u.cb))
			}
			continue
		}
		t.pageDir.remove(u.cb, u.rid.Page)
		for _, ix := range t.secondary {
			_, err := ix.Delete(u.row, u.rid)
			note(err)
		}
		for _, cm := range t.cms {
			note(cm.RemoveRow(u.row, u.cb))
		}
		note(t.heapf.Delete(u.rid))
	}
	for i := len(tx.retract) - 1; i >= 0; i-- {
		if r := tx.retract[i]; r.inPlace {
			note(t.heapf.RestoreAt(r.rid))
		} else {
			note(t.heapf.ClearEnd(r.rid))
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("table %s: unwind: %w", t.cfg.Name, errors.Join(errs...))
	}
	return nil
}

// Abort rolls the statement back: the physical unwind removes appended
// versions and restores logically-ended old versions, and Abort returns
// what it failed to undo (nil when it undid everything); a caller joins
// that into the statement's error. No WAL records were written, so
// recovery replay never sees the statement. The writer gate is
// released. Abort after a failed Publish (which self-aborts) is a no-op.
func (tx *WriteTxn) Abort() error {
	if tx.done {
		return nil
	}
	t := tx.t
	held := t.lockLatched()
	err := tx.unwind()
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
