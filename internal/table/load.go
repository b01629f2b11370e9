package table

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/value"
)

// Load bulk-loads rows in clustered order: rows are sorted by the
// clustering key, appended to the heap, indexed, and assigned to
// clustered buckets with the Section 6.1.1 boundary rule; each run of a
// bucket's rows on one page goes into the page directory as one
// reference, so the directory is complete when the load is. Load runs
// only on an empty table. A secondary index created before it gets the
// tree and pair statistics CreateIndex would build from the loaded heap,
// in place of its empty tree, and a CM created before it is filled from
// the loaded heap as CreateCM fills one (fillCM). Equal
// keys keep their input order, and Load keeps no row: it reads rows
// during the call only.
//
// Every pass over the caller's rows reads them front to back, because
// the caller's order is as good as random for the clustered one, and
// reading rows at random waits on the memory behind each of them: one
// pass validates each row and encodes its clustering key, and once the
// keys are sorted a second one copies each row to its place in clustered
// order in two compact arrays (stageSorted), which the appends then
// encode from front to back.
//
// The heap is written once, in page order: as the append moves on to a
// new tail page, the full page it leaves is written back
// (buffer.Pool.WriteBack) and stays cached, clean. The pool's shards
// would otherwise evict the load's dirty pages as interleaved ascending
// runs, and the disk prices every switch between them as a seek. A
// load's pages are born folded — a page the heap opens keeps one
// page-level version while every slot it gets has the same begin — so
// nothing is left to freeze.
//
// Load is itself an MVCC writer statement: it takes the writer gate (not
// the table latch) and appends in short batched exclusive holds, so
// concurrent readers keep running — they see an empty table until the
// load publishes, then all of it. It keeps no undo log: the load's rows
// are the only ones on its pages, so a failed load truncates the heap
// back to the pages it had (heap.File.Truncate) and empties the CMs,
// which were empty before it; the bucket bounds, the directory and the
// indexes are installed only once every row is in.
func (t *Table) Load(rows []value.Row) error {
	tx := t.BeginWrite()
	if tx.err != nil {
		return errors.Join(tx.err, tx.Abort())
	}
	if t.loaded || t.heapf.TupleCount() > 0 {
		return errors.Join(fmt.Errorf("table %s: already loaded", t.cfg.Name), tx.Abort())
	}
	l := &load{t: t, tx: tx, rows: rows, first: t.heapf.NumPages()}
	if err := l.run(); err != nil {
		held := t.lockLatched()
		t.heapf.Truncate(l.first)
		for _, cm := range t.cms {
			cm.Reset()
		}
		t.unlockLatched(held)
		for _, tree := range l.trees {
			t.dropTree(tree)
		}
		return errors.Join(err, tx.Abort())
	}
	t.mu.Lock()
	t.cbuckets = l.bounds
	t.pageDir = l.dir.directory()
	if len(rows) > 0 {
		t.keyWidth = (len(l.keys) + len(rows) - 1) / len(rows)
	}
	t.loaded = true
	for j, tree := range l.trees {
		ix := t.secondary[j]
		ix.pairs.Store(l.pairs[j])
		t.dropTree(ix.Tree)
		ix.Tree = tree
	}
	t.mu.Unlock()
	// A load logs nothing, so its Publish cannot fail.
	tx.loaded = int64(len(rows))
	return tx.Publish()
}

// load is one Load's state: the rows' clustering keys and their order,
// the bucket builder, the bounds it finishes, the directory it collects,
// and the trees and pair statistics of the indexes created before it.
type load struct {
	t     *Table
	tx    *WriteTxn
	rows  []value.Row
	first int64 // the heap's pages before the load; the load's own follow

	keys    []byte // the clustering keys; row i's is keys[offs[i]:offs[i+1]]
	offs    []int
	order   []int // row positions in clustering-key order
	builder *core.Builder
	bounds  *core.ClusteredBuckets
	dir     loadedDirectory

	trees []*btree.Tree
	pairs []*Pairs
}

// run validates the rows and sorts them by their clustering keys, stages
// them in that order (stageSorted) and appends them, each latch batch
// encoded into one buffer reused for the next (the heap copies what it
// stores), then builds the indexes and fills the CMs created before the
// load.
func (l *load) run() error {
	t := l.t
	sch := t.cfg.Schema
	// The clustering keys share one arena, sized from the first key (a
	// fixed-width key fills it exactly). Rows with equal keys keep their
	// input order (keyOrder is stable).
	l.offs = make([]int, len(l.rows)+1)
	for i, r := range l.rows {
		if err := sch.checkRow(r); err != nil {
			return fmt.Errorf("row %d: %w", i+1, err)
		}
		l.keys = keyenc.AppendRowPrefix(l.keys, r, t.cfg.ClusteredCols)
		if i == 0 {
			l.keys = slices.Grow(l.keys, len(l.keys)*(len(l.rows)-1))
		}
		l.offs[i+1] = len(l.keys)
	}
	l.order = keyOrder(l.keys, l.offs)
	staged := stageSorted(sch, l.rows, l.order)
	ckeys := sch.keyFields(t.cfg.ClusteredCols)
	var buf, key []byte
	var ends [writeBatchRows]int
	var encs [writeBatchRows][]byte
	var cbs [writeBatchRows]int32
	for start := 0; start < len(l.order); start += writeBatchRows {
		batch := l.order[start:min(start+writeBatchRows, len(l.order))]
		buf = buf[:0]
		for k := range batch {
			buf = staged.appendTuple(buf, start+k)
			ends[k] = len(buf)
		}
		at := 0
		for k := range batch {
			encs[k], at = buf[at:ends[k]:ends[k]], ends[k]
		}
		if l.builder == nil {
			l.builder = core.NewBuilder(t.bucketTarget(encs[:len(batch)]))
		}
		for k := range batch {
			key = ckeys.appendKey(key[:0], encs[k])
			cbs[k] = l.builder.Add(key)
		}
		if err := l.append(encs[:len(batch)], cbs[:len(batch)]); err != nil {
			return err
		}
	}
	if l.builder == nil {
		l.builder = core.NewBuilder(1)
	}
	l.bounds = l.builder.Finish()
	if err := l.buildIndexes(); err != nil {
		return err
	}
	return l.fillCMs()
}

// bucketTarget converts the pages-per-bucket setting into the bucket
// builder's tuples-per-bucket target, estimating tuples per page from the
// first 100 encodings in clustered order (encs, the first batch).
func (t *Table) bucketTarget(encs [][]byte) int {
	if t.cfg.BucketTuples > 0 {
		return t.cfg.BucketTuples
	}
	sample := encs[:min(len(encs), 100)]
	if len(sample) == 0 {
		return 1
	}
	var rowBytes int64
	for _, enc := range sample {
		rowBytes += int64(len(enc) + 4)
	}
	perRow := max(rowBytes/int64(len(sample)), 1)
	tpp := max(int64(t.pool.Disk().PageSize())/perRow, 1)
	return int(tpp) * t.cfg.BucketPages
}

// append places one batch of rows (encoded as encs, in clustered
// buckets cbs) under one exclusive latch hold, a page at a time:
// each page takes every row that fits under one pin, and each run of one
// bucket's rows on it becomes one directory reference. A load never
// returns to a page it has left: before it opens a new page, the full
// tail goes to disk (see Load).
func (l *load) append(encs [][]byte, cbs []int32) error {
	t, h := l.t, l.t.heapf
	held := t.lockLatched()
	defer t.unlockLatched(held)
	var buf [writeBatchRows]heap.RID
	for i := 0; i < len(encs); {
		var rids []heap.RID
		var err error
		if tail := h.NumPages() - 1; tail >= l.first && h.Room(tail) >= heap.TupleCost(len(encs[i])) {
			rids, err = h.Append(buf[:0], encs[i:], l.tx.ts)
		} else {
			if tail >= l.first {
				if err := t.pool.WriteBack(h.FileID(), tail); err != nil {
					return err
				}
			}
			rids, err = h.AppendPage(buf[:0], encs[i:], l.tx.ts)
		}
		if err != nil {
			return err
		}
		page := rids[0].Page
		for k := 0; k < len(rids); {
			cb, n := cbs[i+k], 1
			for k+n < len(rids) && cbs[i+k+n] == cb {
				n++
			}
			l.dir.add(cb, page, n)
			k += n
		}
		i += len(rids)
	}
	return nil
}

// buildIndexes gives each secondary index created before the load a tree
// of the loaded rows' entries and their pair statistics, built as
// CreateIndex builds them (buildIndex), stamped as of after the load's
// Publish, which adds the rows to the written count. The writer gate
// keeps every other writer out of the heap it scans.
func (l *load) buildIndexes() error {
	t := l.t
	if len(l.rows) == 0 {
		return nil
	}
	at := t.written.Load() + int64(len(l.rows))
	for _, ix := range t.secondary {
		tree, pc, err := t.buildIndex(ix.Cols)
		if err != nil {
			return err
		}
		l.trees = append(l.trees, tree)
		l.pairs = append(l.pairs, countedPairs(pc, at))
	}
	return nil
}

// fillCMs fills each CM created before the load from the loaded heap,
// as CreateCM fills one, locating rows in the load's bucket bounds. It
// holds the latch exclusively: readers may probe a CM the table lists.
func (l *load) fillCMs() error {
	t := l.t
	held := t.lockLatched()
	defer t.unlockLatched(held)
	for _, cm := range t.cms {
		if err := t.fillCM(cm, l.bounds); err != nil {
			return err
		}
	}
	return nil
}

// stagedRows are a load's rows in clustered order, copied into two
// compact arrays: each row's int and float columns as the heap encodes
// them, and its strings.
type stagedRows struct {
	sch      Schema
	fixed    []byte   // row i's int and float columns, encoded: fixedLen bytes from i*fixedLen
	strs     []string // row i's strings: nstr from i*nstr
	fixedLen int
	nstr     int
}

// stageSorted copies rows, which checkRow accepted, into stagedRows in
// order's order, reading them front to back: each row's values are
// written to its place, which costs far less than reading them there.
func stageSorted(sch Schema, rows []value.Row, order []int) *stagedRows {
	st := &stagedRows{sch: sch}
	for _, c := range sch.Cols {
		if c.Kind == value.String {
			st.nstr++
		} else {
			st.fixedLen += 8
		}
	}
	rank := make([]int32, len(rows))
	for i, pos := range order {
		rank[pos] = int32(i)
	}
	st.fixed = make([]byte, len(rows)*st.fixedLen)
	st.strs = make([]string, len(rows)*st.nstr)
	for pos, r := range rows {
		i := int(rank[pos])
		fixed, strs := st.fixed[i*st.fixedLen:(i+1)*st.fixedLen], st.strs[i*st.nstr:(i+1)*st.nstr]
		for j, c := range sch.Cols {
			switch c.Kind {
			case value.Int:
				binary.LittleEndian.PutUint64(fixed, uint64(r[j].I))
				fixed = fixed[8:]
			case value.Float:
				binary.LittleEndian.PutUint64(fixed, floatBits(r[j].F))
				fixed = fixed[8:]
			default:
				strs[0], strs = r[j].S, strs[1:]
			}
		}
	}
	return st
}

// appendTuple appends row i's heap encoding, Schema.AppendRow's, to dst.
func (st *stagedRows) appendTuple(dst []byte, i int) []byte {
	fixed := st.fixed[i*st.fixedLen : (i+1)*st.fixedLen]
	strs := st.strs[i*st.nstr : (i+1)*st.nstr]
	for _, c := range st.sch.Cols {
		if c.Kind != value.String {
			dst, fixed = append(dst, fixed[:8]...), fixed[8:]
			continue
		}
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(strs[0])))
		dst, strs = append(dst, strs[0]...), strs[1:]
	}
	return dst
}

// dropTree gives the pages of a replaced tree back to the disk. Built
// trees take no frame, but a reader may have read one since, or a write
// changed it, so a tree with a page in the pool keeps its pages. Caller
// holds the latch exclusively, so no reader is in the tree.
func (t *Table) dropTree(tree *btree.Tree) {
	for p := range tree.PageCount() {
		if t.pool.Resident(tree.FileID(), p) {
			return
		}
	}
	t.pool.Disk().Shrink(tree.FileID(), 0)
}
