// Package table ties the storage substrates together: a slotted-page heap
// holding rows physically sorted by the clustered attribute, the sparse
// clustered index over it (the clustered bucket bounds plus the
// bucket→page directory, both memory-resident), optional secondary
// B+Tree indexes, and correlation maps maintained alongside them. It also
// collects the statistics the cost model and CM Advisor consume (Tables 1
// and 2 of the paper).
package table

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/stats"
	"repro/internal/value"
	"repro/internal/wal"
)

// Config describes a table to create.
type Config struct {
	Name          string
	Schema        Schema
	ClusteredCols []int // columns of the clustering key, in order
	// BucketPages sets the clustered bucket directory granularity in
	// pages per bucket (Section 6.1.1). The paper finds ~10 pages per
	// bucket loses almost nothing (Table 3); 0 selects that default.
	BucketPages int
	// BucketTuples, when positive, sets the bucket target directly in
	// tuples per bucket, overriding BucketPages. A value of 1 gives every
	// distinct clustered value its own bucket (an unbucketed clustered
	// attribute, as in the paper's Figure 4 example).
	BucketTuples int
}

// DefaultBucketPages is the clustered bucketing granularity used when the
// configuration does not specify one.
const DefaultBucketPages = 10

// Table is a clustered table with its access methods.
//
// Concurrency: the table carries a reader/writer latch but its methods do
// not take it themselves — callers bracket whole operations so a
// multi-step read (index probe, then heap sweep) observes one consistent
// state. Readers (Scan, index and CM probes) run concurrently under
// RLock; mutators (Commit, CreateIndex, CreateCM, RecoverCM,
// CheckpointCM) require Lock, while writer statements (Load, and
// BeginWrite through Publish) take the writer gate and their own short
// exclusive holds. The repro facade
// acquires the latch automatically; code driving Table directly
// single-threaded (experiments, tests) may skip it entirely.
type Table struct {
	cfg  Config
	pool *buffer.Pool
	log  *wal.Log

	mu sync.RWMutex

	// wmu is the writer gate: it serializes writer statements (Insert,
	// Delete, Update, Load) and DDL against each other while leaving
	// readers on the mu side free. Lock ordering is always wmu before mu.
	wmu sync.Mutex

	// clock is the published commit timestamp. Readers snapshot it under
	// RLock; a writer statement stamps its versions with clock+1 and
	// publishes by storing that value after its last exclusive hold.
	clock atomic.Uint64

	// written counts the row versions published writer statements have
	// written (inserted plus ended), the clock secondary indexes' pair
	// statistics are stamped with.
	written atomic.Int64

	// writerActive is true while a writer statement is between BeginWrite
	// and Publish/Abort. The optimizer consults it to skip cm-agg
	// lowering: mid-statement CM statistics include the writer's
	// additions but not its deferred retractions.
	writerActive atomic.Bool

	heapf    *heap.File
	cbuckets *core.ClusteredBuckets
	// pageDir resolves a clustered bucket to its heap pages (see
	// PageDirectory); with cbuckets it is the table's clustered index.
	pageDir PageDirectory
	// keyWidth is the mean encoded width of the clustering keys Load
	// sorted, rounded up; 0 before a load (see Stats).
	keyWidth int

	secondary []*Index
	cms       []*core.CM

	// writeObs is the optional write-path metric set (see WriteObs),
	// installed by SetWriteObs and read atomically by writer statements.
	writeObs atomic.Pointer[WriteObs]

	// placing is the running statement's per-bucket placement state
	// (reclaim.go), owned by the writer gate and cleared by BeginWrite.
	placing map[int32]placement
	// pins are the snapshots PinSnapshot holds, guarded by pinMu;
	// retired are published statements' old versions some pin can
	// still read, oldest first, guarded by the latch.
	pinMu   sync.Mutex
	pins    []uint64
	retired []retiredStmt

	loaded bool
}

// SetWriteObs installs (or, with nil, removes) the write-path metric
// set. Safe to call while writer statements run.
func (t *Table) SetWriteObs(o *WriteObs) { t.writeObs.Store(o) }

// New creates an empty table. Rows arrive only through writer
// statements: Load (bulk, clustered) or BeginWrite's WriteTxn.
func New(pool *buffer.Pool, log *wal.Log, cfg Config) (*Table, error) {
	if len(cfg.ClusteredCols) == 0 {
		return nil, fmt.Errorf("table %s: clustered columns required", cfg.Name)
	}
	for _, c := range cfg.ClusteredCols {
		if c < 0 || c >= len(cfg.Schema.Cols) {
			return nil, fmt.Errorf("table %s: clustered column %d out of range", cfg.Name, c)
		}
	}
	if cfg.BucketPages <= 0 {
		cfg.BucketPages = DefaultBucketPages
	}
	// Attach the shared schema layout (name map, field offsets) so every
	// Schema() copy handed to binders and executors has the fast paths.
	cfg.Schema = cfg.Schema.Normalized()
	t := &Table{cfg: cfg, pool: pool, log: log, placing: map[int32]placement{}}
	t.heapf = heap.NewFile(pool)
	t.cbuckets = core.NewClusteredBuckets(nil)
	// The clock starts published at 1 so snapshot 0 stays free as the
	// "latest" sentinel: every facade reader gets a real timestamp.
	t.clock.Store(1)
	return t, nil
}

// RLock takes the table latch in shared mode: any number of concurrent
// readers, no writers. Hold it for the full duration of a query so its
// index probes and heap sweeps see one consistent table state.
func (t *Table) RLock() { t.mu.RLock() }

// RUnlock releases a shared hold of the table latch.
func (t *Table) RUnlock() { t.mu.RUnlock() }

// Lock takes the table latch exclusively, for mutations.
func (t *Table) Lock() { t.mu.Lock() }

// Unlock releases an exclusive hold of the table latch.
func (t *Table) Unlock() { t.mu.Unlock() }

// LockWrite acquires the writer gate and then the table latch
// exclusively — the bracket for DDL (CreateIndex, CreateCM, RecoverCM,
// Commit, cache drops), which must not interleave with a writer
// statement's batched latch holds.
func (t *Table) LockWrite() { t.wmu.Lock(); t.mu.Lock() }

// UnlockWrite releases what LockWrite acquired.
func (t *Table) UnlockWrite() { t.mu.Unlock(); t.wmu.Unlock() }

// Snapshot returns the published commit timestamp. Capture it under a
// shared latch hold and pass it to the executor: the statement then sees
// exactly the versions published at that point, regardless of concurrent
// writer batches.
func (t *Table) Snapshot() uint64 { return t.clock.Load() }

// WriterActive reports whether a writer statement is currently in flight
// (begun, not yet published or aborted).
func (t *Table) WriterActive() bool { return t.writerActive.Load() }

// Name returns the table name.
func (t *Table) Name() string { return t.cfg.Name }

// Schema returns the table schema.
func (t *Table) Schema() Schema { return t.cfg.Schema }

// ClusteredCols returns the clustering key column positions.
func (t *Table) ClusteredCols() []int { return t.cfg.ClusteredCols }

// Heap returns the underlying heap file.
func (t *Table) Heap() *heap.File { return t.heapf }

// Buckets returns the clustered bucket directory.
func (t *Table) Buckets() *core.ClusteredBuckets { return t.cbuckets }

// Pool returns the buffer pool the table runs on.
func (t *Table) Pool() *buffer.Pool { return t.pool }

// clusteredKey encodes the row's clustering attribute.
func (t *Table) clusteredKey(row value.Row) []byte {
	return keyenc.EncodeRowPrefix(row, t.cfg.ClusteredCols)
}

// ClusterBucketFor returns the clustered bucket holding the row's
// clustering key.
func (t *Table) ClusterBucketFor(row value.Row) int32 {
	return t.cbuckets.Locate(t.clusteredKey(row))
}

// Load bulk-loads rows in clustered order: rows are sorted by the
// clustering key, appended to the heap, indexed, and assigned to
// clustered buckets with the Section 6.1.1 boundary rule; the bucket each
// row is assigned goes straight into the page directory with the row's
// page, so the directory is complete when the load is. Load runs only on
// an empty table, and before any CM is created. A secondary index
// created before it gets the loaded rows' entries, and its pair
// statistics are recounted from the sorted rows in hand, not from a
// scan. Each row is validated and encoded once, and equal keys keep
// their input order.
//
// The heap is written once, in page order: as the append moves on to a
// new tail page, the full page it leaves is written back
// (buffer.Pool.WriteBack) and stays cached, clean. The pool's shards
// would otherwise evict the load's dirty pages as interleaved ascending
// runs, and the disk prices every switch between them as a seek.
//
// Load is itself an MVCC writer statement: it takes the writer gate (not
// the table latch) and appends in short batched exclusive holds, so
// concurrent readers keep running — they see an empty table until the
// load publishes, then all of it.
func (t *Table) Load(rows []value.Row) error {
	tx := t.BeginWrite()
	// Bulk loads predate every CM, so replay starts after them, and they
	// append in clustered-key order.
	tx.load = true
	if t.loaded || t.heapf.TupleCount() > 0 {
		tx.Abort()
		return fmt.Errorf("table %s: already loaded", t.cfg.Name)
	}
	abort := func(err error) error {
		tx.Abort()
		return err
	}
	encs, err := tx.encode(rows)
	if err != nil {
		return abort(err)
	}
	// Rows with equal keys keep their input order: the position breaks
	// the tie, so an unstable sort gives the stable order.
	type keyed struct {
		key []byte
		pos int
	}
	ks := make([]keyed, len(rows))
	keyBytes := 0
	for i, r := range rows {
		ks[i] = keyed{key: t.clusteredKey(r), pos: i}
		keyBytes += len(ks[i].key)
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		if c := bytes.Compare(a.key, b.key); c != 0 {
			return c
		}
		return cmp.Compare(a.pos, b.pos)
	})

	// Estimate tuples per page to convert the pages-per-bucket setting
	// into the bucket builder's tuples-per-bucket target.
	var rowBytes int64
	for i := 0; i < len(ks) && i < 100; i++ {
		rowBytes += int64(len(encs[ks[i].pos]) + 4)
	}
	target := 1
	switch {
	case t.cfg.BucketTuples > 0:
		target = t.cfg.BucketTuples
	case len(ks) > 0 && rowBytes > 0:
		sampled := int64(len(ks))
		if sampled > 100 {
			sampled = 100
		}
		perRow := rowBytes / sampled
		if perRow < 1 {
			perRow = 1
		}
		tpp := int64(t.pool.Disk().PageSize()) / perRow
		if tpp < 1 {
			tpp = 1
		}
		target = int(tpp) * t.cfg.BucketPages
	}
	// The bounds are installed only when the load ends, so the rows carry
	// the builder's bucket IDs instead of locating their own.
	builder := core.NewBuilder(target)
	sorted := make([]value.Row, len(ks))
	sortedEncs := make([][]byte, len(ks))
	cbs := make([]int32, len(ks))
	for i, k := range ks {
		sorted[i], sortedEncs[i] = rows[k.pos], encs[k.pos]
		cbs[i] = builder.Add(k.key)
	}
	if err := tx.insertBatch(sorted, sortedEncs, cbs); err != nil {
		return abort(err)
	}
	// The loaded rows are the whole table. Their statistics are stamped
	// as of after the Publish below, which adds them to the written count.
	var pairs []*Pairs
	if len(ks) > 0 {
		at := t.written.Load() + int64(len(ks))
		var ukey []byte
		for _, ix := range t.secondary {
			pc := stats.NewPairCounter()
			for i, k := range ks {
				ukey = keyenc.AppendRowPrefix(ukey[:0], sorted[i], ix.Cols)
				pc.Add(ukey, k.key)
			}
			pairs = append(pairs, countedPairs(pc, at))
		}
	}
	t.mu.Lock()
	t.cbuckets = builder.Finish()
	t.pageDir.clip()
	t.heapf.Clip()
	if len(ks) > 0 {
		t.keyWidth = (keyBytes + len(ks) - 1) / len(ks)
	}
	t.loaded = true
	for j, p := range pairs {
		t.secondary[j].pairs.Store(p)
	}
	t.mu.Unlock()
	return tx.Publish()
}

// CreateIndex builds a dense secondary B+Tree index over cols by scanning
// the heap, and counts the index's pair statistics (Index.Pairs) in the
// same scan, from each entry's encoded key and the row's clustered key:
// the planner prices the index from them without reading the heap again.
// Over an empty table it counts nothing; a later Load does.
func (t *Table) CreateIndex(name string, cols []int) (*Index, error) {
	for _, c := range cols {
		if c < 0 || c >= len(t.cfg.Schema.Cols) {
			return nil, fmt.Errorf("table %s: index column %d out of range", t.cfg.Name, c)
		}
	}
	tree, err := btree.New(t.pool)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Cols: cols, Tree: tree}
	pc := stats.NewPairCounter()
	// Both keys are encoded into buffers reused across rows (the tree
	// copies what it keeps), so the count allocates nothing per row.
	var key, ckey []byte
	err = t.Scan(func(rid heap.RID, row value.Row) bool {
		key = keyenc.AppendRowPrefix(key[:0], row, cols)
		ckey = keyenc.AppendRowPrefix(ckey[:0], row, t.cfg.ClusteredCols)
		pc.Add(key, ckey)
		key = AppendRID(key, rid)
		if e := ix.Tree.Insert(key, nil); e != nil {
			err = e
			return false
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if pc.Rows() > 0 {
		ix.pairs.Store(countedPairs(pc, t.written.Load()))
	}
	t.secondary = append(t.secondary, ix)
	return ix, nil
}

// IndexPairs returns the pair statistics of the secondary index whose
// columns are exactly cols, as counted by CreateIndex or Load. An index
// created over an empty table and never loaded has none: on a non-empty
// table they are counted now, with one scan, and kept on the index. ok
// is false when no index has these columns or the scan fails. Caller
// holds the latch (shared suffices).
func (t *Table) IndexPairs(cols []int) (Pairs, bool) {
	for _, ix := range t.secondary {
		if !slices.Equal(ix.Cols, cols) {
			continue
		}
		if p, ok := ix.Pairs(); ok || t.heapf.TupleCount() == 0 {
			return p, true
		}
		pc, err := t.PairStats(cols)
		if err != nil {
			return Pairs{}, false
		}
		p := countedPairs(pc, t.written.Load())
		ix.pairs.Store(p)
		return *p, true
	}
	return Pairs{}, false
}

// RowsSincePairStats returns how many row versions published writer
// statements have written (inserted plus ended) since the stalest of the
// secondary indexes' pair statistics were counted; 0 when none were.
// Nothing maintains the statistics between counts, so this is how far
// the cost model's c_per_u may have drifted from the table. Caller holds
// the latch (shared suffices).
func (t *Table) RowsSincePairStats() int64 {
	var gap int64
	for _, ix := range t.secondary {
		if p, ok := ix.Pairs(); ok {
			gap = max(gap, t.written.Load()-p.At)
		}
	}
	return gap
}

// CreateCM builds a correlation map per Algorithm 1: one scan recording
// the co-occurrence of each (bucketed) CM key with its clustered bucket.
// When the spec does not name stat columns, every table column's
// per-entry aggregate statistics are maintained, so covered aggregates
// can later answer index-only (the cm-agg path).
func (t *Table) CreateCM(spec core.Spec) (*core.CM, error) {
	for _, c := range spec.UCols {
		if c < 0 || c >= len(t.cfg.Schema.Cols) {
			return nil, fmt.Errorf("table %s: CM column %d out of range", t.cfg.Name, c)
		}
	}
	spec, err := t.statSpec(spec)
	if err != nil {
		return nil, err
	}
	cm := core.New(spec)
	err = t.Scan(func(rid heap.RID, row value.Row) bool {
		cm.AddRow(row, t.ClusterBucketFor(row))
		return true
	})
	if err != nil {
		return nil, err
	}
	t.cms = append(t.cms, cm)
	return cm, nil
}

// statSpec completes a CM spec's statistics: every column when it names
// no stat columns (the default for CMs created through the engine).
func (t *Table) statSpec(spec core.Spec) (core.Spec, error) {
	cols := t.cfg.Schema.Cols
	if spec.StatCols == nil {
		spec.StatCols = make([]int, len(cols))
		for i := range spec.StatCols {
			spec.StatCols[i] = i
		}
	}
	for _, c := range spec.StatCols {
		if c < 0 || c >= len(cols) {
			return spec, fmt.Errorf("table %s: CM stat column %d out of range", t.cfg.Name, c)
		}
	}
	return spec, nil
}

// Indexes returns the secondary indexes.
func (t *Table) Indexes() []*Index { return t.secondary }

// CMs returns the table's correlation maps.
func (t *Table) CMs() []*core.CM { return t.cms }

// Commit makes pending logged work durable with the prototype's 2PC
// discipline: PREPARE flush then COMMIT PREPARED flush (Section 7.1).
func (t *Table) Commit() error {
	if t.log == nil {
		return nil
	}
	if err := t.log.Append(wal.Record{Type: wal.RecCommit, Target: t.cfg.Name}); err != nil {
		return err
	}
	if err := t.log.Flush(); err != nil { // PREPARE COMMIT
		return err
	}
	if err := t.log.Flush(); err != nil { // COMMIT PREPARED
		return err
	}
	return nil
}

// RecoverCM reconstructs a correlation map after a crash, as the
// prototype does (Section 7.1): start from an optional checkpoint
// (written earlier with CheckpointCM) and replay the table's logged
// inserts and deletes through the CM's maintenance operations. Replay
// reads the log from disk, charging recovery I/O. The recovered CM is
// registered with the table.
func (t *Table) RecoverCM(spec core.Spec, checkpoint io.Reader, fromLSN int64) (*core.CM, error) {
	if t.log == nil {
		return nil, fmt.Errorf("table %s: no WAL to recover from", t.cfg.Name)
	}
	spec, err := t.statSpec(spec)
	if err != nil {
		return nil, err
	}
	cm := core.New(spec)
	if checkpoint != nil {
		if err := cm.Deserialize(checkpoint); err != nil {
			return nil, err
		}
	}
	var replayErr error
	err = t.log.ReplayFrom(fromLSN, func(rec wal.Record) bool {
		if rec.Target != t.cfg.Name {
			return true
		}
		switch rec.Type {
		case wal.RecInsert, wal.RecDelete:
			row, err := t.cfg.Schema.DecodeRow(rec.Payload)
			if err != nil {
				replayErr = err
				return false
			}
			cb := t.ClusterBucketFor(row)
			if rec.Type == wal.RecInsert {
				cm.AddRow(row, cb)
			} else if err := cm.RemoveRow(row, cb); err != nil {
				replayErr = err
				return false
			}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	if replayErr != nil {
		return nil, replayErr
	}
	// A checkpoint written under another stat-column layout leaves the
	// per-entry statistics invalid, which would silently disable
	// index-only aggregation on the recovered CM. Rebuild them from one
	// heap scan before registering: recovery is already an offline,
	// exclusive operation, so the extra scan rides on the same bracket.
	if !cm.StatsValid() {
		if err := t.rebuildCMStats(cm); err != nil {
			return nil, err
		}
	}
	t.cms = append(t.cms, cm)
	return cm, nil
}

// rebuildCMStats reconstructs a CM — pair counts and per-entry aggregate
// statistics — from one scan of the live heap, restoring cm-agg pushdown
// for CMs recovered from checkpoints of another stat-column layout.
func (t *Table) rebuildCMStats(cm *core.CM) error {
	cm.Reset()
	return t.Scan(func(rid heap.RID, row value.Row) bool {
		cm.AddRow(row, t.ClusterBucketFor(row))
		return true
	})
}

// CheckpointCM serializes a CM to the writer, appends a checkpoint
// record to the WAL (the prototype's "occasionally flushes to disk"
// policy) and returns the LSN recovery should replay from.
func (t *Table) CheckpointCM(cm *core.CM, w io.Writer) (lsn int64, err error) {
	if err := cm.Serialize(w); err != nil {
		return 0, err
	}
	if t.log != nil {
		if err := t.log.Append(wal.Record{Type: wal.RecCheckpoint, Target: t.cfg.Name}); err != nil {
			return 0, err
		}
		if err := t.log.Flush(); err != nil {
			return 0, err
		}
		return t.log.Len(), nil
	}
	return 0, nil
}

// Scan visits every live row in physical order.
func (t *Table) Scan(fn func(rid heap.RID, row value.Row) bool) error {
	var decodeErr error
	err := t.heapf.Scan(func(rid heap.RID, tuple []byte) bool {
		row, err := t.cfg.Schema.DecodeRow(tuple)
		if err != nil {
			decodeErr = err
			return false
		}
		return fn(rid, row)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// Stats are the per-table quantities of the paper's Table 1.
type Stats struct {
	Pages       int64
	TotalTups   int64
	TupsPerPage float64
	// BTreeHeight is the paper's btree_height: the levels of a dense
	// B+Tree with one (clustering key ‖ RID) entry per live row, packed
	// the way internal/btree builds it from sorted inserts.
	BTreeHeight int
}

// Stats computes the current table statistics. The table keeps no dense
// tree, so BTreeHeight is computed (btree.PackedHeight) from the live row
// count and the clustering key's encoded width: the mean Load measured,
// or, on a table never loaded, 9 bytes per clustering column — a
// numeric column's encoding.
func (t *Table) Stats() Stats {
	pages := t.heapf.NumPages()
	tups := t.heapf.TupleCount()
	tpp := 0.0
	if pages > 0 {
		tpp = float64(tups) / float64(pages)
	}
	width := t.keyWidth
	if width == 0 {
		width = 9 * len(t.cfg.ClusteredCols)
	}
	return Stats{
		Pages:       pages,
		TotalTups:   tups,
		TupsPerPage: tpp,
		BTreeHeight: btree.PackedHeight(t.pool.Disk().PageSize(), tups, width+ridKeyLen),
	}
}

// PairStats scans the table once and computes the exact Table 2
// correlation statistics between the given attribute(s) and the
// clustering attribute: u_tups, c_tups and c_per_u.
func (t *Table) PairStats(uCols []int) (*stats.PairCounter, error) {
	pc := stats.NewPairCounter()
	err := t.Scan(func(rid heap.RID, row value.Row) bool {
		pc.Add(keyenc.EncodeRowPrefix(row, uCols), t.clusteredKey(row))
		return true
	})
	if err != nil {
		return nil, err
	}
	return pc, nil
}

// BucketPairStats computes correlation statistics at bucket granularity
// for a CM design: the average number of clustered *buckets* per bucketed
// CM key and the average pages spanned by one clustered bucket. These
// feed the cost model's CM prediction.
type BucketPairStats struct {
	CPerU           float64 // clustered buckets per CM key
	PagesPerCBucket float64
	Keys            int
}

// PagesPerCBucket returns the average number of heap pages one
// clustered bucket spans, from the live page count and the bucket
// directory — memory-resident state only. 0 without a directory (a
// table that was never bulk-loaded).
func (t *Table) PagesPerCBucket() float64 {
	nb := t.cbuckets.NumBuckets()
	if nb == 0 {
		return 0
	}
	return float64(t.heapf.NumPages()) / float64(nb)
}

// BucketPairStatsFor derives bucket-level statistics from an existing CM.
func (t *Table) BucketPairStatsFor(cm *core.CM) BucketPairStats {
	return BucketPairStats{
		CPerU:           cm.CPerU(),
		PagesPerCBucket: t.PagesPerCBucket(),
		Keys:            cm.Keys(),
	}
}
