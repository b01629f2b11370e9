// Package table ties the storage substrates together: a slotted-page heap
// holding rows physically sorted by the clustered attribute, the sparse
// clustered index over it (the clustered bucket bounds plus the
// bucket→page directory, both memory-resident), optional secondary
// B+Tree indexes, and correlation maps maintained alongside them. It also
// collects the statistics the cost model and CM Advisor consume (Tables 1
// and 2 of the paper).
package table

import (
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
	// retired are finished statements' versions on their way out,
	// oldest first (reclaim.go), changed only by writer-gate holders
	// under the latch.
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

// CreateIndex builds a dense secondary B+Tree index over cols by scanning
// the heap, and counts the index's pair statistics (Index.Pairs) in the
// same scan, from each entry's encoded key and the row's clustered key,
// a run of equal keys at a time: the planner prices the index from them
// without reading the heap again. The scan encodes every entry once,
// into one arena, straight from the tuple's bytes (no row is decoded),
// and the tree is built from it bottom-up (btree.Build), so it takes no
// pool frame. Over an empty table it counts nothing; a later Load does.
// It first drains the cleanup queue, as BeginWrite does.
func (t *Table) CreateIndex(name string, cols []int) (*Index, error) {
	if err := t.drain(); err != nil {
		return nil, err
	}
	for _, c := range cols {
		if c < 0 || c >= len(t.cfg.Schema.Cols) {
			return nil, fmt.Errorf("table %s: index column %d out of range", t.cfg.Name, c)
		}
	}
	tree, pc, err := t.buildIndex(cols)
	if err != nil {
		return nil, err
	}
	ix := &Index{Name: name, Cols: cols, Tree: tree}
	if pc.Rows() > 0 {
		ix.pairs.Store(countedPairs(pc, t.written.Load()))
	}
	t.secondary = append(t.secondary, ix)
	return ix, nil
}

// buildIndex is CreateIndex's build, and Load's for the indexes created
// before it: one scan of the heap encodes every entry of an index over
// cols and counts its pair statistics, and the tree is built from the
// entries.
func (t *Table) buildIndex(cols []int) (*btree.Tree, *stats.PairCounter, error) {
	sch := t.cfg.Schema
	pairs := pairRuns{pc: stats.NewPairCounter()}
	ent := entries{offs: make([]int, 1, t.heapf.TupleCount()+1)}
	ixFields, cFields := sch.keyFields(cols), sch.keyFields(t.cfg.ClusteredCols)
	var ckey []byte
	err := t.scanTuples(func(rid heap.RID, tuple []byte) bool {
		ckey = cFields.appendKey(ckey[:0], tuple)
		pairs.add(ent.add(&ixFields, tuple, rid), ckey)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	tree, err := ent.build(t.pool)
	if err != nil {
		return nil, nil, err
	}
	return tree, pairs.counter(), nil
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
// can later answer index-only (the cm-agg path). It first drains the
// cleanup queue, as BeginWrite does.
func (t *Table) CreateCM(spec core.Spec) (*core.CM, error) {
	if err := t.drain(); err != nil {
		return nil, err
	}
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
	if err := t.fillCM(cm); err != nil {
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
	return t.fillCM(cm)
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

// Scan visits every live row in physical order, decoding only the
// columns cols lists (every column when cols is nil; ascending, as
// scanCols gives them, decodes in one walk of the tuple) into one
// scratch row reused for every tuple: the row fn gets is valid only
// during the call, like the executor's RowFunc, and a caller that keeps
// it keeps a Clone. Every tuple is checked whole first
// (Schema.CheckTuple), so a malformed one fails the scan with DecodeRow's
// error whichever columns are decoded. Returning false stops the scan.
func (t *Table) Scan(cols []int, fn func(rid heap.RID, row value.Row) bool) error {
	return t.scan(cols, false, fn)
}

// scan is Scan; view decodes strings as views of the tuple, valid only
// during the call, so a scan that only compares or encodes its rows'
// strings (building an index or a CM, counting pair statistics)
// allocates none.
func (t *Table) scan(cols []int, view bool, fn func(rid heap.RID, row value.Row) bool) error {
	sch := t.cfg.Schema
	if cols == nil {
		cols = make([]int, len(sch.Cols))
		for i := range cols {
			cols[i] = i
		}
	}
	row := make(value.Row, len(sch.Cols))
	var decodeErr error
	err := t.scanTuples(func(rid heap.RID, tuple []byte) bool {
		decodeErr = sch.decodeCols(row, tuple, cols, view)
		return decodeErr == nil && fn(rid, row)
	})
	if decodeErr != nil {
		return decodeErr
	}
	return err
}

// scanTuples visits every live tuple in physical order, each checked
// whole first (Schema.CheckTuple): a malformed one fails the scan with
// DecodeRow's error. The tuple is valid only during the call. Returning
// false stops the scan.
func (t *Table) scanTuples(fn func(rid heap.RID, tuple []byte) bool) error {
	cols, l := t.cfg.Schema.Cols, t.cfg.Schema.layout()
	var checkErr error
	err := t.heapf.Scan(func(rid heap.RID, tuple []byte) bool {
		checkErr = l.check(cols, tuple)
		return checkErr == nil && fn(rid, tuple)
	})
	if checkErr != nil {
		return checkErr
	}
	return err
}

// scanCols returns the distinct columns of the lists, ascending: what a
// Scan feeding all of them must decode.
func scanCols(lists ...[]int) []int {
	var cols []int
	for _, l := range lists {
		cols = append(cols, l...)
	}
	slices.Sort(cols)
	return slices.Compact(cols)
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
	var ukey, ckey []byte
	err := t.scan(scanCols(uCols, t.cfg.ClusteredCols), true, func(_ heap.RID, row value.Row) bool {
		ukey = keyenc.AppendRowPrefix(ukey[:0], row, uCols)
		ckey = keyenc.AppendRowPrefix(ckey[:0], row, t.cfg.ClusteredCols)
		pc.Add(ukey, ckey)
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
