// Package repro is a Go reproduction of "Correlation Maps: A Compressed
// Access Method for Exploiting Soft Functional Dependencies" (Kimura,
// Huo, Rasin, Madden, Zdonik — VLDB 2009).
//
// It provides a self-contained storage engine (simulated disk, buffer
// pool, slotted-page heaps, B+Trees, write-ahead log) on which the
// paper's contribution runs: Correlation Maps (CMs), a compressed
// secondary access method that maps each (bucketed) value of an
// unclustered attribute to the clustered-attribute buckets it co-occurs
// with. Queries over the unclustered attribute are answered through the
// clustered index and re-filtered, so a kilobyte-scale CM replaces a
// dense secondary B+Tree wherever a soft functional dependency links the
// two attributes.
//
// The package exposes:
//
//   - a DB/Table API with clustered bulk loads, inserts and 2PC-style
//     commits (Open, CreateTable, Load, Insert, Commit)
//   - secondary B+Tree indexes and correlation maps (CreateIndex,
//     CreateCM) with bucketing control
//   - one context-taking door per statement kind: queries through
//     SelectSpec (predicate builders Eq, Ne, In, Between, Ge, Le, Gt, Lt
//     across five access paths, chosen by the paper's correlation-aware
//     cost model or forced explicitly), writes through UpdateCtx and
//     DeleteCtx, plans through ExplainSpec and ExplainAnalyzeSpec
//   - a SQL front-end (ExecScriptStreamCtx, the one in-order script
//     executor, with ExecScriptCtx and Exec as sugar) parsing the
//     dialect described in the README onto the same engine
//   - the CM Advisor (Advise, DiscoverFDs): soft-FD discovery, bucketing
//     enumeration and design recommendation under a performance target
//
// Elapsed times reported by the engine are virtual, disk-bound durations
// derived from the paper's measured hardware constants, which makes
// experiment shapes reproducible on any host.
package repro

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/wal"
)

// Kind identifies a column type: the engine's own value kind.
type Kind = value.Kind

// Column kinds.
const (
	Int    = value.Int
	Float  = value.Float
	String = value.String
)

// Value is a dynamically typed scalar.
type Value struct {
	v value.Value
}

// A Value is its engine value and nothing more, so a Row has a
// value.Row's layout and Load can hand its rows over without copying
// them; this fails to compile if the sizes ever differ.
var _ = [1]struct{}{}[unsafe.Sizeof(Value{})-unsafe.Sizeof(value.Value{})]

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{value.NewInt(i)} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{value.NewFloat(f)} }

// StringVal builds a string value.
func StringVal(s string) Value { return Value{value.NewString(s)} }

// Int returns the integer payload.
func (v Value) Int() int64 { return v.v.I }

// Float returns the float payload.
func (v Value) Float() float64 { return v.v.F }

// Str returns the string payload.
func (v Value) Str() string { return v.v.S }

// String renders the payload.
func (v Value) String() string { return v.v.String() }

// Row is a tuple of values positionally matching the table schema.
type Row []Value

func (r Row) internal() value.Row {
	out := make(value.Row, len(r))
	for i, v := range r {
		out[i] = v.v
	}
	return out
}

func externalRow(r value.Row) Row {
	out := make(Row, len(r))
	for i, v := range r {
		out[i] = Value{v}
	}
	return out
}

// Config holds engine parameters. Zero values select the paper's
// defaults: 8 KiB pages, 5.5 ms seeks, 0.078 ms sequential page reads,
// a 4096-page buffer pool and a GOMAXPROCS-sized scan worker pool.
// Every field changes something a caller can observe, and
// TestConfigFieldsHaveEffect holds each one to that; a setting that
// would ship off by default and change nothing measurable has no field.
type Config struct {
	PageSize        int
	SeekCost        time.Duration
	SeqPageCost     time.Duration
	BufferPoolPages int
	// Workers bounds the scan fan-out: table scans, sorted index scans
	// and CM scans sweep their pages on at most this many goroutines —
	// and on the caller's alone when the page set has neither enough
	// pages to split nor a cache miss to overlap, as a point probe's does
	// not. 0 selects GOMAXPROCS; 1 keeps every scan serial.
	Workers int
	// IOWaitScale, when positive, makes every simulated disk access
	// block for its virtual cost divided by this factor (10 turns a
	// 5.5 ms seek into a 0.55 ms wait). Concurrent workers overlap
	// their waits, so wall-clock timings of parallel scans behave like
	// a disk-bound system on hardware with internal I/O parallelism.
	// Zero disables real waits; virtual-time accounting is unaffected.
	IOWaitScale int
	// StatementTimeout, when positive, bounds every statement's wall
	// time: a statement exceeding it is cancelled through the engine's
	// context checks and fails with context.DeadlineExceeded. Zero
	// disables the deadline. Adjustable at runtime with
	// SetStatementTimeout or SQL's SET statement_timeout.
	StatementTimeout time.Duration
}

// DB is a database instance: one simulated disk, buffer pool and WAL
// shared by its tables.
//
// DB is safe for concurrent use, with MVCC snapshot reads: every query
// captures the table's published version at statement start and filters
// heap tuples through per-tuple begin/end timestamps, so SelectSpec and
// the other read APIs never wait on a concurrent Insert, DeleteCtx,
// UpdateCtx or Load and never observe a half-applied statement. Writer statements
// serialize against each other (and DDL) on a per-table writer gate and
// apply their mutations in small latched batches. The buffer pool
// (sharded locks), simulated disk and WAL are thread-safe underneath, so
// queries on different tables never block each other.
type DB struct {
	disk    *sim.Disk
	pool    *buffer.Pool
	log     *wal.Log
	workers int

	// Observability (see metrics.go): the registry names every layer's
	// counters, scanObs receives engine-wide scan work when metrics are
	// enabled, queryHist times statements, writeObs instruments the MVCC
	// write path of every table.
	reg       *metrics.Registry
	scanObs   *exec.ScanObs
	queryHist *metrics.Histogram
	writeObs  *table.WriteObs

	// Fault tolerance (see cancel-related code in runspec.go):
	// stmtTimeout is the per-statement deadline in nanoseconds (0 =
	// none); the counters tally statements ended by cancellation or
	// deadline.
	stmtTimeout atomic.Int64
	qCancelled  *metrics.Counter
	qTimedOut   *metrics.Counter

	mu     sync.RWMutex // guards the tables map and shared
	tables map[string]*Table
	// shared holds the counters other layers registered through
	// MetricCounter (internal/server's server.*), by name.
	shared map[string]*metrics.Counter
}

// Open creates a database.
func Open(cfg Config) *DB {
	disk := sim.NewDisk(sim.Config{
		PageSize:      cfg.PageSize,
		SeekCost:      cfg.SeekCost,
		SeqPageCost:   cfg.SeqPageCost,
		RealWaitScale: cfg.IOWaitScale,
	})
	pages := cfg.BufferPoolPages
	if pages <= 0 {
		pages = 4096
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = exec.DefaultWorkers()
	}
	db := &DB{
		disk:    disk,
		pool:    buffer.NewPool(disk, pages),
		log:     wal.NewLog(disk),
		workers: workers,
		tables:  make(map[string]*Table),
		shared:  make(map[string]*metrics.Counter),
	}
	db.initMetrics()
	db.stmtTimeout.Store(int64(cfg.StatementTimeout))
	return db
}

// Workers returns the configured scan fan-out.
func (db *DB) Workers() int { return db.workers }

// SetStatementTimeout changes the per-statement deadline at runtime
// (Config.StatementTimeout); zero or negative disables it. Statements
// already running keep the deadline they started with.
func (db *DB) SetStatementTimeout(d time.Duration) {
	if d < 0 {
		d = 0
	}
	db.stmtTimeout.Store(int64(d))
}

// StatementTimeout reports the current per-statement deadline (zero =
// disabled).
func (db *DB) StatementTimeout() time.Duration {
	return time.Duration(db.stmtTimeout.Load())
}

// Column declares one attribute of a table.
type Column struct {
	Name string
	Kind Kind
}

// TableSpec declares a table.
type TableSpec struct {
	Name        string
	Columns     []Column
	ClusteredBy []string // clustering key column names, in order
	// BucketPages sets the clustered bucket granularity in pages
	// (default 10, per the paper's Table 3). BucketTuples overrides it
	// in tuples when positive; 1 gives per-value buckets.
	BucketPages  int
	BucketTuples int
}

// CreateTable creates an empty clustered table.
func (db *DB) CreateTable(spec TableSpec) (*Table, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.tables[spec.Name]; ok {
		return nil, fmt.Errorf("repro: table %q exists", spec.Name)
	}
	cols := make([]table.Column, len(spec.Columns))
	for i, c := range spec.Columns {
		if c.Kind > String {
			return nil, fmt.Errorf("repro: column %q has unknown kind %v", c.Name, c.Kind)
		}
		cols[i] = table.Column{Name: c.Name, Kind: c.Kind}
	}
	sch := table.NewSchema(cols...)
	var ccols []int
	for _, name := range spec.ClusteredBy {
		i := sch.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("repro: unknown clustering column %q", name)
		}
		ccols = append(ccols, i)
	}
	inner, err := table.New(db.pool, db.log, table.Config{
		Name:          spec.Name,
		Schema:        sch,
		ClusteredCols: ccols,
		BucketPages:   spec.BucketPages,
		BucketTuples:  spec.BucketTuples,
	})
	if err != nil {
		return nil, err
	}
	inner.SetWriteObs(db.writeObs)
	t := &Table{db: db, inner: inner}
	db.tables[spec.Name] = t
	return t, nil
}

// Table returns a table by name, or nil.
func (db *DB) Table(name string) *Table {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables[name]
}

// lookup resolves a statement's target table.
func (db *DB) lookup(name string) (*Table, error) {
	if t := db.Table(name); t != nil {
		return t, nil
	}
	return nil, fmt.Errorf("repro: no table %q", name)
}

// allTables snapshots the tables sorted by name, for operations that
// must latch every table in a deterministic order.
func (db *DB) allTables() []*Table {
	db.mu.RLock()
	out := make([]*Table, 0, len(db.tables))
	for _, t := range db.tables {
		out = append(out, t)
	}
	db.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}

// IOStats reports the disk counters and the virtual clock.
type IOStats struct {
	Reads      uint64
	Writes     uint64
	Seeks      uint64
	Elapsed    time.Duration
	PoolHits   uint64
	PoolMisses uint64
}

// Stats returns a snapshot of I/O counters.
func (db *DB) Stats() IOStats {
	ds := db.disk.Stats()
	ps := db.pool.Stats()
	return IOStats{
		Reads:      ds.Reads,
		Writes:     ds.Writes,
		Seeks:      ds.Seeks(),
		Elapsed:    ds.Elapsed,
		PoolHits:   ps.Hits,
		PoolMisses: ps.Misses,
	}
}

// ResetStats zeroes the I/O counters and virtual clock.
func (db *DB) ResetStats() {
	db.disk.ResetStats()
	db.pool.ResetStats()
}

// PinnedFrames reports buffer-pool frames currently pinned. It is zero
// whenever no statement is mid-scan, so tests assert on it after
// aborted or cancelled statements to prove every page was released.
func (db *DB) PinnedFrames() int { return db.pool.PinnedFrames() }

// FaultPlan is the simulated disk's deterministic fault-injection plan,
// an alias of sim.FaultPlan; its fields select which accesses fail (the
// Nth read or write, every Kth access, a page range, a seeded read
// probability).
type FaultPlan = sim.FaultPlan

// ErrInjected marks every error produced by an armed fault plan; test
// with errors.Is.
var ErrInjected = sim.ErrInjected

// SetFaultPlan arms deterministic fault injection on the simulated disk
// (nil or an all-zero plan disarms it). Injected faults surface from
// whatever statement touched the failing page as clean errors wrapping
// ErrInjected, leaving latches, buffer pins and MVCC state intact — the
// harness behind the chaos tests and the README's fault-plan examples.
func (db *DB) SetFaultPlan(fp *FaultPlan) { db.disk.SetFaultPlan(fp) }

// ColdCache flushes and drops every cached page, modeling the paper's
// between-runs cache drop. It takes every table's writer gate and latch
// (in name order) so no statement is mid-flight and no query holds
// pinned frames while the pool empties.
func (db *DB) ColdCache() error {
	tables := db.allTables()
	for _, t := range tables {
		t.inner.LockWrite()
	}
	defer func() {
		for i := len(tables) - 1; i >= 0; i-- {
			tables[i].inner.UnlockWrite()
		}
	}()
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	db.pool.Invalidate()
	return nil
}

// Table is a clustered table with its access methods. Safe for
// concurrent use: reads run against the MVCC snapshot captured at
// statement start, mutations run as writer statements behind the
// per-table writer gate, so a query never observes — and never waits
// out — a half-applied insert, update, delete or load.
type Table struct {
	db    *DB
	inner *table.Table
}

// planStats is the statistics provider every table plans with. It holds
// no state — pair statistics live on the indexes — so one serves all.
var planStats = exec.NewExactStats()

// Name returns the table name.
func (t *Table) Name() string { return t.inner.Name() }

// colIndex resolves a column name.
func (t *Table) colIndex(name string) (int, error) {
	i := t.inner.Schema().ColIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("repro: table %s has no column %q", t.inner.Name(), name)
	}
	return i, nil
}

// Load bulk-loads rows in clustered order. It must run before CMs are
// created, and only once; an index created before it gets the rows, and
// its pair statistics are counted from them. The load runs as one MVCC
// writer statement: concurrent readers proceed against the empty table
// until it publishes. The table reads rows during the call, in place,
// and keeps none of them: the caller may reuse them once Load returns.
func (t *Table) Load(rows []Row) error {
	// A Row and a value.Row share their layout (see Value), so the rows
	// go through as they are.
	return t.inner.Load(unsafe.Slice((*value.Row)(unsafe.Pointer(unsafe.SliceData(rows))), len(rows)))
}

// Insert appends one row, maintaining the clustered index, all secondary
// indexes and all CMs, under WAL logging. It runs as a writer statement:
// the row becomes visible to new snapshots atomically at publish.
func (t *Table) Insert(row Row) error {
	return t.insertRows(nil, []value.Row{row.internal()})
}

// insertRows is the one INSERT statement, native or SQL: every row goes
// into one writer statement, so the rows publish together or not at all,
// under the bracket writeStmt gives UPDATE and DELETE — the statement
// timeout, a dead context refused, the context polled between latch
// bursts, the latency observed and the outcome counted.
func (t *Table) insertRows(ctx context.Context, rows []value.Row) error {
	ctx, cancel := t.db.stmtCtx(ctx)
	defer cancel()
	if err := t.db.ctxDead(ctx); err != nil {
		return err
	}
	defer t.db.observeQuery(time.Now())
	tx := t.inner.BeginWrite()
	tx.SetContext(ctx)
	err := tx.InsertBatch(rows)
	if err == nil {
		err = tx.Publish()
	} else {
		err = errors.Join(err, tx.Abort())
	}
	t.db.noteOutcome(err)
	return err
}

// Set is one assignment of an UpdateCtx statement: the named column
// takes the given value for every matching row.
type Set struct {
	Col string
	Val Value
}

// setClauses resolves UpdateCtx's assignments against the schema.
func (t *Table) setClauses(sets []Set) ([]exec.SetClause, error) {
	out := make([]exec.SetClause, len(sets))
	for i, s := range sets {
		ci, err := t.colIndex(s.Col)
		if err != nil {
			return nil, err
		}
		out[i] = exec.SetClause{Col: ci, Val: s.Val.v}
	}
	return out, nil
}

// UpdateCtx replaces the named columns of every row of the named table
// matching the predicates and returns how many rows changed — the native
// form of SQL's UPDATE. It compiles through the plan layer (EXPLAIN-able,
// cost-based access path for the WHERE clause) and runs as one writer
// statement: each row is retracted and reinserted per the paper's
// Algorithm 1, so CM per-entry statistics stay exact, and concurrent
// snapshot readers see the whole update or none of it. The resulting
// table state is byte-identical for any Config.Workers. The read phase
// polls ctx through its access path and the write phase between latched
// bursts, so a cancelled statement aborts cleanly with the table
// unchanged. A nil ctx never cancels; the configured statement timeout
// applies either way.
func (db *DB) UpdateCtx(ctx context.Context, table string, sets []Set, preds ...Pred) (int64, error) {
	t, spec, err := db.resolve(QuerySpec{Table: table, Preds: preds})
	if err != nil {
		return 0, err
	}
	esets, err := t.setClauses(sets)
	if err != nil {
		return 0, err
	}
	n, _, err := t.writeStmt(ctx, false, spec, esets, runPlain)
	return n, err
}

// DeleteCtx removes every row of the named table matching the
// predicates and returns how many were deleted — the native form of
// SQL's DELETE. Like UpdateCtx it compiles through the plan layer and
// runs as one writer statement: snapshots taken before publish keep
// seeing every matching row, snapshots taken after see none, and a
// cancelled statement aborts cleanly with the table keeping every row.
// A nil ctx never cancels; the configured statement timeout applies
// either way.
func (db *DB) DeleteCtx(ctx context.Context, table string, preds ...Pred) (int64, error) {
	t, spec, err := db.resolve(QuerySpec{Table: table, Preds: preds})
	if err != nil {
		return 0, err
	}
	n, _, err := t.writeStmt(ctx, true, spec, nil, runPlain)
	return n, err
}

// Commit flushes the WAL with the prototype's two-phase-commit
// discipline.
func (t *Table) Commit() error {
	t.inner.LockWrite()
	defer t.inner.UnlockWrite()
	return t.inner.Commit()
}

// RowCount returns the number of live rows.
func (t *Table) RowCount() int64 {
	t.inner.RLock()
	defer t.inner.RUnlock()
	return t.inner.Stats().TotalTups
}

// HeapPages returns the number of heap pages.
func (t *Table) HeapPages() int64 {
	t.inner.RLock()
	defer t.inner.RUnlock()
	return t.inner.Stats().Pages
}

// CreateIndex builds a dense secondary B+Tree index over the named
// columns.
func (t *Table) CreateIndex(name string, cols ...string) error {
	idxCols := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.colIndex(c)
		if err != nil {
			return err
		}
		idxCols[i] = ci
	}
	return t.createIndex(name, idxCols)
}

// createIndex is CreateIndex over resolved columns, SQL's door.
func (t *Table) createIndex(name string, cols []int) error {
	t.inner.LockWrite()
	defer t.inner.UnlockWrite()
	_, err := t.inner.CreateIndex(name, cols)
	return err
}

// CMColumn describes one column of a CM design with its bucketing.
type CMColumn struct {
	Name string
	// Level buckets the column at width 2^Level (0 = unbucketed), the
	// power-of-two scheme the paper's advisor enumerates.
	Level int
	// Width, when positive, buckets numerically at this exact width and
	// takes precedence over Level.
	Width float64
	// Prefix, when positive, buckets string columns by their first
	// Prefix bytes and takes precedence over Level.
	Prefix int
}

// CreateCM builds a correlation map over the given columns (Algorithm 1:
// one clustered scan recording co-occurrences).
func (t *Table) CreateCM(name string, cols ...CMColumn) error {
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.colIndex(c.Name)
		if err != nil {
			return err
		}
		idx[i] = ci
	}
	return t.createCM(name, cols, idx)
}

// createCM is CreateCM over resolved columns (idx[i] is cols[i]'s index),
// SQL's door.
func (t *Table) createCM(name string, cols []CMColumn, idx []int) error {
	if len(cols) == 0 {
		return fmt.Errorf("repro: CM %q needs at least one column", name)
	}
	spec := core.Spec{Name: name}
	for i, c := range cols {
		ci := idx[i]
		spec.UCols = append(spec.UCols, ci)
		kind := t.inner.Schema().Cols[ci].Kind
		var b core.Bucketer
		switch {
		case c.Prefix > 0 && kind == value.String:
			b = core.StringPrefix{Len: c.Prefix}
		case c.Width > 0 && kind == value.Float:
			b = core.FloatWidth{Width: c.Width}
		case c.Width > 0 && kind == value.Int:
			w := int64(c.Width)
			if w < 1 {
				w = 1
			}
			b = core.IntWidth{Width: w}
		default:
			b = core.BucketerForLevel(kind, c.Level)
		}
		spec.Bucketers = append(spec.Bucketers, b)
	}
	t.inner.LockWrite()
	defer t.inner.UnlockWrite()
	_, err := t.inner.CreateCM(spec)
	return err
}

// CMInfo reports a correlation map's vital statistics.
type CMInfo struct {
	Name      string
	Columns   []string
	SizeBytes int64
	Keys      int
	Pairs     int64
	CPerU     float64
	// StatsBytes is the memory the per-pair aggregate statistics powering
	// index-only aggregation (cm-agg) own: their column arrays at their
	// capacities plus the distinct strings they hold with their interning
	// entries. It is reported separately from SizeBytes, which remains
	// the paper's serialized-CM metric.
	StatsBytes int64
	// DirectoryBytes is the in-memory footprint of the table's clustered
	// bucket directory — lower-bound keys plus the bucket→page lists a
	// CM probe resolves through. It is one structure shared by every CM
	// of the table (the same value on each), engine metadata reported
	// beside SizeBytes and never folded into it.
	DirectoryBytes int64
}

// CMs lists the table's correlation maps.
func (t *Table) CMs() []CMInfo {
	t.inner.RLock()
	defer t.inner.RUnlock()
	var out []CMInfo
	sch := t.inner.Schema()
	for _, cm := range t.inner.CMs() {
		info := CMInfo{
			Name:           cm.Spec().Name,
			SizeBytes:      cm.SizeBytes(),
			Keys:           cm.Keys(),
			Pairs:          cm.Pairs(),
			CPerU:          cm.CPerU(),
			StatsBytes:     cm.StatsSizeBytes(),
			DirectoryBytes: t.inner.DirectorySizeBytes(),
		}
		for _, c := range cm.Spec().UCols {
			info.Columns = append(info.Columns, sch.Cols[c].Name)
		}
		out = append(out, info)
	}
	return out
}

// IndexInfo reports a secondary index's footprint.
type IndexInfo struct {
	Name      string
	Columns   []string
	SizeBytes int64
	Entries   int64
	Height    int
}

// Indexes lists the table's secondary indexes.
func (t *Table) Indexes() []IndexInfo {
	t.inner.RLock()
	defer t.inner.RUnlock()
	var out []IndexInfo
	sch := t.inner.Schema()
	for _, ix := range t.inner.Indexes() {
		info := IndexInfo{
			Name:      ix.Name,
			SizeBytes: ix.SizeBytes(),
			Entries:   ix.Tree.Len(),
			Height:    ix.Tree.Height(),
		}
		for _, c := range ix.Cols {
			info.Columns = append(info.Columns, sch.Cols[c].Name)
		}
		out = append(out, info)
	}
	return out
}
