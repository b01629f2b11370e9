package plan

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/value"
)

// This file implements EXPLAIN ANALYZE's measurement layer. An
// analyzed run executes the exact same code path as Run — the hooks in
// the run functions record into an analysisState only when one is
// active — so the actuals can never drift from real execution. Pages
// and buffer hits come from two sources with different scopes: the
// tree's private exec.ScanObs counts the heap page visits and tuple
// filter evaluations of this query's own scans (chunk-flushed, exact),
// while the sim.Disk and buffer.Pool deltas captured around the run
// are engine-wide — exact when the query runs alone, approximate under
// concurrent load (noted in the README).

// analysisState accumulates one analyzed run's measurements. The
// fields written by plan-layer code (accessRows, phase times, ...) are
// only touched from the emitting goroutine — collectEmit streams rows
// serially — so they are plain ints; scan workers count into obs,
// which is atomic.
type analysisState struct {
	obs        exec.ScanObs
	accessRows int64 // rows out of the access leg (before sort/limit truncation)
	outRows    int64 // rows delivered to the caller's sink
	groups     int64 // aggregate rows out of the fold (before HAVING)
	havingOut  int64 // aggregate rows surviving HAVING
	sortIn     int64
	sortOut    int64
	accessTime time.Duration
	sortTime   time.Duration
}

// now returns the current time when analysis is active, else zero —
// the hooks stay one branch on plain runs.
func (st *analysisState) now() time.Time {
	if st == nil {
		return time.Time{}
	}
	return time.Now()
}

// addAccessTime accumulates the access/fold phase duration started at
// start (no-op when analysis is inactive).
func (st *analysisState) addAccessTime(start time.Time) {
	if st != nil && !start.IsZero() {
		st.accessTime += time.Since(start)
	}
}

// NodeActuals is one operator's measured execution, paired by position
// with the Info.Nodes entry of the same tree.
type NodeActuals struct {
	// Rows is the node's output cardinality (for the update node: rows
	// written).
	Rows int64
	// TuplesIn is the node's input cardinality where it differs from
	// Rows: tuples examined for access/filter nodes, rows folded for
	// agg, rows sorted for sort. Zero for pure pass-through nodes.
	TuplesIn int64
	// HeapPages counts heap page visits (access nodes only).
	HeapPages int64
	// DiskReads is the sim.Disk page-read delta during the run,
	// attributed to the access node (engine-wide; exact when the query
	// runs alone).
	DiskReads uint64
	// BufferHits is the buffer-pool hit delta during the run
	// (attributed like DiskReads).
	BufferHits uint64
	// Elapsed is the node's phase wall time. Streaming plans fuse
	// filter/project/agg into the access sweep, so their shared phase
	// reports on the access node and fused nodes show zero.
	Elapsed time.Duration
	// FalsePositivePages counts, on a cm-scan node, the heap pages the
	// sweep visited on which no tuple survived the re-filter (HeapPages
	// is all it swept). Zero on every other node.
	FalsePositivePages int64
	// Chunks says whether the access node's page sweep fanned out: 0
	// when it ran inline on the caller's goroutine, otherwise the number
	// of chunks its page set was cut into for the worker pool.
	Chunks int64
}

// Analysis is an analyzed run's full measurement: per-node actuals
// aligned with Explain().Nodes plus run-wide totals.
type Analysis struct {
	// Nodes holds one NodeActuals per Explain().Nodes entry, same order.
	Nodes []NodeActuals
	// TotalRows is the number of rows delivered to the sink.
	TotalRows int64
	// Elapsed is the whole run's wall time.
	Elapsed time.Duration
	// DiskReads and BufferHits/BufferMisses are engine-wide deltas
	// captured around the run (see NodeActuals.DiskReads).
	DiskReads    uint64
	BufferHits   uint64
	BufferMisses uint64
	// TuplesExamined and HeapPages total the query's own scan work
	// (exact, from the per-chunk tallies).
	TuplesExamined int64
	HeapPages      int64
}

// RunAnalyzed executes the optimized tree like Run while measuring
// per-operator actuals, streaming result rows to sink and returning
// the measurements. The run itself is the real one — side effects,
// locking discipline and results are identical to Run.
func (tr *Tree) RunAnalyzed(workers int, sink RowSink) (*Analysis, error) {
	if !tr.optimized {
		return nil, fmt.Errorf("plan: RunAnalyzed before Optimize")
	}
	return tr.measure(func(st *analysisState) error {
		return tr.Run(workers, Sink{Row: func(row value.Row) bool {
			st.outRows++
			return sink(row)
		}})
	})
}

// measure is the one measured run under a SELECT's and a write
// statement's RunAnalyzed: it activates the analysis hooks, captures the
// engine-wide disk and pool deltas around run — which leaves the
// statement's row count in st.outRows — and distributes the measurements
// over the tree's operator chain.
func (tr *Tree) measure(run func(st *analysisState) error) (*Analysis, error) {
	st := &analysisState{}
	tr.an = st
	defer func() { tr.an = nil }()

	pool := tr.t.Pool()
	disk := pool.Disk()
	d0, p0 := disk.Stats(), pool.Stats()
	start := time.Now()
	err := run(st)
	elapsed := time.Since(start)
	d1, p1 := disk.Stats(), pool.Stats()
	if err != nil {
		return nil, err
	}
	// Fold the private scan observations into the engine-wide counters
	// so analyzed queries still show up in SHOW METRICS totals.
	tr.spec.Obs.AddFrom(&st.obs)

	an := &Analysis{
		TotalRows:      st.outRows,
		Elapsed:        elapsed,
		DiskReads:      d1.Reads - d0.Reads,
		BufferHits:     p1.Hits - p0.Hits,
		BufferMisses:   p1.Misses - p0.Misses,
		TuplesExamined: st.obs.Tuples.Load(),
		HeapPages:      st.obs.Pages.Load(),
	}
	an.Nodes = tr.nodeActuals(st, an)
	return an, nil
}

// nodeActuals distributes the run's measurements over the operator
// chain, one entry per Explain().Nodes row (bottom-up order).
func (tr *Tree) nodeActuals(st *analysisState, an *Analysis) []NodeActuals {
	var out []NodeActuals
	// Walk bottom-up like Explain: collect the chain, then reverse.
	var chain []*Node
	for n := tr.chain(); n != nil; n = n.Child {
		chain = append(chain, n)
	}
	for i := len(chain) - 1; i >= 0; i-- {
		out = append(out, tr.actualsFor(chain[i].Kind, st, an))
	}
	return out
}

// actualsFor computes one node kind's measured row. The row counts
// thread through the chain the way rows flowed at run time: access
// emits accessRows (or groups for cm-agg), the fused filter reports
// the scan's tuple examinations, aggregation reports folded rows in
// and groups out, HAVING/sort/limit report their survivors.
func (tr *Tree) actualsFor(k Kind, st *analysisState, an *Analysis) NodeActuals {
	tuples := st.obs.Tuples.Load()
	scanRows := st.obs.Rows.Load()
	switch k {
	case KindScan, KindUnion:
		rows := st.accessRows
		if tr.spec.IsAggregate() {
			// The fold consumes scan survivors without emitting rows
			// through the plan layer; the scan's own count is exact.
			rows = scanRows
		}
		na := NodeActuals{
			Rows:       rows,
			TuplesIn:   tuples,
			HeapPages:  st.obs.Pages.Load(),
			DiskReads:  an.DiskReads,
			BufferHits: an.BufferHits,
			Elapsed:    st.accessTime,
			Chunks:     st.obs.Chunks.Load(),
		}
		if l := tr.soleLeg(); k == KindScan && l != nil && l.method == exec.MethodCM {
			na.FalsePositivePages = st.obs.EmptyPages.Load()
		}
		return na
	case KindCMAgg:
		// Index-only answers show zero physical work here; a hybrid
		// sweep's pages/tuples come from the impure-bucket leg.
		return NodeActuals{
			Rows:       st.groups,
			TuplesIn:   tuples,
			HeapPages:  st.obs.Pages.Load(),
			DiskReads:  an.DiskReads,
			BufferHits: an.BufferHits,
			Elapsed:    st.accessTime,
		}
	case KindFilter:
		return NodeActuals{Rows: scanRows, TuplesIn: tuples}
	case KindProject:
		rows := st.accessRows
		if tr.spec.IsAggregate() {
			rows = scanRows
		}
		return NodeActuals{Rows: rows}
	case KindGroupAgg:
		return NodeActuals{Rows: st.groups, TuplesIn: scanRows}
	case KindHaving:
		return NodeActuals{Rows: st.havingOut, TuplesIn: st.groups}
	case KindSort:
		return NodeActuals{Rows: st.sortOut, TuplesIn: st.sortIn, Elapsed: st.sortTime}
	case KindLimit:
		return NodeActuals{Rows: st.outRows}
	case KindUpdate:
		return NodeActuals{Rows: st.outRows}
	default:
		return NodeActuals{}
	}
}
