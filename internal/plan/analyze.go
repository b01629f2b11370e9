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

// NodeActuals is one operator's measured execution from an analyzed
// run — the live counterpart of the cost model's estimates (the paper's
// Figure 6 estimated-vs-measured comparison, per node).
type NodeActuals struct {
	// Rows is the node's output cardinality (rows written, for the
	// update and delete nodes).
	Rows int64
	// TuplesIn is the node's input cardinality where it differs from
	// Rows: tuples examined for access/filter nodes, rows folded for
	// agg, rows sorted for sort. Zero for pure pass-through nodes.
	TuplesIn int64
	// HeapPages counts the query's own heap page visits (access nodes;
	// exact, from the executors' per-chunk tallies).
	HeapPages int64
	// DiskReads and BufferHits are engine-wide deltas captured around
	// the run and attributed to the access node — exact when the
	// statement runs alone, approximate under concurrent load.
	DiskReads  uint64
	BufferHits uint64
	// Elapsed is the node's phase wall time. Streaming plans fuse
	// filter/project/agg into the access sweep, so the shared phase
	// reports on the access node and fused nodes show zero.
	Elapsed time.Duration
	// FalsePositivePages counts, on a cm-scan node, the heap pages the
	// scan visited on which no tuple survived the re-filter: pages the
	// correlation map pointed at for nothing (HeapPages is the pages it
	// swept in all). Zero on every other node.
	FalsePositivePages int64
	// Chunks says whether the access node's page sweep fanned out over
	// the worker pool: 0 when it ran inline on the calling goroutine (one
	// worker, or a page set with neither enough pages to split nor a
	// cache miss to overlap), otherwise the number of chunks the page set
	// was cut into.
	Chunks int64
}

// RunActuals summarizes an analyzed run: result cardinality, wall
// time and the physical-work totals behind the per-node actuals.
type RunActuals struct {
	// Rows is the number of rows delivered (written, for a write), and
	// Elapsed the whole run's wall time.
	Rows    int64
	Elapsed time.Duration
	// DiskReads, BufferHits and BufferMisses are engine-wide deltas
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
// per-operator actuals, streaming result rows to sink and returning the
// plan with the measurements attached. The run itself is the real one —
// side effects, locking discipline and results are identical to Run.
func (tr *Tree) RunAnalyzed(workers int, sink RowSink) (PlanInfo, error) {
	if !tr.optimized {
		return PlanInfo{}, fmt.Errorf("plan: RunAnalyzed before Optimize")
	}
	st, run, err := tr.measure(func(st *analysisState) error {
		return tr.Run(workers, Sink{Row: func(row value.Row) bool {
			st.outRows++
			return sink(row)
		}})
	})
	if err != nil {
		return PlanInfo{}, err
	}
	return tr.analyzed(st, run), nil
}

// measure is the one measured run under a SELECT's and a write
// statement's RunAnalyzed: it activates the analysis hooks and captures
// the engine-wide disk and pool deltas around run — which leaves the
// statement's row count in st.outRows — returning the hooks' state and
// the run's summary.
func (tr *Tree) measure(run func(st *analysisState) error) (*analysisState, *RunActuals, error) {
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
		return nil, nil, err
	}
	// Fold the private scan observations into the engine-wide counters
	// so analyzed queries still show up in SHOW METRICS totals.
	tr.spec.Obs.AddFrom(&st.obs)

	return st, &RunActuals{
		Rows:           st.outRows,
		Elapsed:        elapsed,
		DiskReads:      d1.Reads - d0.Reads,
		BufferHits:     p1.Hits - p0.Hits,
		BufferMisses:   p1.Misses - p0.Misses,
		TuplesExamined: st.obs.Tuples.Load(),
		HeapPages:      st.obs.Pages.Load(),
	}, nil
}

// analyzed describes the tree with a measured run's actuals on each
// node and its summary in Analyzed.
func (tr *Tree) analyzed(st *analysisState, run *RunActuals) PlanInfo {
	info := tr.Explain()
	acts := make([]NodeActuals, len(info.Nodes))
	for i := range info.Nodes {
		acts[i] = tr.actualsFor(info.Nodes[i].Kind, st, run)
		info.Nodes[i].Actual = &acts[i]
	}
	info.Analyzed = run
	return info
}

// actualsFor computes one node kind's measured row. The row counts
// thread through the nodes the way rows flowed at run time: access
// emits accessRows (or groups for cm-agg), the fused filter reports
// the scan's tuple examinations, aggregation reports folded rows in
// and groups out, HAVING/sort/limit report their survivors.
func (tr *Tree) actualsFor(kind string, st *analysisState, run *RunActuals) NodeActuals {
	tuples := st.obs.Tuples.Load()
	scanRows := st.obs.Rows.Load()
	switch kind {
	case kindScan, kindUnion:
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
			DiskReads:  run.DiskReads,
			BufferHits: run.BufferHits,
			Elapsed:    st.accessTime,
			Chunks:     st.obs.Chunks.Load(),
		}
		if l := tr.soleLeg(); kind == kindScan && l != nil && l.method == exec.MethodCM {
			na.FalsePositivePages = st.obs.EmptyPages.Load()
		}
		return na
	case kindCMAgg:
		// Index-only answers show zero physical work here; a hybrid
		// sweep's pages/tuples come from the impure-bucket leg.
		return NodeActuals{
			Rows:       st.groups,
			TuplesIn:   tuples,
			HeapPages:  st.obs.Pages.Load(),
			DiskReads:  run.DiskReads,
			BufferHits: run.BufferHits,
			Elapsed:    st.accessTime,
		}
	case kindFilter:
		return NodeActuals{Rows: scanRows, TuplesIn: tuples}
	case kindProject:
		rows := st.accessRows
		if tr.spec.IsAggregate() {
			rows = scanRows
		}
		return NodeActuals{Rows: rows}
	case kindGroupAgg:
		return NodeActuals{Rows: st.groups, TuplesIn: scanRows}
	case kindHaving:
		return NodeActuals{Rows: st.havingOut, TuplesIn: st.groups}
	case kindSort:
		return NodeActuals{Rows: st.sortOut, TuplesIn: st.sortIn, Elapsed: st.sortTime}
	default: // kindLimit
		return NodeActuals{Rows: st.outRows}
	}
}
