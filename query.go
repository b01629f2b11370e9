package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/value"
)

// Pred is a predicate over a named column. Build with Eq, Ne, In,
// Between, Ge, Le, Gt or Lt; the predicates of a list combine
// conjunctively.
type Pred struct {
	col   string
	build func(col int) exec.Pred
}

// Eq matches rows whose column equals v.
func Eq(col string, v Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Eq(c, v.v) }}
}

// In matches rows whose column equals any of vals.
func In(col string, vals ...Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred {
		iv := make([]value.Value, len(vals))
		for i, v := range vals {
			iv[i] = v.v
		}
		return exec.In(c, iv...)
	}}
}

// Between matches rows whose column lies in [lo, hi] inclusive.
func Between(col string, lo, hi Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Between(c, lo.v, hi.v) }}
}

// Ge matches rows whose column is >= lo.
func Ge(col string, lo Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Ge(c, lo.v) }}
}

// Le matches rows whose column is <= hi.
func Le(col string, hi Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Le(c, hi.v) }}
}

// Lt matches rows whose column is strictly < hi. Like Between/Ge/Le it
// rides index and CM probes (the boundary value is read and re-filtered
// out), so `a < x` and `a <= x` cost within one value of each other.
func Lt(col string, hi Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Lt(c, hi.v) }}
}

// Gt matches rows whose column is strictly > lo.
func Gt(col string, lo Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Gt(c, lo.v) }}
}

// Ne matches rows whose column differs from v. Ne never drives an index
// or CM probe (it would cover the whole domain); access paths evaluate it
// by re-filtering, and a query whose only predicates are Ne plans as a
// table scan.
func Ne(col string, v Value) Pred {
	return Pred{col: col, build: func(c int) exec.Pred { return exec.Ne(c, v.v) }}
}

func buildQuery(t *Table, preds []Pred) (exec.Query, error) {
	q := exec.Query{}
	for _, p := range preds {
		ci, err := t.colIndex(p.col)
		if err != nil {
			return exec.Query{}, err
		}
		q.Preds = append(q.Preds, p.build(ci))
	}
	return q, nil
}

// AccessMethod selects a query access path explicitly.
type AccessMethod int

// The access paths of the paper's comparison, plus the clustered-index
// scan they all bottom out in.
const (
	// Auto lets the correlation-aware cost model choose.
	Auto AccessMethod = iota
	// TableScan forces a full sequential scan.
	TableScan
	// SortedIndexScan forces a bitmap-style secondary index scan (RIDs
	// sorted before the heap sweep).
	SortedIndexScan
	// PipelinedIndexScan forces per-tuple index probing.
	PipelinedIndexScan
	// CMScan forces the correlation-map path.
	CMScan
	// ClusteredIndexScan forces the clustered-index scan: predicates on
	// the leading clustering column(s) resolve to clustered buckets and
	// their heap pages, from memory, and the pages sweep in physical
	// order.
	ClusteredIndexScan
)

// String names the method.
func (m AccessMethod) String() string {
	switch m {
	case Auto:
		return "auto"
	case TableScan:
		return "table-scan"
	case SortedIndexScan:
		return "sorted-index-scan"
	case PipelinedIndexScan:
		return "pipelined-index-scan"
	case CMScan:
		return "cm-scan"
	case ClusteredIndexScan:
		return "clustered-index-scan"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// SelectSpec runs one query and streams its result rows to fn — the one
// native query door. Every QuerySpec form is accepted: a projection
// (Cols), an OR (AnyOf), aggregates (Aggs, GroupBy, Having), ORDER BY,
// LIMIT, a forced access method (Via) and a named correlation map (CM).
// Return false from fn to stop early.
//
// The statement reads one MVCC snapshot under the table latch held
// shared, so concurrent queries run in parallel and never observe a
// half-applied write. Scans fan out across the DB's worker pool
// (Config.Workers) and still emit rows in physical order. Every access
// method polls ctx at heap-page granularity: a cancelled or expired
// statement stops within a page per worker and returns the context's
// error. A nil ctx never cancels; the configured statement timeout
// applies either way.
func (db *DB) SelectSpec(ctx context.Context, spec QuerySpec, fn func(Row) bool) error {
	tbl, ps, err := db.resolve(spec)
	if err != nil {
		return err
	}
	_, err = tbl.readStmt(ctx, ps, db.workers, runPlain, externalSink(fn))
	return err
}

// externalSink adapts a facade row callback to the plan layer's sink.
func externalSink(fn func(Row) bool) plan.Sink {
	return plan.Sink{Row: func(r value.Row) bool { return fn(externalRow(r)) }}
}

// SelectProject streams the named columns of the rows matching all
// predicates to fn, in the given order, choosing the access path with
// the cost model. The executor decodes just those columns (plus
// predicated ones, for filtering) from each surviving tuple —
// unreferenced columns are never materialized. The rows fn receives
// have arity len(cols).
func (t *Table) SelectProject(cols []string, fn func(Row) bool, preds ...Pred) error {
	return t.SelectProjectVia(Auto, cols, fn, preds...)
}

// SelectProjectVia is SelectProject with an explicit access method.
func (t *Table) SelectProjectVia(method AccessMethod, cols []string, fn func(Row) bool, preds ...Pred) error {
	ps, err := t.planSpec(QuerySpec{Table: t.Name(), Via: method, Preds: preds, Cols: cols})
	if err != nil {
		return err
	}
	_, err = t.readStmt(nil, ps, t.db.workers, runPlain, externalSink(fn))
	return err
}

// projIndices resolves projection column names to schema positions.
func (t *Table) projIndices(cols []string) ([]int, error) {
	if len(cols) == 0 {
		return nil, fmt.Errorf("repro: projection needs at least one column")
	}
	proj := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.colIndex(c)
		if err != nil {
			return nil, err
		}
		proj[i] = ci
	}
	return proj, nil
}

// QuerySpec names one query: the target table, the access method (Auto
// lets the cost model choose) and the predicates. A positive Limit caps
// the result rows and stops the scan early through the executor's
// cancellation path, so a LIMIT query does not pay for a full sweep
// (with OrderBy the limit instead bounds the top-K heap: every matching
// row is still scanned, but only K are retained).
//
// A forced Via of SortedIndexScan, PipelinedIndexScan or CMScan uses the
// first applicable index or CM (one whose leading column — any column,
// for CMs — is predicated), or with CMScan the correlation map CM names;
// ClusteredIndexScan needs the leading clustering column predicated.
//
// A spec's WHERE clause is Preds AND (AnyOf[0] OR AnyOf[1] OR ...):
// Preds is a conjunction applied to every row, and each AnyOf entry is
// one further conjunctive alternative. OR queries plan each disjunct's
// access path independently and union the probed RIDs, falling back to
// one filtered scan when a disjunct cannot probe; they require Via ==
// Auto.
//
// Aggs (optionally with GroupBy) turns the spec into an aggregate query,
// evaluated by DB.SelectSpec or DB.SelectAggregateCtx: result rows are
// the GroupBy columns in order followed by the aggregates in order
// (groups sorted by group key), Cols is ignored, and OrderBy names
// resolve against that output — a GroupBy column or a canonical
// aggregate name like "avg(salary)" / "count(*)".
type QuerySpec struct {
	Table string
	Via   AccessMethod
	// CM, with Via == CMScan, names the correlation map to go through
	// rather than the first applicable one; with any other Via it is an
	// error.
	CM    string
	Preds []Pred
	// AnyOf holds the OR disjuncts, each a conjunction ANDed with Preds.
	AnyOf [][]Pred
	Limit int // 0 = unlimited
	// Cols, when non-empty, pushes the projection into the scan: result
	// rows contain exactly these columns in this order, and the executor
	// decodes only them (plus predicated columns) from surviving tuples.
	Cols []string
	// Aggs lists aggregate expressions; see AggFunc and Agg.
	Aggs []Agg
	// GroupBy names the grouping columns for aggregate specs.
	GroupBy []string
	// Having filters aggregate output rows before OrderBy and Limit.
	// Each predicate's column names an output column — a GroupBy column
	// or a canonical aggregate name like "count(*)" — and its value must
	// match that output's kind (COUNT and integer SUM are Int, AVG is
	// Float, MIN/MAX follow the column). Only aggregate specs accept it.
	Having []Pred
	// OrderBy sorts the result rows; see Order.
	OrderBy []Order
}

// isAggregate reports whether the spec computes aggregates or groups.
func (spec QuerySpec) isAggregate() bool { return len(spec.Aggs) > 0 || len(spec.GroupBy) > 0 }

// PlanNode is one operator of an explained plan, bottom-up: an access
// node first ("scan", "union" or "cm-agg"), then "filter", "project",
// "agg", "having", "sort", "limit" and "update" as the query uses
// them. Detail is a human-readable summary (the method and structure
// for access nodes, the expressions elsewhere). The chain is exactly
// what execution runs: filter and project are fused into the access
// path's compiled tuple filter and projection pushdown at run time.
type PlanNode struct {
	Kind   string
	Detail string
	// EstCost is the cost model's prediction for the node (access and
	// cm-agg nodes; zero elsewhere and for forced methods).
	EstCost time.Duration
	// Actual holds the node's measured execution after an analyzed run
	// (ExplainAnalyzeSpec, or SQL's EXPLAIN ANALYZE); nil after a plain
	// EXPLAIN.
	Actual *NodeActuals
}

// NodeActuals is one operator's measured execution from an analyzed
// run — the live counterpart of the cost model's estimates (the
// paper's Figure 6 estimated-vs-measured comparison, per node).
type NodeActuals struct {
	// Rows is the node's output cardinality (rows written, for the
	// update node).
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
	Rows           int64
	Elapsed        time.Duration
	DiskReads      uint64
	BufferHits     uint64
	BufferMisses   uint64
	TuplesExamined int64
	HeapPages      int64
}

// PlanInfo describes the plan the engine would execute. Method, Uses
// and EstimatedCost summarize the access path (for an OR union plan or
// a cm-agg plan, Method is Auto and Nodes[0] is authoritative; a cm-agg
// plan puts the CM name in Uses); Nodes lists the full operator tree.
type PlanInfo struct {
	Method        AccessMethod
	EstimatedCost time.Duration
	Uses          string // name of the index or CM used, if any
	// DecodedCols counts the columns the executor materializes per
	// surviving row under the requested projection (predicated columns
	// included); TotalCols is the schema arity. DecodedCols < TotalCols
	// means projection pushdown engaged, and 0 means the plan is
	// index-only (a pure cm-agg answer never touches the heap).
	DecodedCols int
	TotalCols   int
	// Nodes is the operator tree bottom-up; see PlanNode.
	Nodes []PlanNode
	// Analyzed summarizes the measured run after ExplainAnalyzeSpec or
	// EXPLAIN ANALYZE; nil after a plain EXPLAIN.
	Analyzed *RunActuals
}

// Recommendation is one CM design proposed by the advisor.
type Recommendation struct {
	Design      string
	Columns     []string
	Levels      []int     // 2^Level values per bucket, 0 = unbucketed
	Widths      []float64 // concrete numeric bucket widths (0 = none)
	Prefixes    []int     // string prefix lengths (0 = none)
	SizeBytes   int64
	SlowdownPct float64
	EstRuntime  time.Duration
	EstBTreeSz  int64
}

// Advise runs the CM Advisor for a training query: it samples the table,
// enumerates composite designs and bucketings (2^2..2^16 buckets), and
// returns the designs within maxSlowdownPct of the estimated secondary
// B+Tree runtime, smallest first — the first element is the paper's
// recommendation.
func (t *Table) Advise(maxSlowdownPct float64, preds ...Pred) ([]Recommendation, error) {
	q, err := buildQuery(t, preds)
	if err != nil {
		return nil, err
	}
	return t.advise(maxSlowdownPct, q)
}

// advise is Advise over a resolved conjunction, SQL ADVISE's door.
func (t *Table) advise(maxSlowdownPct float64, q exec.Query) ([]Recommendation, error) {
	// Only indexable predicates can ever be served by a CM (Ne plans as
	// a table scan), so advising on them would recommend designs whose
	// estimated probes can never run.
	indexable := q.Preds[:0:0]
	for _, p := range q.Preds {
		if p.Indexable() {
			indexable = append(indexable, p)
		}
	}
	if len(indexable) == 0 {
		return nil, fmt.Errorf("repro: no indexable predicate to advise on in %s", q.String())
	}
	q.Preds = indexable
	t.inner.RLock()
	defer t.inner.RUnlock()
	adv, err := advisor.New(t.inner, advisor.Config{})
	if err != nil {
		return nil, err
	}
	cands, err := adv.Recommend(q, maxSlowdownPct)
	if err != nil {
		return nil, err
	}
	sch := t.inner.Schema()
	out := make([]Recommendation, 0, len(cands))
	for _, c := range cands {
		rec := Recommendation{
			Design:      c.Describe(sch),
			Levels:      c.Levels,
			Widths:      make([]float64, len(c.Bucketers)),
			Prefixes:    make([]int, len(c.Bucketers)),
			SizeBytes:   c.EstSize,
			SlowdownPct: c.SlowdownPct,
			EstRuntime:  c.EstRuntime,
			EstBTreeSz:  c.EstBTreeSz,
		}
		for i, b := range c.Bucketers {
			switch bb := b.(type) {
			case core.IntWidth:
				rec.Widths[i] = float64(bb.Width)
			case core.FloatWidth:
				rec.Widths[i] = bb.Width
			case core.StringPrefix:
				rec.Prefixes[i] = bb.Len
			}
		}
		for _, col := range c.Cols {
			rec.Columns = append(rec.Columns, sch.Cols[col].Name)
		}
		out = append(out, rec)
	}
	return out, nil
}

// SoftFD is a discovered approximate functional dependency between
// columns.
type SoftFD struct {
	Determinant []string
	Dependent   string
	Strength    float64 // D(det)/D(det,dep); 1 = hard FD
}

// DiscoverFDs searches the named columns (all columns when empty) for
// soft functional dependencies at least minStrength strong, including
// two-attribute determinants when pairs is true.
func (t *Table) DiscoverFDs(minStrength float64, pairs bool, cols ...string) ([]SoftFD, error) {
	sch := t.inner.Schema()
	var idxs []int
	if len(cols) == 0 {
		for i := range sch.Cols {
			idxs = append(idxs, i)
		}
	} else {
		for _, c := range cols {
			ci, err := t.colIndex(c)
			if err != nil {
				return nil, err
			}
			idxs = append(idxs, ci)
		}
	}
	t.inner.RLock()
	defer t.inner.RUnlock()
	adv, err := advisor.New(t.inner, advisor.Config{})
	if err != nil {
		return nil, err
	}
	fds := adv.DiscoverFDs(idxs, minStrength, pairs)
	out := make([]SoftFD, 0, len(fds))
	for _, fd := range fds {
		sfd := SoftFD{Dependent: sch.Cols[fd.Dependent].Name, Strength: fd.Strength}
		for _, d := range fd.Determinant {
			sfd.Determinant = append(sfd.Determinant, sch.Cols[d].Name)
		}
		out = append(out, sfd)
	}
	return out, nil
}
