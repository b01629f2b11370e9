package repro

import (
	"context"
	"fmt"
	"time"

	"repro/internal/advisor"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/value"
)

// Pred is a predicate over a named column. Build with Eq, Ne, In,
// Between, Ge, Le, Gt or Lt; predicates combine conjunctively in Select.
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

// Select streams the rows matching all predicates to fn, choosing the
// access path with the cost model. Return false from fn to stop early.
//
// Select holds the table latch shared for the whole query, so concurrent
// Selects run in parallel and a racing Insert/Delete/Commit waits;
// result rows reflect one consistent table state. Scans fan out across
// the DB's worker pool (Config.Workers); parallel scans still emit rows
// in physical order.
func (t *Table) Select(fn func(Row) bool, preds ...Pred) error {
	return t.SelectVia(Auto, fn, preds...)
}

// SelectCtx is Select bounded by a context: every access method polls
// ctx itself at heap-page granularity, at any worker count, so a
// cancelled or expired statement stops within a page per worker and
// returns the context's error. A nil
// ctx never cancels; the configured statement timeout applies either
// way.
func (t *Table) SelectCtx(ctx context.Context, fn func(Row) bool, preds ...Pred) error {
	return t.runTree(ctx, QuerySpec{Table: t.Name(), Preds: preds}, t.db.workers,
		func(r value.Row) bool { return fn(externalRow(r)) })
}

// SelectVia is Select with an explicit access method. SortedIndexScan,
// PipelinedIndexScan and CMScan use the first applicable index or CM
// (one whose leading column — any column, for CMs — is predicated);
// ClusteredIndexScan needs the leading clustering column predicated.
func (t *Table) SelectVia(method AccessMethod, fn func(Row) bool, preds ...Pred) error {
	return t.runTree(nil, QuerySpec{Table: t.Name(), Via: method, Preds: preds}, t.db.workers,
		func(r value.Row) bool { return fn(externalRow(r)) })
}

// SelectProject is Select with projection pushdown: only the named
// columns reach fn, in the given order, and the executor decodes just
// those columns (plus predicated ones, for filtering) from each
// surviving tuple — unreferenced columns are never materialized. The
// rows fn receives have arity len(cols).
func (t *Table) SelectProject(cols []string, fn func(Row) bool, preds ...Pred) error {
	return t.SelectProjectVia(Auto, cols, fn, preds...)
}

// SelectProjectVia is SelectProject with an explicit access method.
func (t *Table) SelectProjectVia(method AccessMethod, cols []string, fn func(Row) bool, preds ...Pred) error {
	return t.runTree(nil, QuerySpec{Table: t.Name(), Via: method, Preds: preds, Cols: cols}, t.db.workers,
		func(r value.Row) bool { return fn(externalRow(r)) })
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

// SelectViaCM is SelectVia(CMScan, ...) through the named correlation
// map rather than the first applicable one, for benchmarking specific
// designs against each other. It is a statement like any other Select:
// it reads one MVCC snapshot, obeys the statement timeout and counts
// into the query.* metrics.
func (t *Table) SelectViaCM(cmName string, fn func(Row) bool, preds ...Pred) error {
	return t.runTree(nil, QuerySpec{Table: t.Name(), Via: CMScan, viaCM: cmName, Preds: preds}, t.db.workers,
		func(r value.Row) bool { return fn(externalRow(r)) })
}

// QuerySpec names one query of a batch: the target table, the access
// method (Auto lets the cost model choose) and the predicates. A positive
// Limit caps the result rows and stops the scan early through the
// executor's cancellation path, so a LIMIT-style batch query does not pay
// for a full sweep (with OrderBy the limit instead bounds the top-K
// heap: every matching row is still scanned, but only K are retained).
//
// A spec's WHERE clause is Preds AND (AnyOf[0] OR AnyOf[1] OR ...):
// Preds is a conjunction applied to every row, and each AnyOf entry is
// one further conjunctive alternative. OR queries plan each disjunct's
// access path independently and union the probed RIDs, falling back to
// one filtered scan when a disjunct cannot probe; they require Via ==
// Auto.
//
// Aggs (optionally with GroupBy) turns the spec into an aggregate
// query evaluated by DB.SelectAggregate or SelectMany: result rows are
// the GroupBy columns in order followed by the aggregates in order
// (groups sorted by group key), Cols is ignored, and OrderBy names
// resolve against that output — a GroupBy column or a canonical
// aggregate name like "avg(salary)" / "count(*)".
type QuerySpec struct {
	Table string
	Via   AccessMethod
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
	// viaCM, with Via == CMScan, names the correlation map to go through
	// (SelectViaCM).
	viaCM string
}

// isAggregate reports whether the spec computes aggregates or groups.
func (spec QuerySpec) isAggregate() bool { return len(spec.Aggs) > 0 || len(spec.GroupBy) > 0 }

// QueryResult is the outcome of one query of a batch: the matching rows,
// or the error that stopped it.
type QueryResult struct {
	Rows []Row
	Err  error
}

// SelectMany evaluates the queries concurrently across the DB's worker
// pool (Config.Workers), modeling a multi-client workload: each query
// takes its table's latch shared, so the batch runs in parallel with
// other readers and serializes only against writers. Results are
// returned positionally. Individual queries run with serial scans —
// the fan-out here is across queries, not within them. Every QuerySpec
// form is accepted, including OR (AnyOf), aggregates (Aggs/GroupBy) and
// ORDER BY; each evaluates exactly as its single-query equivalent
// (runSpec is shared), so batched and unbatched execution cannot drift.
func (db *DB) SelectMany(specs []QuerySpec) []QueryResult {
	return db.SelectManyCtx(nil, specs)
}

// SelectManyCtx is SelectMany bounded by a context shared across the
// whole batch: cancelling ctx stops every in-flight query of the batch
// (each fails with the context's error) and queries not yet started
// fail immediately. A nil ctx never cancels; the configured statement
// timeout still applies to each query individually.
func (db *DB) SelectManyCtx(ctx context.Context, specs []QuerySpec) []QueryResult {
	out := make([]QueryResult, len(specs))
	db.fanOut(len(specs), func(i int) {
		rows, err := db.runSpec(ctx, specs[i], 1)
		out[i] = QueryResult{Rows: rows, Err: err}
	})
	return out
}

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

// Explain returns the plan the cost model picks for the predicates,
// with every column materialized (no projection).
func (t *Table) Explain(preds ...Pred) (PlanInfo, error) {
	return t.ExplainProject(nil, preds...)
}

// ExplainProject is Explain under a projection: DecodedCols reflects
// what a SelectProject with the same columns would actually decode per
// surviving row.
func (t *Table) ExplainProject(cols []string, preds ...Pred) (PlanInfo, error) {
	return t.explainSpec(QuerySpec{Table: t.Name(), Preds: preds, Cols: cols})
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

// CreateRecommended materializes an advisor recommendation as a CM.
func (t *Table) CreateRecommended(name string, rec Recommendation) error {
	cols := make([]CMColumn, len(rec.Columns))
	for i, c := range rec.Columns {
		cols[i] = CMColumn{Name: c, Width: rec.Widths[i], Prefix: rec.Prefixes[i]}
	}
	return t.CreateCM(name, cols...)
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

// PairStats returns the paper's Table 2 correlation statistics between
// the named columns and the table's clustering attribute.
type PairStatsInfo struct {
	DistinctU  int64   // D(Au)
	DistinctUC int64   // D(Au, Ac)
	CPerU      float64 // D(Au,Ac)/D(Au)
	UTups      float64
	CTups      float64
}

// PairStats computes exact pair statistics with one scan.
func (t *Table) PairStats(cols ...string) (PairStatsInfo, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.colIndex(c)
		if err != nil {
			return PairStatsInfo{}, err
		}
		idxs[i] = ci
	}
	t.inner.RLock()
	defer t.inner.RUnlock()
	pc, err := t.inner.PairStats(idxs)
	if err != nil {
		return PairStatsInfo{}, err
	}
	return PairStatsInfo{
		DistinctU:  pc.DU(),
		DistinctUC: pc.DUC(),
		CPerU:      pc.CPerU(),
		UTups:      pc.UTups(),
		CTups:      pc.CTups(),
	}, nil
}

// VarBucketBounds derives a variable-width bucketing for a column from a
// table sample — the paper's future-work extension for skewed value
// distributions (Section 8). Adjacent values are merged while their
// clustered buckets fit within maxCBucketsPerBucket; the returned bounds
// plug into CreateVarCM.
func (t *Table) VarBucketBounds(col string, maxCBucketsPerBucket int) ([]Value, error) {
	ci, err := t.colIndex(col)
	if err != nil {
		return nil, err
	}
	t.inner.RLock()
	defer t.inner.RUnlock()
	adv, err := advisor.New(t.inner, advisor.Config{})
	if err != nil {
		return nil, err
	}
	vb := adv.VariableBucketing(ci, maxCBucketsPerBucket)
	out := make([]Value, len(vb.Bounds))
	for i, b := range vb.Bounds {
		out[i] = Value{b}
	}
	return out, nil
}

// CreateVarCM builds a single-column CM using an explicit variable-width
// bucketing (lower bounds ascending), typically from VarBucketBounds.
func (t *Table) CreateVarCM(name, col string, bounds []Value) error {
	ci, err := t.colIndex(col)
	if err != nil {
		return err
	}
	vb := core.VarWidth{Bounds: make([]value.Value, len(bounds))}
	for i, b := range bounds {
		vb.Bounds[i] = b.v
	}
	t.inner.Lock()
	defer t.inner.Unlock()
	_, err = t.inner.CreateCM(core.Spec{
		Name:      name,
		UCols:     []int{ci},
		Bucketers: []core.Bucketer{vb},
	})
	return err
}

// ClusteringSuggestion scores one attribute as a clustered-index choice
// (see SuggestClustering).
type ClusteringSuggestion struct {
	Column          string
	CorrelatedAttrs int     // attributes with low c_per_u against this clustering
	CPages          float64 // expected pages per clustered value
	MeanCPerU       float64
}

// SuggestClustering ranks the named columns as clustering choices using
// the Section 4.1 criteria — small c_pages and correlations to many
// other attributes — generalizing the paper's Figure 2 observation into
// the physical-design direction its conclusions sketch.
func (t *Table) SuggestClustering(threshold float64, cols ...string) ([]ClusteringSuggestion, error) {
	idxs := make([]int, len(cols))
	for i, c := range cols {
		ci, err := t.colIndex(c)
		if err != nil {
			return nil, err
		}
		idxs[i] = ci
	}
	t.inner.RLock()
	defer t.inner.RUnlock()
	adv, err := advisor.New(t.inner, advisor.Config{})
	if err != nil {
		return nil, err
	}
	sch := t.inner.Schema()
	cands := adv.SuggestClustering(idxs, threshold)
	out := make([]ClusteringSuggestion, len(cands))
	for i, c := range cands {
		out[i] = ClusteringSuggestion{
			Column:          sch.Cols[c.Col].Name,
			CorrelatedAttrs: c.CorrelatedAttrs,
			CPages:          c.CPages,
			MeanCPerU:       c.MeanCPerU,
		}
	}
	return out, nil
}
