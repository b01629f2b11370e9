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

// AccessMethod selects a query access path explicitly. It is the
// engine's own method type, so a plan reports the method it runs in the
// same values a QuerySpec forces it with.
type AccessMethod = exec.Method

// The access paths of the paper's comparison, plus the clustered-index
// scan they all bottom out in.
const (
	// Auto lets the correlation-aware cost model choose.
	Auto = exec.MethodAuto
	// TableScan forces a full sequential scan.
	TableScan = exec.MethodTableScan
	// SortedIndexScan forces a bitmap-style secondary index scan (RIDs
	// sorted before the heap sweep).
	SortedIndexScan = exec.MethodSorted
	// PipelinedIndexScan forces per-tuple index probing.
	PipelinedIndexScan = exec.MethodPipelined
	// CMScan forces the correlation-map path.
	CMScan = exec.MethodCM
	// ClusteredIndexScan forces the clustered-index scan: predicates on
	// the leading clustering column(s) resolve to clustered buckets and
	// their heap pages, from memory, and the pages sweep in physical
	// order.
	ClusteredIndexScan = exec.MethodClustered
)

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

// The plan description EXPLAIN and EXPLAIN ANALYZE return is the plan
// layer's own: ExplainSpec's PlanInfo lists the operator nodes
// (PlanNode), ExplainAnalyzeSpec's attaches each node's measured
// NodeActuals and the run's RunActuals.
type (
	// PlanInfo describes the plan the engine would execute: the access
	// path's method, structure and estimated cost, the decoded column
	// count and the operator nodes bottom-up.
	PlanInfo = plan.PlanInfo
	// PlanNode is one operator of an explained plan.
	PlanNode = plan.PlanNode
	// NodeActuals is one operator's measured execution.
	NodeActuals = plan.NodeActuals
	// RunActuals summarizes an analyzed run.
	RunActuals = plan.RunActuals
)

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
