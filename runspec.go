package repro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/value"
)

// This file lowers QuerySpecs onto the physical plan layer — the one
// lowering every query surface shares. DB.SelectSpec (and its sugar
// SelectProject, SelectProjectVia and SelectAggregateCtx), every SQL
// SELECT (DB.Exec, a script through DB.ExecScriptStreamCtx,
// DB.ExecPreparedBatch) and EXPLAIN [ANALYZE] all resolve names here and
// compile through internal/plan's Build → Optimize → Run pipeline, so a
// statement cannot behave differently batched vs alone (or explained vs
// executed): projection, LIMIT, OR, aggregation, HAVING and ORDER BY are
// lowered exactly once, and EXPLAIN prints the operator tree Run
// executes.

// AggFunc identifies an aggregate function of a QuerySpec.
type AggFunc int

// The aggregate functions.
const (
	// Count counts rows; with an empty (or "*") column it is COUNT(*).
	// The engine has no NULLs, so COUNT(col) always equals COUNT(*).
	Count AggFunc = iota
	// Sum sums a numeric column (int columns sum exactly in int64).
	Sum
	// Avg averages a numeric column. Partial aggregates carry AVG as
	// sum + count and divide only at the end, so parallel workers merge
	// exactly (see the README's partial-aggregate merge contract).
	Avg
	// Min tracks the smallest value of a column (any kind).
	Min
	// Max tracks the largest value of a column (any kind).
	Max
)

// String names the function in lowercase SQL form.
func (f AggFunc) String() string {
	switch f {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Avg:
		return "avg"
	case Min:
		return "min"
	case Max:
		return "max"
	default:
		return fmt.Sprintf("aggfunc(%d)", int(f))
	}
}

// Agg is one aggregate expression of a QuerySpec: Func over column Col.
// Count with an empty (or "*") Col is COUNT(*).
type Agg struct {
	Func AggFunc
	Col  string
}

// Name renders the canonical result-column name of the aggregate —
// "avg(salary)", "count(*)" — the header SelectAggregateCtx returns and
// the name QuerySpec.OrderBy (or Having) uses to address an aggregate.
func (a Agg) Name() string {
	if a.Func == Count && (a.Col == "" || a.Col == "*") {
		return "count(*)"
	}
	return a.Func.String() + "(" + a.Col + ")"
}

// Order is one ORDER BY key of a QuerySpec: ascending by default, Desc
// flips it. For plain selects Col names a table column (it need not be
// projected); for aggregate specs it names an output column — a GroupBy
// column or a canonical aggregate name (Agg.Name).
type Order struct {
	Col  string
	Desc bool
}

// SelectAggregateCtx evaluates an aggregate QuerySpec (Aggs, optionally
// GroupBy, Having, OrderBy, Limit, AnyOf) and returns the result header
// and rows: the GroupBy columns in order, then the aggregates in order,
// with groups sorted by group key unless OrderBy says otherwise. It is
// DB.SelectSpec collecting the rows, under the same context rules.
//
// When a correlation map covers the whole query — every predicate and
// grouping column on the CM attribute, every aggregate answerable from
// the CM's per-entry statistics — the planner lowers it to the cm-agg
// node and answers from the bucket directory without reading heap
// pages (EXPLAIN shows the node; see the README's "Index-only
// aggregates" section). Otherwise aggregation streams: tuples are
// filtered on encoded heap bytes, survivors fold into per-chunk partial
// aggregates, and partials merge in fixed chunk order — so results are
// byte-identical for any Config.Workers and any access path, float sums
// included.
func (db *DB) SelectAggregateCtx(ctx context.Context, spec QuerySpec) ([]string, []Row, error) {
	if !spec.isAggregate() {
		return nil, nil, fmt.Errorf("repro: SelectAggregateCtx needs Aggs or GroupBy")
	}
	var rows []Row
	err := db.SelectSpec(ctx, spec, func(r Row) bool {
		rows = append(rows, r)
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	return aggHeader(spec), rows, nil
}

// aggHeader returns an aggregate spec's canonical result header.
func aggHeader(spec QuerySpec) []string {
	out := append([]string(nil), spec.GroupBy...)
	for _, a := range spec.Aggs {
		out = append(out, a.Name())
	}
	return out
}

// stmtMode says what a statement entry point wants done with the tree
// its prologue compiled.
type stmtMode int

const (
	runPlain    stmtMode = iota // execute
	runAnalyzed                 // execute, measuring per-node actuals
	explainOnly                 // compile only; nothing runs, nothing is timed
)

// readStmt is the one prologue of every read statement — SelectSpec and
// its sugar, SQL SELECT, EXPLAIN and EXPLAIN ANALYZE: lower the spec, apply the
// statement timeout, refuse a context that is already dead, take the
// table latch shared, capture the MVCC snapshot under it, attach the
// scan observer, compile, then run as mode says, time the statement and
// classify its outcome. The latch is held from compile through run, so
// the tree sweeps the pages its planner resolved. The PlanInfo is built
// for the explaining modes only.
func (t *Table) readStmt(ctx context.Context, spec QuerySpec, workers int, mode stmtMode, out plan.Sink) (PlanInfo, error) {
	ps, err := t.planSpec(spec)
	if err != nil {
		return PlanInfo{}, err
	}
	ctx, cancel := t.db.stmtCtx(ctx)
	defer cancel()
	if err := t.db.ctxDead(ctx); err != nil {
		return PlanInfo{}, err
	}
	t.inner.RLock()
	defer t.inner.RUnlock()
	// Capture the MVCC snapshot under the shared hold: the whole
	// statement reads the table as of this published version, so a writer
	// statement publishing mid-scan changes nothing the query sees.
	ps.Ctx, ps.Snap, ps.Obs = ctx, t.inner.Snapshot(), t.db.obs()
	if mode != explainOnly {
		defer t.db.observeQuery(time.Now())
	}
	tree, err := plan.Compile(t.inner, ps, planStats)
	if err != nil {
		return PlanInfo{}, err
	}
	if mode == explainOnly {
		return facadePlan(tree.Explain(), nil), nil
	}
	var an *plan.Analysis
	if mode == runAnalyzed {
		an, err = tree.RunAnalyzed(workers, out.Row)
	} else {
		err = tree.Run(workers, out)
	}
	t.db.noteOutcome(err)
	if err != nil || an == nil {
		return PlanInfo{}, err
	}
	return facadePlan(tree.Explain(), an), nil
}

// writeStmt is the one prologue of the planned write statements — UPDATE
// (sets are its assignments) and DELETE (del; no sets), whose WHERE clause
// arrives in disjunctive normal form, one []Pred conjunction per
// disjunct: lower names to indices, apply the statement timeout, refuse a
// context that is already dead, compile the read side under a shared
// latch hold — so the WHERE clause reads through whichever access path
// the cost model prefers — release the latch, then run as mode says
// under the writer gate (where the tree probes its CMs afresh), time the
// statement and classify its outcome. It returns the rows written.
func (t *Table) writeStmt(ctx context.Context, del bool, sets []Set, anyOf [][]Pred, mode stmtMode) (int64, PlanInfo, error) {
	// The read side carries no snapshot: it runs under the writer gate,
	// where nothing else mutates the table, and reads the latest state.
	spec := plan.Spec{Disjuncts: make([]exec.Query, 0, len(anyOf))}
	for _, preds := range anyOf {
		q, err := buildQuery(t, preds)
		if err != nil {
			return 0, PlanInfo{}, err
		}
		spec.Disjuncts = append(spec.Disjuncts, q)
	}
	esets := make([]exec.SetClause, len(sets))
	for i, s := range sets {
		ci, err := t.colIndex(s.Col)
		if err != nil {
			return 0, PlanInfo{}, err
		}
		esets[i] = exec.SetClause{Col: ci, Val: s.Val.v}
	}
	ctx, cancel := t.db.stmtCtx(ctx)
	defer cancel()
	if err := t.db.ctxDead(ctx); err != nil {
		return 0, PlanInfo{}, err
	}
	spec.Ctx, spec.Obs = ctx, t.db.obs()
	wt, err := t.compileWrite(del, spec, esets)
	if err != nil {
		return 0, PlanInfo{}, err
	}
	if mode == explainOnly {
		return 0, facadePlan(wt.Explain(), nil), nil
	}
	defer t.db.observeQuery(time.Now())
	var n int64
	var an *plan.Analysis
	if mode == runAnalyzed {
		n, an, err = wt.RunAnalyzed(t.db.workers)
	} else {
		n, err = wt.Run(t.db.workers)
	}
	t.db.noteOutcome(err)
	if err != nil || an == nil {
		return n, PlanInfo{}, err
	}
	return n, facadePlan(wt.Explain(), an), nil
}

// compileWrite compiles a write statement's tree under a shared latch
// hold, released before the statement runs.
func (t *Table) compileWrite(del bool, spec plan.Spec, sets []exec.SetClause) (*plan.WriteTree, error) {
	t.inner.RLock()
	defer t.inner.RUnlock()
	if del {
		return plan.CompileDelete(t.inner, spec, planStats)
	}
	return plan.CompileUpdate(t.inner, spec, sets, planStats)
}

// observeQuery records one statement's wall time (started at start)
// into the query latency histogram when metrics are enabled.
func (db *DB) observeQuery(start time.Time) {
	if db.metricsOn() {
		db.queryHist.ObserveSince(start)
	}
}

// ctxDead reports the context's error when it is already done, doing
// the statement-outcome accounting on the way out; a nil or live
// context returns nil. Statement entry points call it after stmtCtx so
// a dead statement does zero work — even plans that never touch a page
// (index-only aggregation) report the cancellation, not a result.
func (db *DB) ctxDead(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		err := ctx.Err()
		db.noteOutcome(err)
		return err
	default:
		return nil
	}
}

// stmtCtx applies the configured statement timeout on top of ctx. With
// no timeout it returns ctx unchanged (nil stays nil — the zero-cost
// path); with one it derives a deadline context, from ctx or from
// context.Background when ctx is nil. The returned cancel must run
// when the statement ends.
func (db *DB) stmtCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	d := db.StatementTimeout()
	if d <= 0 {
		return ctx, func() {}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithTimeout(ctx, d)
}

// noteOutcome tallies how a statement ended: deadline expiries count
// into query.timed_out, other cancellations into query.cancelled.
// Completed statements and plain errors count into neither.
func (db *DB) noteOutcome(err error) {
	switch {
	case err == nil:
	case errors.Is(err, context.DeadlineExceeded):
		db.qTimedOut.Inc()
	case errors.Is(err, context.Canceled):
		db.qCancelled.Inc()
	}
}

// StatementOutcome classifies how a statement ended for logs and the
// slow-query log: "completed" (nil error), "timeout" (statement
// deadline), "cancelled" (context cancellation, e.g. a client
// disconnect), or "error" (any other failure).
func StatementOutcome(err error) string {
	switch {
	case err == nil:
		return "completed"
	case errors.Is(err, context.DeadlineExceeded):
		return "timeout"
	case errors.Is(err, context.Canceled):
		return "cancelled"
	default:
		return "error"
	}
}

// planSpec resolves a QuerySpec's names against the table schema and
// lowers it to the plan layer's index-based Spec — the single
// translation between the public facade vocabulary and the physical
// plan tree.
func (t *Table) planSpec(spec QuerySpec) (plan.Spec, error) {
	if spec.Via < 0 || int(spec.Via) >= len(execMethods) {
		return plan.Spec{}, fmt.Errorf("repro: unknown access method %v", spec.Via)
	}
	if spec.CM != "" && spec.Via != CMScan {
		return plan.Spec{}, fmt.Errorf("repro: CM %q needs Via CMScan, not %v", spec.CM, spec.Via)
	}
	ps := plan.Spec{Limit: spec.Limit, Method: execMethods[spec.Via], CM: spec.CM}

	// The WHERE clause — Preds AND (AnyOf[0] OR ...) — lowers to
	// disjunctive normal form: one conjunctive exec.Query per disjunct.
	if len(spec.AnyOf) == 0 {
		q, err := buildQuery(t, spec.Preds)
		if err != nil {
			return plan.Spec{}, err
		}
		ps.Disjuncts = []exec.Query{q}
	} else {
		if spec.Via != Auto {
			return plan.Spec{}, fmt.Errorf("repro: OR queries plan access paths per disjunct; Via must be Auto")
		}
		for _, alt := range spec.AnyOf {
			conj := make([]Pred, 0, len(spec.Preds)+len(alt))
			conj = append(conj, spec.Preds...)
			conj = append(conj, alt...)
			q, err := buildQuery(t, conj)
			if err != nil {
				return plan.Spec{}, err
			}
			ps.Disjuncts = append(ps.Disjuncts, q)
		}
	}

	if !spec.isAggregate() {
		if len(spec.Having) > 0 {
			return plan.Spec{}, fmt.Errorf("repro: HAVING needs aggregates or GROUP BY")
		}
		if len(spec.Cols) > 0 {
			proj, err := t.projIndices(spec.Cols)
			if err != nil {
				return plan.Spec{}, err
			}
			ps.Proj = proj
		}
		for _, o := range spec.OrderBy {
			ci, err := t.colIndex(o.Col)
			if err != nil {
				return plan.Spec{}, err
			}
			ps.OrderBy = append(ps.OrderBy, plan.Order{Col: ci, Desc: o.Desc})
		}
		return ps, nil
	}

	// Aggregate spec: resolve aggregates and grouping against the
	// schema, ORDER BY and HAVING against the canonical output header.
	specs, err := t.aggSpecs(spec.Aggs)
	if err != nil {
		return plan.Spec{}, err
	}
	ps.Aggs = specs
	for _, name := range spec.GroupBy {
		ci, err := t.colIndex(name)
		if err != nil {
			return plan.Spec{}, err
		}
		ps.GroupBy = append(ps.GroupBy, ci)
	}
	header := aggHeader(spec)
	outPos := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		return -1
	}
	for _, o := range spec.OrderBy {
		pos := outPos(o.Col)
		if pos < 0 {
			return plan.Spec{}, fmt.Errorf("repro: ORDER BY %q is neither a GroupBy column nor an aggregate of the spec", o.Col)
		}
		ps.OrderBy = append(ps.OrderBy, plan.Order{Col: pos, Desc: o.Desc})
	}
	for _, h := range spec.Having {
		pos := outPos(h.col)
		if pos < 0 {
			return plan.Spec{}, fmt.Errorf("repro: HAVING %q is neither a GroupBy column nor an aggregate of the spec", h.col)
		}
		ps.Having = append(ps.Having, h.build(pos))
	}
	return ps, nil
}

// aggSpecs resolves and validates facade aggregates against the schema.
func (t *Table) aggSpecs(aggs []Agg) ([]exec.AggSpec, error) {
	sch := t.inner.Schema()
	out := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		spec := exec.AggSpec{Col: -1}
		switch a.Func {
		case Count:
			spec.Kind = exec.AggCount
		case Sum:
			spec.Kind = exec.AggSum
		case Avg:
			spec.Kind = exec.AggAvg
		case Min:
			spec.Kind = exec.AggMin
		case Max:
			spec.Kind = exec.AggMax
		default:
			return nil, fmt.Errorf("repro: unknown aggregate function %v", a.Func)
		}
		if a.Col == "" || a.Col == "*" {
			if a.Func != Count {
				return nil, fmt.Errorf("repro: %s needs a column (only COUNT takes *)", a.Func)
			}
		} else {
			ci, err := t.colIndex(a.Col)
			if err != nil {
				return nil, err
			}
			if (a.Func == Sum || a.Func == Avg) && sch.Cols[ci].Kind == value.String {
				return nil, fmt.Errorf("repro: %s does not apply to string column %q", a.Name(), a.Col)
			}
			spec.Col = ci
		}
		out[i] = spec
	}
	return out, nil
}

// ExplainSpec reports the operator tree a QuerySpec would execute —
// the access node (scan, union or cm-agg), then filter, project, agg,
// having, sort and limit as applicable — without running it.
func (db *DB) ExplainSpec(spec QuerySpec) (PlanInfo, error) {
	tbl, err := db.lookup(spec.Table)
	if err != nil {
		return PlanInfo{}, err
	}
	return tbl.readStmt(nil, spec, 0, explainOnly, plan.Sink{})
}

// execMethods is the one translation between the facade's AccessMethod
// and the executor's Method, indexed by the former; accessMethod reads
// it backwards.
var execMethods = [...]exec.Method{
	Auto:               exec.MethodAuto,
	TableScan:          exec.MethodTableScan,
	SortedIndexScan:    exec.MethodSorted,
	PipelinedIndexScan: exec.MethodPipelined,
	CMScan:             exec.MethodCM,
	ClusteredIndexScan: exec.MethodClustered,
}

// accessMethod maps an executor method onto the facade enum.
func accessMethod(m exec.Method) AccessMethod {
	for am, em := range execMethods {
		if em == m {
			return AccessMethod(am)
		}
	}
	return Auto
}

// facadePlan converts the plan layer's Info into the facade PlanInfo,
// attaching an analyzed run's measurements when there are any.
func facadePlan(info plan.Info, an *plan.Analysis) PlanInfo {
	pi := PlanInfo{
		Method:        accessMethod(info.Method),
		Uses:          info.Uses,
		EstimatedCost: info.Cost,
		TotalCols:     info.TotalCols,
		DecodedCols:   info.DecodedCols,
	}
	for _, n := range info.Nodes {
		pi.Nodes = append(pi.Nodes, PlanNode{Kind: n.Kind, Detail: n.Detail, EstCost: n.Cost})
	}
	if an != nil {
		attachActuals(&pi, an)
	}
	return pi
}

// attachActuals pairs an analyzed run's measurements with the plan's
// nodes (same bottom-up order) and fills the run summary.
func attachActuals(pi *PlanInfo, an *plan.Analysis) {
	for i := range pi.Nodes {
		if i >= len(an.Nodes) {
			break
		}
		a := an.Nodes[i]
		pi.Nodes[i].Actual = &NodeActuals{
			Rows:               a.Rows,
			TuplesIn:           a.TuplesIn,
			HeapPages:          a.HeapPages,
			DiskReads:          a.DiskReads,
			BufferHits:         a.BufferHits,
			Elapsed:            a.Elapsed,
			FalsePositivePages: a.FalsePositivePages,
			Chunks:             a.Chunks,
		}
	}
	pi.Analyzed = &RunActuals{
		Rows:           an.TotalRows,
		Elapsed:        an.Elapsed,
		DiskReads:      an.DiskReads,
		BufferHits:     an.BufferHits,
		BufferMisses:   an.BufferMisses,
		TuplesExamined: an.TuplesExamined,
		HeapPages:      an.HeapPages,
	}
}

// ExplainAnalyzeSpec executes the spec for real and returns its plan
// with measured actuals attached to every node — the native form of
// SQL's EXPLAIN ANALYZE. Result rows are consumed and counted, not
// returned (PostgreSQL semantics: the plan is the result). The run is
// the exact Run code path, so side effects, locking and row flow are
// identical to SelectSpec; its physical work still counts into the
// engine-wide query.* metrics.
func (db *DB) ExplainAnalyzeSpec(spec QuerySpec) (PlanInfo, error) {
	tbl, err := db.lookup(spec.Table)
	if err != nil {
		return PlanInfo{}, err
	}
	return tbl.analyzeSpec(nil, spec)
}

// analyzeSpec compiles and executes the spec under a shared latch
// hold, measuring per-node actuals. ctx (plus the statement timeout)
// bounds the run like SelectSpec.
func (t *Table) analyzeSpec(ctx context.Context, spec QuerySpec) (PlanInfo, error) {
	return t.readStmt(ctx, spec, t.db.workers, runAnalyzed, plan.Sink{Row: func(value.Row) bool { return true }})
}
