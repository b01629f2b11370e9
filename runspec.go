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

// This file is where every statement meets the physical plan layer.
// Each surface resolves names once, into internal/plan's Spec: the SQL
// binder (internal/sql) resolves a SELECT, UPDATE or DELETE itself, and
// planSpec resolves the Go API's QuerySpec — for DB.SelectSpec and its
// sugar (SelectProject, SelectProjectVia, SelectAggregateCtx),
// ExplainSpec, ExplainAnalyzeSpec, UpdateCtx, DeleteCtx and Advise.
// readStmt and writeStmt then compile every statement through
// internal/plan's Build → Optimize → Run pipeline, so a statement cannot
// behave differently between surfaces (or explained vs executed):
// projection, LIMIT, OR, aggregation, HAVING and ORDER BY are lowered
// exactly once, and EXPLAIN prints the operator tree Run executes.

// AggFunc identifies an aggregate function of a QuerySpec. It is the
// executor's own aggregate kind.
type AggFunc = exec.AggKind

// The aggregate functions.
const (
	// Count counts rows; with an empty (or "*") column it is COUNT(*).
	// The engine has no NULLs, so COUNT(col) always equals COUNT(*).
	Count = exec.AggCount
	// Sum sums a numeric column (int columns sum exactly in int64).
	Sum = exec.AggSum
	// Avg averages a numeric column. Partial aggregates carry AVG as
	// sum + count and divide only at the end, so parallel workers merge
	// exactly (see the README's partial-aggregate merge contract).
	Avg = exec.AggAvg
	// Min tracks the smallest value of a column (any kind).
	Min = exec.AggMin
	// Max tracks the largest value of a column (any kind).
	Max = exec.AggMax
)

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
// its sugar, SQL SELECT, EXPLAIN and EXPLAIN ANALYZE — over a resolved
// spec: apply the statement timeout, refuse a context that is already
// dead, take the table latch shared, capture the MVCC snapshot under it,
// attach the scan observer, compile, then run as mode says, time the
// statement and classify its outcome. The latch is held from compile through run, so
// the tree sweeps the pages its planner resolved. The PlanInfo is built
// for the explaining modes only.
func (t *Table) readStmt(ctx context.Context, ps plan.Spec, workers int, mode stmtMode, out plan.Sink) (PlanInfo, error) {
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
		return tree.Explain(), nil
	}
	var info PlanInfo
	if mode == runAnalyzed {
		info, err = tree.RunAnalyzed(workers, out.Row)
	} else {
		err = tree.Run(workers, out)
	}
	t.db.noteOutcome(err)
	return info, err
}

// writeStmt is the one prologue of the planned write statements — UPDATE
// (sets are its assignments) and DELETE (del; no sets), whose resolved
// WHERE clause is spec's disjuncts: apply the statement timeout, refuse a
// context that is already dead, compile the read side under a shared
// latch hold — so the WHERE clause reads through whichever access path
// the cost model prefers — release the latch, then run as mode says
// under the writer gate (where the tree probes its CMs afresh), time the
// statement and classify its outcome. It returns the rows written.
func (t *Table) writeStmt(ctx context.Context, del bool, spec plan.Spec, sets []exec.SetClause, mode stmtMode) (int64, PlanInfo, error) {
	ctx, cancel := t.db.stmtCtx(ctx)
	defer cancel()
	if err := t.db.ctxDead(ctx); err != nil {
		return 0, PlanInfo{}, err
	}
	// The read side carries no snapshot: it runs under the writer gate,
	// where nothing else mutates the table, and reads the latest state.
	spec.Ctx, spec.Obs = ctx, t.db.obs()
	wt, err := t.compileWrite(del, spec, sets)
	if err != nil {
		return 0, PlanInfo{}, err
	}
	if mode == explainOnly {
		return 0, wt.Explain(), nil
	}
	defer t.db.observeQuery(time.Now())
	var n int64
	var info PlanInfo
	if mode == runAnalyzed {
		n, info, err = wt.RunAnalyzed(t.db.workers)
	} else {
		n, err = wt.Run(t.db.workers)
	}
	t.db.noteOutcome(err)
	return n, info, err
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

// resolve looks up a QuerySpec's table and resolves the spec against it.
func (db *DB) resolve(spec QuerySpec) (*Table, plan.Spec, error) {
	tbl, err := db.lookup(spec.Table)
	if err != nil {
		return nil, plan.Spec{}, err
	}
	ps, err := tbl.planSpec(spec)
	return tbl, ps, err
}

// planSpec resolves a QuerySpec's names against the table schema into
// the plan layer's index-based Spec — the Go API's binder, as
// internal/sql's is SQL's. Its Limit reads a negative count as
// unlimited, like 0; the plan's negative Limit is SQL's LIMIT 0.
func (t *Table) planSpec(spec QuerySpec) (plan.Spec, error) {
	if spec.Via < Auto || spec.Via > ClusteredIndexScan {
		return plan.Spec{}, fmt.Errorf("repro: unknown access method %v", spec.Via)
	}
	if spec.CM != "" && spec.Via != CMScan {
		return plan.Spec{}, fmt.Errorf("repro: CM %q needs Via CMScan, not %v", spec.CM, spec.Via)
	}
	ps := plan.Spec{Limit: max(spec.Limit, 0), Method: spec.Via, CM: spec.CM}

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

// aggSpecs resolves and validates facade aggregates against the schema;
// none resolve to nil, as the SQL binder's do.
func (t *Table) aggSpecs(aggs []Agg) ([]exec.AggSpec, error) {
	if len(aggs) == 0 {
		return nil, nil
	}
	sch := t.inner.Schema()
	out := make([]exec.AggSpec, len(aggs))
	for i, a := range aggs {
		if a.Func < Count || a.Func > Max {
			return nil, fmt.Errorf("repro: unknown aggregate function %v", a.Func)
		}
		spec := exec.AggSpec{Kind: a.Func, Col: -1}
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
	tbl, ps, err := db.resolve(spec)
	if err != nil {
		return PlanInfo{}, err
	}
	return tbl.readStmt(nil, ps, 0, explainOnly, plan.Sink{})
}

// ExplainAnalyzeSpec executes the spec for real and returns its plan
// with measured actuals attached to every node — the native form of
// SQL's EXPLAIN ANALYZE. Result rows are consumed and counted, not
// returned (PostgreSQL semantics: the plan is the result). The run is
// the exact Run code path, so side effects, locking and row flow are
// identical to SelectSpec; its physical work still counts into the
// engine-wide query.* metrics.
func (db *DB) ExplainAnalyzeSpec(spec QuerySpec) (PlanInfo, error) {
	tbl, ps, err := db.resolve(spec)
	if err != nil {
		return PlanInfo{}, err
	}
	return tbl.analyze(nil, ps)
}

// analyze compiles and executes a resolved spec under a shared latch
// hold, measuring per-node actuals. ctx (plus the statement timeout)
// bounds the run like SelectSpec.
func (t *Table) analyze(ctx context.Context, ps plan.Spec) (PlanInfo, error) {
	return t.readStmt(ctx, ps, t.db.workers, runAnalyzed, plan.Sink{Row: func(value.Row) bool { return true }})
}
