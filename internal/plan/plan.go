// Package plan is the engine's physical plan layer, and the only place an
// access path is chosen: every query — whatever surface it arrives on —
// compiles to one Tree through one Build → Optimize → Run pipeline.
//
// Build shapes the resolved query (a plan.Spec of column indices and
// executor predicates) into a Tree. Optimize fills the tree's access — a
// list of legs, one per disjunct of the WHERE clause, each naming a
// method, the index or CM it reads and its Section 4 cost; an empty list
// is the whole-heap sweep (a table scan, or an OR some disjunct of which
// cannot probe), one leg is a single conjunction's index, clustered or CM
// scan, several are the OR union — with the paper's cost model (or
// resolves a forced method to its structure), and attempts the cm-agg
// lowering that answers covered aggregates from the correlation map's
// per-entry bucket statistics without touching the heap. A candidate CM
// is priced from the heap pages its probe resolves to — the CM and the
// bucket→page directory are memory-resident, as the paper's prototype
// resolves the CM before the query is planned (Section 7.1) — and a CM
// leg keeps that probe. Run turns the legs into one page set and hands
// it to internal/exec's sweep or fold driver (a lone pipelined probe,
// the one access that is not a page sweep, runs its own executor).
//
// A SELECT holds the table latch in shared mode from Compile through Run,
// so its CM leg sweeps the pages the planner resolved: one CM probe and
// one directory walk per statement. UPDATE and DELETE compile their read
// side the same way (WriteTree), but a WriteTree runs after its compile
// latch is released, so it probes its CM legs again under the writer
// gate before sweeping. The facade's query surfaces (SelectSpec and its
// sugar, Exec, the one script executor and EXPLAIN) all lower through
// this package, so a statement cannot behave differently between
// surfaces, and EXPLAIN prints exactly the operator nodes Run executes.
//
// There is one plan description: PlanInfo, its PlanNode list bottom-up,
// and the NodeActuals and RunActuals an analyzed run fills into it in
// place. Explain builds it from the physical decisions only when asked,
// so a plain run — a write statement's included — renders no detail
// string. The facade's PlanInfo, PlanNode, NodeActuals and RunActuals
// are aliases of these types, not copies.
//
// The operator vocabulary: scan | union (access), filter (predicate
// evaluation — fused into the access path's compiled tuple filter at
// run time), project (projection pushdown), agg (the streaming grouped
// fold), cm-agg (index-only aggregation from CM bucket statistics, with
// an embedded hybrid sweep of impure buckets), having (post-aggregate
// filter), sort (full sort or bounded top-K heap), limit, and the write
// nodes update | delete on top of a write statement's read nodes. New
// operators are node insertions here, not new lowering branches.
package plan

import (
	"context"
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/table"
)

// Order is one ORDER BY key of a Spec. For plain selects Col is a table
// column index; for aggregate specs it is a position in the canonical
// output row (GroupBy columns, then Aggs).
type Order struct {
	Col  int
	Desc bool
}

// Spec is a resolved query: every column is an index, every predicate
// an executor predicate. The SQL binder (internal/sql) resolves a
// statement straight into one, and the facade resolves a QuerySpec into
// one; either way the names are resolved once, before compilation.
type Spec struct {
	// Disjuncts holds the WHERE clause in disjunctive normal form; a
	// query without predicates is one empty conjunction.
	Disjuncts []exec.Query
	// Method pins the access path of a single-conjunction query: the
	// first index or CM the method applies to runs it. The zero value,
	// exec.MethodAuto, lets the cost model choose (cm-agg included) and
	// is required for OR queries, whose disjuncts plan independently.
	Method exec.Method
	// CM, with Method == exec.MethodCM, names the correlation map to go
	// through instead of the first applicable one.
	CM string
	// Proj lists the projected columns of a plain select (nil = all
	// columns). Ignored for aggregate specs.
	Proj []int
	// Aggs and GroupBy make the spec an aggregate query producing
	// canonical rows: GroupBy values in order, then aggregate results.
	Aggs    []exec.AggSpec
	GroupBy []int
	// Having filters canonical aggregate output rows; each predicate's
	// Col is a canonical output position.
	Having []exec.Pred
	// OrderBy sorts the result; see Order for the Col convention.
	OrderBy []Order
	// Limit caps the result rows when positive (plain unsorted queries
	// stop their scan early; sorted ones bound the top-K heap). 0 leaves
	// them uncapped; a negative Limit — SQL's LIMIT 0 — caps them at none,
	// and Run returns before the access path reads anything.
	Limit int
	// Snap is the MVCC snapshot every access path reads as of (see
	// exec.Query.Snap). Build stamps it onto each disjunct, so the whole
	// tree sees one consistent table version even while a concurrent
	// writer statement is mid-flight. 0 reads the latest state.
	Snap uint64
	// Obs, when non-nil, receives the engine-wide physical-work counts
	// of this query's scans (the facade wires the DB's global counters
	// here when metrics are enabled). An analyzed run measures into its
	// own private ScanObs and folds the totals into Obs afterwards.
	Obs *exec.ScanObs
	// Ctx, when non-nil, cancels execution (see exec.Query.Ctx). Build
	// stamps it onto each disjunct like Snap, so every access leg of the
	// tree polls the same context. nil never cancels.
	Ctx context.Context
}

// IsAggregate reports whether the spec computes aggregates or groups.
func (s Spec) IsAggregate() bool { return len(s.Aggs) > 0 || len(s.GroupBy) > 0 }

// The operator kinds a PlanNode names, bottom-up through a typical tree.
const (
	// kindScan is a single-path access node (table scan, index scan or
	// CM scan; the detail names the method and structure).
	kindScan = "scan"
	// kindUnion is the OR access node: per-disjunct probes whose RIDs
	// union into one deduplicated page sweep.
	kindUnion = "union"
	// kindCMAgg answers aggregates from CM per-entry bucket statistics,
	// sweeping only impure buckets (the hybrid leg is embedded).
	kindCMAgg = "cm-agg"
	// kindFilter evaluates the WHERE predicates. At run time it is fused
	// into the access node's compiled tuple filter, so rejected tuples
	// are never materialized.
	kindFilter = "filter"
	// kindProject narrows rows to the projected columns; pushed into the
	// scan, which decodes only projected + predicated columns.
	kindProject = "project"
	// kindGroupAgg is the streaming grouped aggregation fold.
	kindGroupAgg = "agg"
	// kindHaving filters aggregate output rows.
	kindHaving = "having"
	// kindSort orders result rows (bounded top-K under a limit).
	kindSort = "sort"
	// kindLimit caps the result row count.
	kindLimit = "limit"
	// kindUpdate is the write operator of an UPDATE statement: it
	// consumes the matching rows from the access nodes below it and
	// replaces each under one MVCC writer statement (Algorithm-1
	// retraction + reinsert per row).
	kindUpdate = "update"
	// kindDelete is the write operator of a DELETE statement: it
	// consumes the matching RIDs from the access nodes below it and ends
	// each row version under one MVCC writer statement.
	kindDelete = "delete"
)

// leg is one disjunct's access path: the method, the index or CM it
// reads and its predicted cost (zero under a forced method, which is not
// priced). A CM or clustered leg carries the probe that priced it: the
// heap pages a SELECT then sweeps.
type leg struct {
	method exec.Method
	index  *table.Index // pipelined and sorted legs
	probe  exec.Probe   // CM and clustered legs
	cost   time.Duration
}

// uses names the index or CM the leg reads; a clustered leg reads the
// table's clustered index, <table>.clustered.
func (tr *Tree) uses(l leg) string {
	switch l.method {
	case exec.MethodCM:
		return l.probe.CM.Spec().Name
	case exec.MethodClustered:
		return tr.t.Name() + ".clustered"
	}
	return l.index.Name
}

// Tree is a compiled query: the physical decisions Run executes, from
// which Explain describes the operator nodes. Build constructs it,
// Optimize finalizes it, and Run/Rows execute it; all three must happen
// under one shared table latch hold so the plan sees a consistent table
// state.
type Tree struct {
	t    *table.Table
	spec Spec

	optimized bool
	// legs is the access path, one leg per disjunct; empty sweeps the
	// whole heap. cmagg, when set, answers the aggregate instead.
	legs  []leg
	cmagg *exec.CMAggPlan
	// cost is the chosen path's predicted cost; zero when the method was
	// forced.
	cost time.Duration

	// an is the live analysis state of a RunAnalyzed call; nil for
	// plain runs, so the hooks in the run functions cost one branch.
	an *analysisState
}

// soleLeg returns the one leg of a single-path plan — an index,
// clustered or CM scan of one conjunction — or nil for every other shape
// (whole-heap sweep, union).
func (tr *Tree) soleLeg() *leg {
	if len(tr.legs) != 1 {
		return nil
	}
	return &tr.legs[0]
}

// Build validates a spec against a table and returns the unoptimized
// tree. Callers then Optimize it with a statistics provider and Run it.
func Build(t *table.Table, spec Spec) (*Tree, error) {
	if len(spec.Disjuncts) == 0 {
		spec.Disjuncts = []exec.Query{{}}
	}
	for i := range spec.Disjuncts {
		spec.Disjuncts[i].Snap = spec.Snap
		spec.Disjuncts[i].Ctx = spec.Ctx
	}
	if len(spec.Disjuncts) > 1 && spec.Method != exec.MethodAuto {
		return nil, fmt.Errorf("plan: OR queries plan access paths per disjunct; the method must be Auto")
	}
	if !spec.IsAggregate() && len(spec.Having) > 0 {
		return nil, fmt.Errorf("plan: HAVING needs aggregates or GROUP BY")
	}
	return &Tree{t: t, spec: spec}, nil
}

// Compile is Build followed by Optimize — the one-call form every
// facade surface uses.
func Compile(t *table.Table, spec Spec, sp exec.StatsProvider) (*Tree, error) {
	tr, err := Build(t, spec)
	if err != nil {
		return nil, err
	}
	if err := tr.Optimize(sp); err != nil {
		return nil, err
	}
	return tr, nil
}

// PlanInfo describes a compiled plan — what EXPLAIN prints, and with
// an analyzed run's measurements attached, what EXPLAIN ANALYZE prints.
// Method, Uses and EstimatedCost summarize the access path (for an OR
// union plan or a cm-agg plan, Method is exec.MethodAuto and Nodes[0] is
// authoritative; a cm-agg plan puts the CM name in Uses); Nodes lists
// the full operator tree.
type PlanInfo struct {
	Method        exec.Method
	EstimatedCost time.Duration // zero under a forced method, which is not priced
	Uses          string        // name of the index or CM used, if any
	// DecodedCols counts the columns the executor materializes per
	// surviving row under the requested projection (predicated columns
	// included); TotalCols is the schema arity. DecodedCols < TotalCols
	// means projection pushdown engaged, and 0 means the plan is
	// index-only (a pure cm-agg answer never touches the heap).
	DecodedCols int
	TotalCols   int
	// Nodes is the operator tree bottom-up; see PlanNode.
	Nodes []PlanNode
	// Analyzed summarizes the measured run after RunAnalyzed (the
	// facade's ExplainAnalyzeSpec, or SQL's EXPLAIN ANALYZE); nil after
	// a plain Explain.
	Analyzed *RunActuals
}

// PlanNode is one operator of an explained plan, bottom-up: an access
// node first ("scan", "union" or "cm-agg"), then "filter", "project",
// "agg", "having", "sort", "limit", and "update" or "delete" on a write
// statement, as the query uses them. Detail is a human-readable summary
// (the method and structure for access nodes, the expressions
// elsewhere). The nodes are exactly what execution runs: filter and
// project are fused into the access path's compiled tuple filter and
// projection pushdown at run time. A multi-leg access shape stays one
// node: a union's Detail names every disjunct probe, and a hybrid
// cm-agg's names its sweep leg.
type PlanNode struct {
	Kind   string
	Detail string
	// EstCost is the cost model's prediction for the node (access and
	// cm-agg nodes; zero elsewhere and for forced methods).
	EstCost time.Duration
	// Actual holds the node's measured execution after an analyzed run;
	// nil after a plain Explain.
	Actual *NodeActuals
}

// Explain describes the optimized tree: its access path and its operator
// nodes, built from the physical decisions each time it is asked, so a
// plain run never renders a detail string.
func (tr *Tree) Explain() PlanInfo {
	info := PlanInfo{
		Method:        exec.MethodTableScan,
		EstimatedCost: tr.cost,
		DecodedCols:   tr.decodedCols(),
		TotalCols:     len(tr.t.Schema().Cols),
		Nodes:         tr.nodes(),
	}
	switch l := tr.soleLeg(); {
	case tr.cmagg != nil:
		info.Method, info.Uses = exec.MethodAuto, tr.cmagg.CM.Spec().Name
	case l != nil:
		info.Method, info.Uses = l.method, tr.uses(*l)
	case len(tr.legs) > 1:
		info.Method = exec.MethodAuto
	}
	return info
}
