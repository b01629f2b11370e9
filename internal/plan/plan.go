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
// surfaces, and EXPLAIN prints exactly the operator chain Run executes.
//
// The operator vocabulary: scan | union (access), filter (predicate
// evaluation — fused into the access path's compiled tuple filter at
// run time), project (projection pushdown), agg (the streaming grouped
// fold), cm-agg (index-only aggregation from CM bucket statistics, with
// an embedded hybrid sweep of impure buckets), having (post-aggregate
// filter), sort (full sort or bounded top-K heap), limit, and the write
// nodes update | delete on top of a write statement's read chain. New
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

// Kind identifies an operator node of a plan tree.
type Kind int

// The operator kinds, bottom-up through a typical tree.
const (
	// KindScan is a single-path access node (table scan, index scan or
	// CM scan; the detail names the method and structure).
	KindScan Kind = iota
	// KindUnion is the OR access node: per-disjunct probes whose RIDs
	// union into one deduplicated page sweep.
	KindUnion
	// KindCMAgg answers aggregates from CM per-entry bucket statistics,
	// sweeping only impure buckets (the hybrid leg is embedded).
	KindCMAgg
	// KindFilter evaluates the WHERE predicates. At run time it is fused
	// into the access node's compiled tuple filter, so rejected tuples
	// are never materialized.
	KindFilter
	// KindProject narrows rows to the projected columns; pushed into the
	// scan, which decodes only projected + predicated columns.
	KindProject
	// KindGroupAgg is the streaming grouped aggregation fold.
	KindGroupAgg
	// KindHaving filters aggregate output rows.
	KindHaving
	// KindSort orders result rows (bounded top-K under a limit).
	KindSort
	// KindLimit caps the result row count.
	KindLimit
	// KindUpdate is the write operator of an UPDATE statement: it
	// consumes the matching rows from the access chain below it and
	// replaces each under one MVCC writer statement (Algorithm-1
	// retraction + reinsert per row).
	KindUpdate
	// KindDelete is the write operator of a DELETE statement: it
	// consumes the matching RIDs from the access chain below it and ends
	// each row version under one MVCC writer statement.
	KindDelete
)

// String names the kind as EXPLAIN prints it.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindUnion:
		return "union"
	case KindCMAgg:
		return "cm-agg"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindGroupAgg:
		return "agg"
	case KindHaving:
		return "having"
	case KindSort:
		return "sort"
	case KindLimit:
		return "limit"
	case KindUpdate:
		return "update"
	case KindDelete:
		return "delete"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Node is one operator of a compiled plan tree. Nodes form a chain from
// the access operator up (Child points one level down, nil at the
// leaf). Multi-leg access shapes stay one node: a union node's Detail
// names every disjunct probe, and a hybrid cm-agg node's Detail names
// its sweep leg — exactly what EXPLAIN prints.
type Node struct {
	Kind   Kind
	Detail string
	Cost   time.Duration // access and cm-agg nodes; zero elsewhere
	Child  *Node
}

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

// Tree is a compiled query: the operator chain plus the physical
// decisions Run executes. Build constructs it, Optimize finalizes it,
// and Run/Rows execute it; all three must happen under one shared table
// latch hold so the plan sees a consistent table state.
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
	// root tops the operator chain and decodedCols counts the columns a
	// surviving tuple materializes; both are EXPLAIN's, built by chain.
	root        *Node
	decodedCols int

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

// NodeInfo is one operator row of an explained plan.
type NodeInfo struct {
	Kind   string
	Detail string
	// Cost is the node's predicted cost (access and cm-agg nodes; zero
	// elsewhere). EXPLAIN ANALYZE prints it beside the measured work.
	Cost time.Duration
}

// Info summarizes a compiled tree for EXPLAIN: the flattened operator
// chain bottom-up plus the access-path fields the facade's PlanInfo
// surfaces.
type Info struct {
	// Nodes is the operator chain bottom-up, one entry per node.
	Nodes []NodeInfo
	// Method and Uses name the access path of a single-path plan: the
	// method and the index or CM it reads (a table scan, and the OR
	// fallback, read none). A union and a cm-agg plan are no single
	// path — Method is exec.MethodAuto and Nodes[0] is authoritative —
	// and cm-agg puts its CM in Uses.
	Method exec.Method
	Uses   string
	// Cost is the cost model's prediction; zero under a forced method,
	// whose cost is not computed.
	Cost time.Duration
	// DecodedCols counts the columns the executor materializes per
	// surviving tuple; TotalCols is the schema arity.
	DecodedCols int
	TotalCols   int
}

// Explain flattens the optimized tree into an Info.
func (tr *Tree) Explain() Info {
	root := tr.chain()
	info := Info{
		Method:      exec.MethodTableScan,
		Cost:        tr.cost,
		DecodedCols: tr.decodedCols,
		TotalCols:   len(tr.t.Schema().Cols),
	}
	switch l := tr.soleLeg(); {
	case tr.cmagg != nil:
		info.Method, info.Uses = exec.MethodAuto, tr.cmagg.CM.Spec().Name
	case l != nil:
		info.Method, info.Uses = l.method, tr.uses(*l)
	case len(tr.legs) > 1:
		info.Method = exec.MethodAuto
	}
	for n := root; n != nil; n = n.Child {
		// The chain is rooted at the top operator; collect bottom-up.
		info.Nodes = append([]NodeInfo{{Kind: n.Kind.String(), Detail: n.Detail, Cost: n.Cost}}, info.Nodes...)
	}
	return info
}
