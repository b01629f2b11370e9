// Package plan is the engine's physical plan layer: every query —
// whatever surface it arrives on — compiles to an explicit tree of
// operator nodes through one Build → Optimize → Run pipeline.
//
// Build shapes the resolved query (a plan.Spec of column indices and
// executor predicates) into a Tree; Optimize chooses the access path
// with the paper's Section 4 cost model — table scan, clustered-index
// scan, pipelined or sorted index scan, CM scan, the OR union, or the
// cm-agg lowering that answers covered aggregates from the correlation
// map's per-entry bucket statistics without touching the heap; Run
// executes the chosen tree on the parallel executors. UPDATE and DELETE
// compile their read side the same way (WriteTree). The facade's five
// query surfaces (Exec, ExecScript, SelectMany, SelectAggregate and
// EXPLAIN) all lower through this package, so a statement cannot behave
// differently between surfaces, and EXPLAIN prints exactly the operator
// chain Run executes.
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

// Force pins the access path of a single-conjunction query; Auto lets
// the cost model choose (and is required for OR queries, whose
// disjuncts plan independently).
type Force int

// The forcible access paths, mirroring the facade's AccessMethod enum.
const (
	// Auto lets the Section 4 cost model choose (including cm-agg).
	Auto Force = iota
	// ForceTableScan forces a full sequential scan.
	ForceTableScan
	// ForceSorted forces a sorted (bitmap-style) secondary index scan.
	ForceSorted
	// ForcePipelined forces per-tuple index probing.
	ForcePipelined
	// ForceCM forces the correlation-map scan.
	ForceCM
	// ForceClustered forces the clustered-index scan.
	ForceClustered
)

// Order is one ORDER BY key of a Spec. For plain selects Col is a table
// column index; for aggregate specs it is a position in the canonical
// output row (GroupBy columns, then Aggs).
type Order struct {
	Col  int
	Desc bool
}

// Spec is a resolved query: every column is an index, every predicate
// an executor predicate. It is what the facade lowers a QuerySpec (or a
// bound SQL statement) into before compilation.
type Spec struct {
	// Disjuncts holds the WHERE clause in disjunctive normal form; a
	// query without predicates is one empty conjunction. More than one
	// disjunct requires Force == Auto.
	Disjuncts []exec.Query
	// Force pins the access path; see Force.
	Force Force
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
	// stop their scan early; sorted ones bound the top-K heap).
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

// Tree is a compiled query: the operator chain plus the physical
// decisions Run executes. Build constructs it, Optimize finalizes it,
// and Run/Rows execute it; all three must happen under one shared table
// latch hold so the plan sees a consistent table state.
type Tree struct {
	Root *Node

	t    *table.Table
	spec Spec

	optimized bool
	useOr     bool
	single    exec.Plan   // single-conjunction access plan
	orPlan    exec.OrPlan // multi-disjunct plan, or the aggregate wrapper
	cmagg     *exec.CMAggPlan

	method        exec.Method
	uses          string
	cost          time.Duration
	costEstimated bool
	decodedCols   int

	// an is the live analysis state of a RunAnalyzed call; nil for
	// plain runs, so the hooks in the run functions cost one branch.
	an *analysisState
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
	if len(spec.Disjuncts) > 1 && spec.Force != Auto {
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
	// Single reports a single-path access plan whose Method and Uses
	// are meaningful; Union and CMAgg mark the other two access shapes.
	Single bool
	Union  bool
	CMAgg  bool
	// Fallback marks the OR filtered-scan fallback.
	Fallback bool
	// Method and Uses name the single access path (see Single).
	Method exec.Method
	Uses   string
	// Cost is the predicted cost; CostEstimated reports whether the
	// cost model produced it (false for forced methods, whose cost is
	// not computed).
	Cost          time.Duration
	CostEstimated bool
	// DecodedCols counts the columns the executor materializes per
	// surviving tuple; TotalCols is the schema arity.
	DecodedCols int
	TotalCols   int
}

// Explain flattens the optimized tree into an Info.
func (tr *Tree) Explain() Info {
	info := Info{
		Method:        tr.method,
		Uses:          tr.uses,
		Cost:          tr.cost,
		CostEstimated: tr.costEstimated,
		DecodedCols:   tr.decodedCols,
		TotalCols:     len(tr.t.Schema().Cols),
	}
	for n := tr.Root; n != nil; n = n.Child {
		// The chain is rooted at the top operator; collect bottom-up.
		info.Nodes = append([]NodeInfo{{Kind: n.Kind.String(), Detail: n.Detail, Cost: n.Cost}}, info.Nodes...)
	}
	if len(info.Nodes) > 0 {
		switch info.Nodes[0].Kind {
		case "union":
			info.Union = true
		case "cm-agg":
			info.CMAgg = true
		default:
			if tr.useOr {
				info.Fallback = true
			} else {
				info.Single = true
			}
		}
	}
	return info
}
