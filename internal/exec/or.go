package exec

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/table"
	"repro/internal/value"
)

// This file adds disjunction (OR) support on top of the conjunctive
// engine. An OR query is held in disjunctive normal form — a list of
// conjunctive Query values — and executes one of two ways:
//
//   - RID-dedup union: when every disjunct can drive an index or CM
//     probe (and the summed probe costs beat one sequential scan), each
//     disjunct resolves the heap pages its own best access path would
//     read (an index's RIDs through pagesOf, a CM's buckets through the
//     page directory), the union reduces to one sorted distinct page
//     list (which also deduplicates rows matched by several disjuncts:
//     emission is by page sweep, not by RID), and one physical-order
//     sweep re-filters tuples with the compiled disjunction filter.
//   - Filtered scan fallback: when any disjunct cannot probe (a bare
//     table-scan plan, or no indexable predicate), the whole
//     disjunction evaluates as a single full scan with the OrFilter —
//     never N separate scans.
//
// Both paths emit rows in physical heap order, so every worker count
// produces the identical result sequence.

// OrQuery is a disjunction of conjunctive queries: a row matches when it
// satisfies at least one disjunct. Proj is the shared projection
// (same semantics as Query.Proj); the disjunct queries' own Proj fields
// are ignored.
type OrQuery struct {
	Disjuncts []Query
	Proj      []int
	// Snap is the MVCC snapshot the disjunction reads as of (see
	// Query.Snap). 0 reads the latest state.
	Snap uint64
	// Obs, when non-nil, receives the union's physical-work counts
	// (see Query.Obs and ScanObs); the per-disjunct RID collection and
	// the shared page sweep all tally into it.
	Obs *ScanObs
	// Ctx, when non-nil, cancels the union exactly like Query.Ctx
	// cancels a conjunctive scan.
	Ctx context.Context
}

// NewOrQuery builds a disjunctive query from conjunctions.
func NewOrQuery(disjuncts ...Query) OrQuery { return OrQuery{Disjuncts: disjuncts} }

// Matches reports whether the row satisfies at least one disjunct.
func (oq OrQuery) Matches(row value.Row) bool {
	for _, q := range oq.Disjuncts {
		if q.Matches(row) {
			return true
		}
	}
	return false
}

// MaterializeCols returns the sorted distinct columns the executor must
// decode for result rows: every column when Proj is nil, otherwise the
// union of the projection and every column predicated by any disjunct.
func (oq OrQuery) MaterializeCols(ncols int) []int {
	if oq.Proj == nil {
		out := make([]int, ncols)
		for i := range out {
			out[i] = i
		}
		return out
	}
	seen := make([]bool, ncols)
	mark := func(c int) {
		if c >= 0 && c < ncols {
			seen[c] = true
		}
	}
	for _, c := range oq.Proj {
		mark(c)
	}
	for _, q := range oq.Disjuncts {
		for _, p := range q.Preds {
			mark(p.Col)
		}
	}
	var out []int
	for c, ok := range seen {
		if ok {
			out = append(out, c)
		}
	}
	return out
}

// String renders the disjunction with parenthesized conjunctions.
func (oq OrQuery) String() string {
	parts := make([]string, len(oq.Disjuncts))
	for i, q := range oq.Disjuncts {
		parts[i] = "(" + q.String() + ")"
	}
	return strings.Join(parts, " OR ")
}

// OrFilter is an OrQuery compiled against a schema: it evaluates the
// disjunction directly on encoded heap tuples, running the structural
// check once and each disjunct's compiled conjunction (with its own
// cheapest-first predicate order and early exit) until one accepts.
type OrFilter struct {
	sch     table.Schema
	filters []*TupleFilter
}

// CompileOrFilter compiles every disjunct against the schema.
func CompileOrFilter(sch table.Schema, oq OrQuery) *OrFilter {
	sch = sch.Normalized()
	f := &OrFilter{sch: sch, filters: make([]*TupleFilter, len(oq.Disjuncts))}
	for i, q := range oq.Disjuncts {
		f.filters[i] = CompileFilter(sch, q)
	}
	return f
}

// Matches evaluates the disjunction on an encoded tuple; it reports true
// as soon as any disjunct matches.
func (f *OrFilter) Matches(tuple []byte) (bool, error) {
	if err := f.sch.CheckTuple(tuple); err != nil {
		return false, err
	}
	for _, tf := range f.filters {
		ok, err := tf.matchPreds(tuple)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

// OrPlan is the chosen execution strategy for an OrQuery: either a
// RID-dedup union of per-disjunct probe plans, or a single filtered
// table scan.
type OrPlan struct {
	// Union reports whether the plan probes each disjunct and unions the
	// RIDs; false means one filtered sequential scan.
	Union bool
	// Plans holds one access-path plan per disjunct when Union is true.
	Plans []Plan
	// Cost is the predicted total cost: the summed probe costs for a
	// union, the sequential-scan cost for the fallback.
	Cost time.Duration
}

// ChooseOrPlan plans an OR query: each disjunct is planned independently
// with the Section 4 cost model, and the union path is chosen only when
// every disjunct found a probe-based plan and their summed costs beat
// one sequential scan. Otherwise the whole disjunction falls back to a
// single filtered scan — a disjunct that would scan anyway makes
// per-disjunct probing pure overhead.
func ChooseOrPlan(t *table.Table, oq OrQuery, sp StatsProvider) OrPlan {
	ts := sp.TableStats(t)
	scanCost := costmodel.Scan(hardwareFor(t), ts)
	plans := make([]Plan, len(oq.Disjuncts))
	var sum time.Duration
	union := len(oq.Disjuncts) > 0
	for i, q := range oq.Disjuncts {
		plans[i] = ChoosePlan(t, q, sp)
		if plans[i].Method == MethodTableScan {
			union = false
			break
		}
		sum += plans[i].Cost
	}
	if !union || sum >= scanCost {
		return OrPlan{Union: false, Cost: scanCost}
	}
	return OrPlan{Union: true, Plans: plans, Cost: sum}
}

// planPages resolves the heap pages one disjunct's probe-based plan
// would read: an index plan collects its RIDs (fanned out across the
// worker pool) and reduces them to pages, a CM plan reads its buckets'
// pages off the page directory.
func planPages(t *table.Table, p Plan, q Query, workers int) ([]int64, error) {
	switch p.Method {
	case MethodSorted, MethodPipelined, MethodClustered:
		rids, err := rangeRIDs(q.Ctx, p.Index, sortRanges(probeRanges(p.Index, q)), workers)
		return pagesOf(rids), err
	case MethodCM:
		return cmPages(t, p.CM, q, true)
	default:
		// ChooseOrPlan never unions a table-scan disjunct; reaching here
		// means a hand-built OrPlan. Probing nothing would silently drop
		// the disjunct's rows from the union.
		return nil, fmt.Errorf("exec: %v disjunct cannot join a union: it resolves to no page list", p.Method)
	}
}

// pages is the plan's probe phase, shared by Run and AggregateOr: the
// whole heap for the fallback, otherwise every disjunct's pages merged
// into one sorted distinct list — which is also what deduplicates rows
// matched by several disjuncts, since emission is by page sweep.
func (op OrPlan) pages(t *table.Table, oq OrQuery, workers int) (pageSet, error) {
	if !op.Union {
		return pageSet{n: t.Heap().NumPages()}, nil
	}
	var pages []int64
	for i, p := range op.Plans {
		pp, err := planPages(t, p, oq.Disjuncts[i], workers)
		if err != nil {
			return pageSet{}, err
		}
		pages = append(pages, pp...)
	}
	return pageSet{list: distinctPages(pages)}, nil
}

// Run executes the OR plan with the given scan fan-out. The union path
// resolves each disjunct's heap pages through its own access path,
// deduplicates at page granularity and sweeps the pages once in physical
// order, re-filtering with the compiled disjunction; the fallback path is
// a single filtered scan. Rows emit in physical order either way,
// identical for any worker count.
func (op OrPlan) Run(t *table.Table, oq OrQuery, workers int, fn RowFunc) error {
	ps, err := op.pages(t, oq, workers)
	if err != nil {
		return err
	}
	return sweepEmit(t, newOrLazyScan(t, oq), ps, workers, fn)
}
