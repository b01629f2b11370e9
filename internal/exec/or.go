package exec

import (
	"context"
	"strings"

	"repro/internal/table"
)

// This file is the disjunction (OR) a sweep filters by. A WHERE clause is
// held in disjunctive normal form — a list of conjunctive Query values,
// a single conjunction being the one-disjunct case — and every page
// sweep (SweepTuples, Fold) re-filters the tuples of its page set with the
// compiled disjunction. Which pages those are is internal/plan's
// decision: the union of what each disjunct's own access path resolves
// to — emission is by page sweep, not by RID, so a row matched by
// several disjuncts still comes out once — or the whole heap when some
// disjunct cannot probe, never N separate scans. Either way rows emit in
// physical heap order, identically at every worker count.

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

// asOr lifts the conjunction into the one-disjunct disjunction, carrying
// its projection, snapshot, observer and context.
func (q Query) asOr() OrQuery {
	return OrQuery{Disjuncts: []Query{q}, Proj: q.Proj, Snap: q.Snap, Obs: q.Obs, Ctx: q.Ctx}
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
	out := make([]int, 0, ncols)
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
