// Package exec implements query execution: conjunctive predicates and the
// pieces the four access paths the paper compares — full table scan,
// pipelined secondary index scan, sorted (bitmap-style) secondary index
// scan, and the correlation-map scan — plus the clustered-index scan are
// built from. It holds executors only: the page set each path resolves
// to (WholeHeap, IndexPages, ProbeCM, ProbeClustered, PageList), the
// sweep and fold drivers over a page set (SweepTuples, Fold), the
// pipelined probe (PipelinedTuples), the write executor, and the
// physical facts the Section 4 cost model is priced from (PageRuns,
// Hardware, the statistics providers). Which path runs a statement, and
// how its pieces compose, is internal/plan's decision.
package exec

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/value"
)

// Op is a predicate operator.
type Op int

// Predicate operators.
const (
	OpEq Op = iota
	OpIn
	OpRange
	OpNe
)

// Pred is one predicate over a column. Range bounds are inclusive unless
// the matching Excl flag is set; a nil bound is open.
type Pred struct {
	Col  int
	Op   Op
	Vals []value.Value // OpEq: 1 value, OpIn: n values, OpNe: 1 value
	Lo   *value.Value
	Hi   *value.Value
	// LoExcl / HiExcl make the bound strict (<, > instead of <=, >=).
	// Index probes, and CM probes over a bucketed column, ignore them —
	// the boundary entries they admit are discarded by the executor's
	// re-filter — so exclusive ranges cost at most one extra boundary
	// value of I/O. A CM's unbucketed column keys on the value itself
	// and honours them.
	LoExcl bool
	HiExcl bool
}

// Eq builds an equality predicate.
func Eq(col int, v value.Value) Pred { return Pred{Col: col, Op: OpEq, Vals: []value.Value{v}} }

// In builds a membership predicate.
func In(col int, vals ...value.Value) Pred { return Pred{Col: col, Op: OpIn, Vals: vals} }

// Between builds an inclusive range predicate.
func Between(col int, lo, hi value.Value) Pred {
	return Pred{Col: col, Op: OpRange, Lo: &lo, Hi: &hi}
}

// Ge builds a lower-bounded range predicate.
func Ge(col int, lo value.Value) Pred { return Pred{Col: col, Op: OpRange, Lo: &lo} }

// Le builds an upper-bounded range predicate.
func Le(col int, hi value.Value) Pred { return Pred{Col: col, Op: OpRange, Hi: &hi} }

// Lt builds a strict upper-bounded range predicate (col < hi).
func Lt(col int, hi value.Value) Pred {
	return Pred{Col: col, Op: OpRange, Hi: &hi, HiExcl: true}
}

// Gt builds a strict lower-bounded range predicate (col > lo).
func Gt(col int, lo value.Value) Pred {
	return Pred{Col: col, Op: OpRange, Lo: &lo, LoExcl: true}
}

// Ne builds an inequality predicate (col != v). Ne is not an index probe:
// the planner treats it as unindexable and access paths evaluate it by
// re-filtering.
func Ne(col int, v value.Value) Pred { return Pred{Col: col, Op: OpNe, Vals: []value.Value{v}} }

// Matches reports whether the row satisfies the predicate.
func (p Pred) Matches(row value.Row) bool {
	v := row[p.Col]
	switch p.Op {
	case OpEq:
		return v.Equal(p.Vals[0])
	case OpIn:
		for _, w := range p.Vals {
			if v.Equal(w) {
				return true
			}
		}
		return false
	case OpNe:
		return !v.Equal(p.Vals[0])
	default:
		if p.Lo != nil {
			c := v.Compare(*p.Lo)
			if c < 0 || (c == 0 && p.LoExcl) {
				return false
			}
		}
		if p.Hi != nil {
			c := v.Compare(*p.Hi)
			if c > 0 || (c == 0 && p.HiExcl) {
				return false
			}
		}
		return true
	}
}

// NLookups returns the number of distinct value lookups the predicate
// implies for the cost model's n_lookups parameter (1 for ranges, which
// the executor probes as a single contiguous range).
func (p Pred) NLookups() int {
	switch p.Op {
	case OpEq:
		return 1
	case OpIn:
		return len(p.Vals)
	default:
		return 1
	}
}

// Indexable reports whether the predicate can drive an index or CM probe.
// Ne excludes a single value, so probing it through an access method would
// read essentially the whole structure; it is evaluated by re-filtering.
func (p Pred) Indexable() bool { return p.Op != OpNe }

// String renders the predicate for logs and advisor output, its column
// by position.
func (p Pred) String() string { return p.Describe(fmt.Sprintf("col%d", p.Col)) }

// Describe renders the predicate over a column shown as name — EXPLAIN's
// filter and HAVING details pass the schema or output name. It is built
// from the predicate struct rather than by substituting into String's
// output, so a column literally named "colN" (or a string literal
// containing one) cannot corrupt it.
func (p Pred) Describe(name string) string {
	switch p.Op {
	case OpEq:
		return fmt.Sprintf("%s = %v", name, p.Vals[0])
	case OpIn:
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = v.String()
		}
		return fmt.Sprintf("%s IN (%s)", name, strings.Join(parts, ", "))
	case OpNe:
		return fmt.Sprintf("%s != %v", name, p.Vals[0])
	default:
		switch {
		case p.Lo != nil && p.Hi == nil:
			op := ">="
			if p.LoExcl {
				op = ">"
			}
			return fmt.Sprintf("%s %s %v", name, op, *p.Lo)
		case p.Lo == nil && p.Hi != nil:
			op := "<="
			if p.HiExcl {
				op = "<"
			}
			return fmt.Sprintf("%s %s %v", name, op, *p.Hi)
		case p.LoExcl || p.HiExcl:
			loOp, hiOp := ">=", "<="
			if p.LoExcl {
				loOp = ">"
			}
			if p.HiExcl {
				hiOp = "<"
			}
			return fmt.Sprintf("%s %s %v AND %s %s %v", name, loOp, *p.Lo, name, hiOp, *p.Hi)
		default:
			lo, hi := "-inf", "+inf"
			if p.Lo != nil {
				lo = p.Lo.String()
			}
			if p.Hi != nil {
				hi = p.Hi.String()
			}
			return fmt.Sprintf("%s BETWEEN %s AND %s", name, lo, hi)
		}
	}
}

// Query is a conjunction of predicates, optionally with a projection.
type Query struct {
	Preds []Pred
	// Proj lists the columns the caller will read from result rows
	// (projection pushdown). nil means every column: executors
	// materialize full rows. Non-nil means executors decode only the
	// union of Proj and the predicated columns into result rows; the
	// remaining entries stay zero values. An empty non-nil slice is
	// valid for callers that only need RIDs or match counts.
	Proj []int
	// Snap is the MVCC snapshot the scan reads as of: every access path
	// filters heap tuples through their begin/end timestamps against it,
	// so a query never observes a concurrent writer statement's
	// half-applied changes. 0 (the default) reads the latest state.
	Snap uint64
	// Obs, when non-nil, receives the scan's physical-work counts
	// (tuples examined, rows emitted, heap page visits). Workers tally
	// locally and flush per chunk; nil keeps the hot path free of even
	// that. See ScanObs.
	Obs *ScanObs
	// Ctx, when non-nil, cancels the scan: every access method polls it
	// itself (every sweep per heap page, RID collection every
	// cancelCheckRIDs entries, the fan-out before each chunk) and the run
	// returns the context's error. nil never cancels.
	Ctx context.Context
}

// NewQuery builds a query from predicates.
func NewQuery(preds ...Pred) Query { return Query{Preds: preds} }

// MaterializeCols returns the sorted distinct columns the executor must
// decode for result rows: all ncols columns when the query has no
// projection, otherwise the union of the projection and every
// predicated column. EXPLAIN surfaces its length so tests (and users)
// can verify projection pushdown engaged.
func (q Query) MaterializeCols(ncols int) []int { return q.asOr().MaterializeCols(ncols) }

// IndexablePredOn returns the first predicate over col that can drive an
// index or CM probe, or nil. A query with only a Ne predicate on col has
// no indexable predicate there: the probe would cover the whole domain.
func (q Query) IndexablePredOn(col int) *Pred {
	for i := range q.Preds {
		if q.Preds[i].Col == col && q.Preds[i].Indexable() {
			return &q.Preds[i]
		}
	}
	return nil
}

// Cols returns the set of predicated columns in first-appearance order.
func (q Query) Cols() []int {
	var out []int
	seen := map[int]bool{}
	for _, p := range q.Preds {
		if !seen[p.Col] {
			seen[p.Col] = true
			out = append(out, p.Col)
		}
	}
	return out
}

// String renders the conjunction.
func (q Query) String() string {
	parts := make([]string, len(q.Preds))
	for i, p := range q.Preds {
		parts[i] = p.String()
	}
	return strings.Join(parts, " AND ")
}
