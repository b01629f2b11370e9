package exec

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/table"
	"repro/internal/value"
)

// This file implements streaming aggregation — the paper's own running
// example is `SELECT AVG(salary) FROM employees WHERE city = ...`, and
// the lazy-materialization layer makes it a zero-materialization fold:
// tuples are filtered on encoded bytes, survivors decode only the
// predicated + aggregated + grouped columns into a per-worker scratch
// row, and no result row is ever built for the scan itself.
//
// Parallel execution uses per-chunk partial aggregates merged at the
// barrier. Chunk boundaries depend only on the page list (a fixed
// granularity, aggChunkPages), never on the worker count, and partials
// merge in chunk order — so the result is byte-identical for any
// worker count, including non-associative float sums. AVG is carried
// as sum + count through the merge (the partial-aggregate contract the
// README documents); only Rows() divides.

// AggKind identifies an aggregate function.
type AggKind int

// The aggregate functions.
const (
	// AggCount counts rows. The engine has no NULLs, so COUNT(col) and
	// COUNT(*) agree; Col -1 denotes the star form.
	AggCount AggKind = iota
	// AggSum sums a numeric column (int columns sum exactly in int64).
	AggSum
	// AggAvg averages a numeric column, carried as sum + count until the
	// final division.
	AggAvg
	// AggMin tracks the minimum value of a column (any kind).
	AggMin
	// AggMax tracks the maximum value of a column (any kind).
	AggMax
)

// String names the function in lowercase SQL form.
func (k AggKind) String() string {
	switch k {
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	default:
		return fmt.Sprintf("agg(%d)", int(k))
	}
}

// AggSpec is one aggregate expression: a function over a column.
// Col -1 means COUNT(*).
type AggSpec struct {
	Kind AggKind
	Col  int
}

// String renders the expression in SQL form, e.g. "avg(col2)".
func (a AggSpec) String() string {
	if a.Col < 0 {
		return a.Kind.String() + "(*)"
	}
	return fmt.Sprintf("%s(col%d)", a.Kind, a.Col)
}

// aggCell is the partial state of one aggregate within one group: the
// merge-ready carriers (count, exact int sum, float sum, running
// min/max). AVG finalizes as sum/count only in Rows().
type aggCell struct {
	count int64
	sumI  int64
	sumF  float64
	minV  value.Value
	maxV  value.Value
	seen  bool
}

// merge folds another partial cell into c (the partial-aggregate merge
// contract: counts and sums add, min/max compare).
func (c *aggCell) merge(o *aggCell, kind AggKind) {
	c.count += o.count
	c.sumI += o.sumI
	c.sumF += o.sumF
	if o.seen {
		if !c.seen {
			c.minV, c.maxV, c.seen = o.minV, o.maxV, true
		} else {
			if kind == AggMin && o.minV.Compare(c.minV) < 0 {
				c.minV = o.minV
			}
			if kind == AggMax && o.maxV.Compare(c.maxV) > 0 {
				c.maxV = o.maxV
			}
		}
	}
}

// GroupAgg is a streaming (optionally grouped) aggregator: Add folds
// rows in, Merge folds another aggregator's partial state in, and Rows
// finalizes. Groups hash on the order-preserving key encoding of the
// GROUP BY columns; with no grouping columns a single global group
// exists from construction, so an empty input still yields one result
// row (COUNT 0, zero-valued SUM/AVG/MIN/MAX — the engine has no NULLs).
//
// A GroupAgg is not safe for concurrent use; parallel executors give
// each chunk its own and merge at the barrier.
type GroupAgg struct {
	specs   []AggSpec
	kinds   []value.Kind // column kind per spec (Int for COUNT(*))
	groupBy []int
	idx     map[string]int
	keys    []value.Row // group-by values per group, in first-seen order
	encKeys [][]byte    // order-preserving encoded group keys
	cells   [][]aggCell
	keyBuf  []byte
}

// NewGroupAgg builds an aggregator for the given specs and grouping
// columns (nil or empty groupBy = one global group) over a schema.
func NewGroupAgg(sch table.Schema, specs []AggSpec, groupBy []int) *GroupAgg {
	g := &GroupAgg{
		specs:   specs,
		kinds:   make([]value.Kind, len(specs)),
		groupBy: groupBy,
		idx:     make(map[string]int),
	}
	for i, sp := range specs {
		if sp.Col >= 0 {
			g.kinds[i] = sch.Cols[sp.Col].Kind
		}
	}
	if len(groupBy) == 0 {
		g.group(nil) // the global group exists even for empty inputs
	}
	return g
}

// group resolves (creating on first sight) the group for an encoded key.
func (g *GroupAgg) group(key []byte) int {
	gi, ok := g.idx[string(key)]
	if !ok {
		gi = len(g.keys)
		g.idx[string(key)] = gi
		g.encKeys = append(g.encKeys, append([]byte(nil), key...))
		g.keys = append(g.keys, nil) // filled by the caller that has the values
		g.cells = append(g.cells, make([]aggCell, len(g.specs)))
	}
	return gi
}

// Add folds one row into its group. The row is only read during the
// call (scratch-row reuse by the caller is fine): group key values are
// cloned on first sight, and min/max retain plain value copies.
func (g *GroupAgg) Add(row value.Row) {
	g.keyBuf = g.keyBuf[:0]
	for _, c := range g.groupBy {
		g.keyBuf = keyenc.AppendValue(g.keyBuf, row[c])
	}
	gi := g.group(g.keyBuf)
	if g.keys[gi] == nil && len(g.groupBy) > 0 {
		kv := make(value.Row, len(g.groupBy))
		for i, c := range g.groupBy {
			kv[i] = row[c]
		}
		g.keys[gi] = kv
	}
	cells := g.cells[gi]
	for i := range g.specs {
		sp := &g.specs[i]
		cell := &cells[i]
		cell.count++
		if sp.Col < 0 {
			continue
		}
		v := row[sp.Col]
		switch sp.Kind {
		case AggSum, AggAvg:
			if v.K == value.Int {
				cell.sumI += v.I
			} else {
				cell.sumF += v.F
			}
		case AggMin:
			if !cell.seen || v.Compare(cell.minV) < 0 {
				cell.minV = v
			}
			cell.seen = true
		case AggMax:
			if !cell.seen || v.Compare(cell.maxV) > 0 {
				cell.maxV = v
			}
			cell.seen = true
		}
	}
}

// Partial is a pre-aggregated input for one aggregate spec of a
// GroupAgg: Count matching tuples whose spec-column values sum to
// SumI/SumF with extremes Min/Max (consulted only for AggMin/AggMax
// specs, where they must be set whenever Count > 0). The cm-agg path
// folds CM per-entry statistics through these instead of visiting heap
// tuples.
type Partial struct {
	Count int64
	SumI  int64
	SumF  float64
	Min   value.Value
	Max   value.Value
}

// FoldPartial merges one pre-aggregated partial per spec into the group
// identified by groupVals (nil or empty for the global group; values in
// groupBy order, cloned on first sight like Add). parts must align with
// the aggregator's specs. Because counts, integer sums and extreme
// values are exact, folding order does not affect the result, so
// statistics-fed groups merge byte-identically with tuple-fed ones.
func (g *GroupAgg) FoldPartial(groupVals value.Row, parts []Partial) {
	g.keyBuf = g.keyBuf[:0]
	for _, v := range groupVals {
		g.keyBuf = keyenc.AppendValue(g.keyBuf, v)
	}
	gi := g.group(g.keyBuf)
	if g.keys[gi] == nil && len(g.groupBy) > 0 {
		g.keys[gi] = append(value.Row(nil), groupVals...)
	}
	cells := g.cells[gi]
	for i := range g.specs {
		p := parts[i]
		if p.Count == 0 {
			continue
		}
		cell := &cells[i]
		cell.count += p.Count
		cell.sumI += p.SumI
		cell.sumF += p.SumF
		switch g.specs[i].Kind {
		case AggMin:
			if !cell.seen || p.Min.Compare(cell.minV) < 0 {
				cell.minV = p.Min
			}
			cell.seen = true
		case AggMax:
			if !cell.seen || p.Max.Compare(cell.maxV) > 0 {
				cell.maxV = p.Max
			}
			cell.seen = true
		}
	}
}

// Merge folds another aggregator's partial state into g. Both must have
// been built with the same specs and grouping columns. o's groups are
// visited in o's first-seen order, so merging chunk partials in chunk
// order reproduces the serial aggregation exactly (float sums add in
// the same sequence).
func (g *GroupAgg) Merge(o *GroupAgg) {
	for oi, key := range o.encKeys {
		gi := g.group(key)
		if g.keys[gi] == nil {
			g.keys[gi] = o.keys[oi]
		}
		dst, src := g.cells[gi], o.cells[oi]
		for i := range g.specs {
			dst[i].merge(&src[i], g.specs[i].Kind)
		}
	}
}

// Rows finalizes the aggregation: one row per group — the group-by
// values in groupBy order followed by the aggregate results in spec
// order — with groups sorted by group key. AVG divides here; SUM of an
// int column stays int64, AVG is always float.
func (g *GroupAgg) Rows() []value.Row {
	order := make([]int, len(g.keys))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return bytes.Compare(g.encKeys[order[a]], g.encKeys[order[b]]) < 0
	})
	out := make([]value.Row, 0, len(order))
	for _, gi := range order {
		row := make(value.Row, 0, len(g.groupBy)+len(g.specs))
		row = append(row, g.keys[gi]...)
		for i := range g.specs {
			row = append(row, g.finalize(&g.cells[gi][i], i))
		}
		out = append(out, row)
	}
	return out
}

// finalize computes one aggregate's result value from its cell.
func (g *GroupAgg) finalize(cell *aggCell, i int) value.Value {
	sp := g.specs[i]
	kind := g.kinds[i]
	switch sp.Kind {
	case AggCount:
		return value.NewInt(cell.count)
	case AggSum:
		if kind == value.Int {
			return value.NewInt(cell.sumI)
		}
		return value.NewFloat(cell.sumF)
	case AggAvg:
		if cell.count == 0 {
			return value.NewFloat(0)
		}
		if kind == value.Int {
			return value.NewFloat(float64(cell.sumI) / float64(cell.count))
		}
		return value.NewFloat(cell.sumF / float64(cell.count))
	case AggMin:
		if !cell.seen {
			return zeroOf(kind)
		}
		return cell.minV
	default: // AggMax
		if !cell.seen {
			return zeroOf(kind)
		}
		return cell.maxV
	}
}

// zeroOf returns the zero value of a column kind, the engine's stand-in
// for NULL on empty-set MIN/MAX (documented in the README).
func zeroOf(k value.Kind) value.Value {
	switch k {
	case value.Int:
		return value.NewInt(0)
	case value.Float:
		return value.NewFloat(0)
	default:
		return value.NewString("")
	}
}

// aggChunkPages fixes the partial-aggregate chunk granularity. Chunk
// boundaries must depend only on the page list — never on the worker
// count — so that partials merged in chunk order give byte-identical
// results (float sums included) for any fan-out; workers only decide
// how many chunks run concurrently.
const aggChunkPages = 64

// aggProj returns the aggregated + grouped columns: the projection
// under which a scan decodes exactly what aggregation needs — those
// plus every predicated column of every disjunct. Never nil (COUNT(*)
// alone projects nothing).
func aggProj(specs []AggSpec, groupBy []int) []int {
	proj := make([]int, 0, len(specs)+len(groupBy))
	for _, sp := range specs {
		if sp.Col >= 0 {
			proj = append(proj, sp.Col)
		}
	}
	return append(proj, groupBy...)
}

// Fold evaluates the aggregation over the rows on the pages of ps that
// match the disjunction: tuples filter on encoded bytes and survivors
// fold straight into per-chunk partial aggregates (no result-row
// materialization), merged at the barrier in fixed chunk order. The
// returned rows are GroupAgg.Rows of the merged state.
func Fold(t *table.Table, oq OrQuery, ps PageSet, workers int, specs []AggSpec, groupBy []int) ([]value.Row, error) {
	oq.Proj = aggProj(specs, groupBy)
	ls := newLazyScan(t, oq)
	merged := NewGroupAgg(ls.sch, specs, groupBy)
	err := foldPages(t, ls, ps, workers, specs, groupBy, merged, func(ga *GroupAgg, row value.Row) bool {
		ga.Add(row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return merged.Rows(), nil
}

// foldPages is the aggregation driver over the sweep kernel: it sweeps
// ps in fixed-size chunks (aggChunkPages, fanned out over workers), each
// chunk's surviving rows going through fold into the chunk's own partial
// aggregate — fold reports whether it folded the row, which is what the
// scan counts as a result row — and merges the partials into `into` in
// chunk order.
func foldPages(t *table.Table, ls *lazyScan, ps PageSet, workers int, specs []AggSpec, groupBy []int, into *GroupAgg, fold func(ga *GroupAgg, row value.Row) bool) error {
	nchunks := (ps.len() + aggChunkPages - 1) / aggChunkPages
	chunks := chunkSlices(ps.len(), nchunks)
	partials := make([]*GroupAgg, len(chunks))
	err := runTasks(ls.oq.Ctx, workers, len(chunks), func(i int) error {
		ga := NewGroupAgg(ls.sch, specs, groupBy)
		partials[i] = ga
		return ls.sweep(t, ps.slice(chunks[i][0], chunks[i][1]), nil, func(_ heap.RID, row value.Row) (bool, bool) {
			return fold(ga, row), true
		})
	})
	if err != nil {
		return err
	}
	for _, p := range partials {
		into.Merge(p)
	}
	return nil
}
