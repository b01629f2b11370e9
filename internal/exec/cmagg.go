package exec

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/value"
)

// This file implements aggregation pushdown into the correlation map —
// the cm-agg access path. The CM already keeps statistics per
// (bucketed key, clustered bucket) pair: the Algorithm-1 reference
// count, extended with per-column sums and min/max (core.CM.PairCount,
// PairStat). A COUNT/SUM/AVG/MIN/MAX query whose
// predicates and aggregated columns are all covered by one CM therefore
// folds its answer from the memory-resident directory without touching
// a single heap page, the way Hermit answers queries from its
// correlation structure alone.
//
// Exactness is decided per entry. An entry is pure — its statistics
// describe exactly the tuples the query's predicates select — when
// every predicated CM column is either unbucketed (Identity: the key is
// the value, so the original predicate evaluates exactly) or the key's
// bucket lies strictly inside a range predicate (every value the bucket
// covers satisfies the range). Entries on bucket boundaries, entries of
// truncation-bucketed point lookups, and entries whose min/max went
// stale after a delete (core.CM.PairDirty) are impure: the hybrid plan
// answers them by sweeping only their clustered buckets, re-filtering
// tuples with the original predicates and an entry-membership check so
// statistics-fed and swept tuples never double count.
//
// SUM and AVG lower only for integer columns: their statistics sums are
// exact int64s, so the folded result is byte-identical to the
// heap-visiting aggregation at any worker count. Float sums would
// depend on addition order and are left on the heap path.

// CMAggPlan is a planned aggregation pushdown: the statistics-fed
// partial answer plus the impure remainder to sweep. Build one with
// PlanCMAgg under the table latch and Run it under the same hold.
type CMAggPlan struct {
	// CM is the correlation map answering the aggregate.
	CM *core.CM
	// MatchedKeys counts CM keys selected by the predicates.
	MatchedKeys int
	// PureEntries and ImpureEntries count the (key, clustered-bucket)
	// pairs answered from statistics vs marked for the hybrid sweep.
	PureEntries, ImpureEntries int
	// ImpureBuckets lists the sorted distinct clustered buckets the
	// hybrid part must sweep; empty means the answer is fully
	// index-only.
	ImpureBuckets []int32
	// ImpurePages are the sorted distinct heap pages of ImpureBuckets,
	// read off the page directory at plan time: what Run sweeps and what
	// the optimizer costs the hybrid part from.
	ImpurePages []int64
	// MatchedBuckets counts the distinct clustered buckets across every
	// matched key — what a plain CM scan of the same predicates would
	// sweep. ImpureBuckets < MatchedBuckets means the statistics saved
	// real sweeping.
	MatchedBuckets int
	// NeedCols are the columns the hybrid sweep decodes per tuple.
	NeedCols []int

	specs       []AggSpec
	groupBy     []int
	groupKeyPos []int // position within the CM key per groupBy column
	q           Query
	stats       *GroupAgg
	// impurePairs holds, per encoded key, the ascending clustered buckets
	// of its impure pairs: the tuples the sweep must fold itself.
	impurePairs map[string][]int32
}

// PlanCMAgg decides whether the aggregate query (one conjunction,
// aggregates over specs grouped by groupBy) lowers onto the CM's
// per-entry statistics, and if so classifies every entry as pure
// (folded from statistics) or impure (left for the hybrid sweep). It
// reports ok=false when any predicate or aggregate escapes the CM's
// coverage: a predicated or grouped column outside the CM attribute, a
// non-indexable predicate, SUM/AVG over a non-integer column, a
// MIN/MAX or SUM column without statistics, or statistics invalidated
// by checkpoint recovery. Callers must hold the table latch (shared
// suffices) across PlanCMAgg and Run.
func PlanCMAgg(t *table.Table, cm *core.CM, q Query, specs []AggSpec, groupBy []int) (*CMAggPlan, bool) {
	spec := cm.Spec()
	sch := t.Schema()
	pos := make(map[int]int, len(spec.UCols)) // table column -> key position
	for i, c := range spec.UCols {
		pos[c] = i
	}
	statIdx := make(map[int]int, len(spec.StatCols))
	for i, c := range spec.StatCols {
		statIdx[c] = i
	}

	// Aggregates: COUNT needs only the reference counts; everything else
	// needs valid per-column statistics, and SUM/AVG additionally an
	// integer column for exact folding.
	needMM := false
	aggStat := make([]int, len(specs)) // index into StatCols, -1 for COUNT
	for i, sp := range specs {
		aggStat[i] = -1
		if sp.Kind == AggCount {
			continue
		}
		si, ok := statIdx[sp.Col]
		if !ok || !cm.StatsValid() {
			return nil, false
		}
		if (sp.Kind == AggSum || sp.Kind == AggAvg) && sch.Cols[sp.Col].Kind != value.Int {
			return nil, false
		}
		if sp.Kind == AggMin || sp.Kind == AggMax {
			needMM = true
		}
		aggStat[i] = si
	}

	// Grouping columns must be unbucketed CM columns: the key then
	// carries the exact group values.
	groupKeyPos := make([]int, len(groupBy))
	for i, c := range groupBy {
		kp, ok := pos[c]
		if !ok {
			return nil, false
		}
		if _, id := spec.Bucketers[kp].(core.Identity); !id {
			return nil, false
		}
		groupKeyPos[i] = kp
	}

	// Every predicate must be an indexable predicate over a CM column:
	// then the entries the resolver selects are all the CM knows of the
	// matching tuples, and its purity verdict is about the whole WHERE.
	for _, p := range q.Preds {
		if _, ok := pos[p.Col]; !ok || !p.Indexable() {
			return nil, false
		}
	}
	// Without predicates the resolver has nothing to map; every entry
	// matches, purely.
	r, _ := newCMResolver(cm, q)

	plan := &CMAggPlan{
		CM:          cm,
		specs:       specs,
		groupBy:     groupBy,
		groupKeyPos: groupKeyPos,
		q:           q,
		stats:       NewGroupAgg(sch, specs, groupBy),
		impurePairs: make(map[string][]int32),
	}

	// Fold the selected entries' pure pairs into the statistics
	// aggregator, set the impure ones aside for the sweep.
	var matched []int32
	parts := make([]Partial, len(specs))
	groupVals := make(value.Row, len(groupBy))
	err := r.each(func(e core.Entry, vals []value.Value, pure bool) {
		plan.MatchedKeys++
		matched = append(matched, e.Buckets...)
		if !pure {
			// The stored run, shared: the CM does not change under the
			// latch the plan runs under.
			plan.ImpureEntries += len(e.Buckets)
			plan.impurePairs[e.Key] = e.Buckets
			return
		}
		for i, kp := range groupKeyPos {
			groupVals[i] = vals[kp]
		}
		for j, cb := range e.Buckets {
			slot := e.Slots[j]
			if needMM && cm.PairDirty(slot) {
				plan.ImpureEntries++
				plan.impurePairs[e.Key] = append(plan.impurePairs[e.Key], cb)
				continue
			}
			plan.PureEntries++
			for i := range specs {
				p := Partial{Count: cm.PairCount(slot)}
				if si := aggStat[i]; si >= 0 {
					p.SumI, p.SumF, p.Min, p.Max = cm.PairStat(slot, si)
				}
				parts[i] = p
			}
			plan.stats.FoldPartial(groupVals, parts)
		}
	})
	if err != nil {
		return nil, false // an undecodable key: let a heap-visiting path answer
	}
	for _, cbs := range plan.impurePairs {
		plan.ImpureBuckets = append(plan.ImpureBuckets, cbs...)
	}
	plan.ImpureBuckets = sortedDistinct(plan.ImpureBuckets)
	plan.MatchedBuckets = len(sortedDistinct(matched))
	plan.ImpurePages = bucketPages(t, plan.ImpureBuckets)

	// The hybrid sweep decodes predicated + CM + clustered + aggregated
	// + grouped columns to re-filter and re-fold impure tuples.
	need := Query{Proj: []int{}}
	need.Preds = q.Preds
	cols := append([]int(nil), spec.UCols...)
	cols = append(cols, t.ClusteredCols()...)
	cols = append(cols, groupBy...)
	for _, sp := range specs {
		if sp.Col >= 0 {
			cols = append(cols, sp.Col)
		}
	}
	need.Proj = cols
	plan.NeedCols = need.MaterializeCols(len(sch.Cols))
	return plan, true
}

// SetObs points the plan's impure-bucket sweep at an observer (see
// Query.Obs); the index-only leg does no physical work to count.
func (p *CMAggPlan) SetObs(o *ScanObs) { p.q.Obs = o }

// Run executes the cm-agg plan: the statistics-fed partial merges first,
// then per-chunk partials from the impure-bucket sweep merge in fixed
// chunk order — exact counts, integer sums and extreme values make the
// result byte-identical to the heap-visiting aggregation for any worker
// count. The returned rows are in canonical GroupAgg.Rows shape.
func (p *CMAggPlan) Run(t *table.Table, workers int) ([]value.Row, error) {
	sch := t.Schema()
	final := NewGroupAgg(sch, p.specs, p.groupBy)
	final.Merge(p.stats)
	if len(p.ImpureBuckets) == 0 {
		return final.Rows(), nil
	}

	// Sweep the impure clustered buckets' pages, folding tuples that (a)
	// satisfy the original predicates and (b) belong to an impure entry —
	// pure entries' tuples are already in the statistics partial. Like
	// every other access path, the sweep filters on encoded bytes first
	// (the PR 3 contract: zero work per rejected tuple); only survivors
	// decode, for the entry-membership check and the fold.
	q := p.q
	q.Proj = p.NeedCols // already holds the predicated columns
	err := foldPages(t, newLazyScan(t, q.asOr()), PageSet{list: p.ImpurePages}, workers, p.specs, p.groupBy, final, func(ga *GroupAgg, row value.Row) bool {
		// The chunk's own aggregator lends its key scratch: Add below
		// overwrites it only after the lookup.
		ga.keyBuf = p.CM.AppendKeyForRow(ga.keyBuf[:0], row)
		impure := p.impurePairs[string(ga.keyBuf)]
		if _, ok := slices.BinarySearch(impure, t.ClusterBucketFor(row)); !ok {
			return false
		}
		ga.Add(row)
		return true
	})
	if err != nil {
		return nil, err
	}
	return final.Rows(), nil
}

// Describe renders the plan for EXPLAIN: the CM, how much of the answer
// comes from statistics, and what the hybrid part sweeps.
func (p *CMAggPlan) Describe() string {
	if len(p.ImpureBuckets) == 0 {
		return fmt.Sprintf("cm-agg(%s): %d keys, %d entries from bucket statistics, index-only",
			p.CM.Spec().Name, p.MatchedKeys, p.PureEntries)
	}
	return fmt.Sprintf("cm-agg(%s): %d entries from bucket statistics + hybrid sweep of %d impure buckets (%d entries)",
		p.CM.Spec().Name, p.PureEntries, len(p.ImpureBuckets), p.ImpureEntries)
}
