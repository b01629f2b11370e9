package plan

import (
	"fmt"
	"time"

	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/value"
)

// RowSink receives final result rows in output shape: projected columns
// for plain selects, canonical (GroupBy..., Aggs...) rows for aggregate
// specs. A row is only valid for the duration of the call (executors
// reuse scratch rows); return false to stop early.
type RowSink func(row value.Row) bool

// Run executes the optimized tree with the given scan fan-out,
// streaming result rows to sink. Callers must hold the table latch in
// shared mode across Optimize and Run.
func (tr *Tree) Run(workers int, sink RowSink) error {
	if !tr.optimized {
		return fmt.Errorf("plan: Run before Optimize")
	}
	if tr.spec.IsAggregate() {
		return tr.runAggregate(workers, sink)
	}
	if len(tr.spec.OrderBy) == 0 {
		return tr.runPlain(workers, sink)
	}
	return tr.runSorted(workers, sink)
}

// Rows is Run with the result buffered; rows are cloned out of the
// executor's scratch space.
func (tr *Tree) Rows(workers int) ([]value.Row, error) {
	var out []value.Row
	err := tr.Run(workers, func(r value.Row) bool {
		out = append(out, r.Clone())
		return true
	})
	return out, err
}

// runAccess dispatches the access leg of the tree: the single
// conjunction's plan, or the OR plan (RID-dedup union / filtered-scan
// fallback), with the scan-level projection pushed down.
func (tr *Tree) runAccess(scanProj []int, workers int, emit exec.RowFunc) error {
	obs := tr.scanObs()
	if tr.useOr {
		oq := exec.OrQuery{Disjuncts: tr.spec.Disjuncts, Proj: scanProj, Snap: tr.spec.Snap, Obs: obs, Ctx: tr.spec.Ctx}
		return tr.orPlan.Run(tr.t, oq, workers, emit)
	}
	q := tr.spec.Disjuncts[0]
	q.Proj = scanProj
	q.Obs = obs
	return tr.single.Run(tr.t, q, workers, emit)
}

// scanObs picks where the access path's physical-work tallies go: the
// analyzed run's private observer when one is active (its totals fold
// into the spec's engine-wide observer afterwards), otherwise the
// spec's observer directly (nil when metrics are off).
func (tr *Tree) scanObs() *exec.ScanObs {
	if tr.an != nil {
		return &tr.an.obs
	}
	return tr.spec.Obs
}

// runPlain evaluates an unordered plain select: rows stream out of the
// access path in physical order, the projection narrows them in place,
// and a positive limit stops the scan early through the executor's
// cancellation path.
func (tr *Tree) runPlain(workers int, sink RowSink) error {
	proj := tr.spec.Proj
	var projScratch value.Row
	if proj != nil {
		projScratch = make(value.Row, len(proj))
	}
	count := 0
	emit := func(_ heap.RID, row value.Row) bool {
		if tr.an != nil {
			tr.an.accessRows++
		}
		out := row
		if proj != nil {
			for i, c := range proj {
				projScratch[i] = row[c]
			}
			out = projScratch
		}
		if !sink(out) {
			return false
		}
		count++
		return tr.spec.Limit <= 0 || count < tr.spec.Limit
	}
	start := tr.an.now()
	err := tr.runAccess(proj, workers, emit)
	tr.an.addAccessTime(start)
	return err
}

// runSorted evaluates an ordered plain select: the scan materializes
// the projection plus the order columns and the sorter buffers compact
// rows (bounded top-K under a limit), so sorted queries keep the memory
// economics of projection pushdown; the sorted rows project down to the
// output shape on emission.
func (tr *Tree) runSorted(workers int, sink RowSink) error {
	spec := tr.spec
	proj := spec.Proj
	orderKeys := make([]exec.OrderKey, len(spec.OrderBy))
	for i, o := range spec.OrderBy {
		orderKeys[i] = exec.OrderKey{Col: o.Col, Desc: o.Desc}
	}
	scanProj := proj
	sortKeys := orderKeys
	compact := proj // compact row layout: proj columns, then order-only columns
	if proj != nil {
		compact = append([]int(nil), proj...)
		sortKeys = make([]exec.OrderKey, len(orderKeys))
		for i, k := range orderKeys {
			pos := -1
			for j, c := range compact {
				if c == k.Col {
					pos = j
					break
				}
			}
			if pos < 0 {
				pos = len(compact)
				compact = append(compact, k.Col)
			}
			sortKeys[i] = exec.OrderKey{Col: pos, Desc: k.Desc}
		}
		scanProj = compact
	}
	sorter := exec.NewSorter(sortKeys, spec.Limit)
	var compactScratch value.Row
	if proj != nil {
		compactScratch = make(value.Row, len(compact))
	}
	emit := func(_ heap.RID, row value.Row) bool {
		if tr.an != nil {
			tr.an.accessRows++
		}
		if proj == nil {
			sorter.Add(row)
			return true
		}
		for i, c := range compact {
			compactScratch[i] = row[c]
		}
		sorter.Add(compactScratch) // Sorter clones what it retains
		return true
	}
	start := tr.an.now()
	if err := tr.runAccess(scanProj, workers, emit); err != nil {
		return err
	}
	tr.an.addAccessTime(start)
	sortStart := tr.an.now()
	sorted := sorter.Rows()
	if tr.an != nil {
		tr.an.sortIn = tr.an.accessRows
		tr.an.sortOut = int64(len(sorted))
		tr.an.sortTime = time.Since(sortStart)
	}
	for _, row := range sorted {
		out := row
		if proj != nil {
			out = row[:len(proj)] // compact layout: projection is the prefix
		}
		if !sink(out) {
			break
		}
	}
	return nil
}

// runAggregate evaluates an aggregate spec: the cm-agg node answers
// from CM bucket statistics (sweeping only impure buckets), otherwise
// the streaming grouped fold runs over the access plan's pages; the
// small group rows then pass HAVING, sort and limit.
func (tr *Tree) runAggregate(workers int, sink RowSink) error {
	spec := tr.spec
	var rows []value.Row
	var err error
	start := tr.an.now()
	if tr.cmagg != nil {
		tr.cmagg.SetObs(tr.scanObs())
		rows, err = tr.cmagg.Run(tr.t, workers)
	} else {
		oq := exec.OrQuery{Disjuncts: spec.Disjuncts, Snap: spec.Snap, Obs: tr.scanObs(), Ctx: spec.Ctx}
		rows, err = exec.AggregateOr(tr.t, oq, tr.orPlan, workers, spec.Aggs, spec.GroupBy)
	}
	tr.an.addAccessTime(start)
	if err != nil {
		return err
	}
	if tr.an != nil {
		tr.an.groups = int64(len(rows))
	}
	if len(spec.Having) > 0 {
		kept := rows[:0]
		for _, r := range rows {
			ok := true
			for i := range spec.Having {
				if !spec.Having[i].Matches(r) {
					ok = false
					break
				}
			}
			if ok {
				kept = append(kept, r)
			}
		}
		rows = kept
	}
	if tr.an != nil {
		tr.an.havingOut = int64(len(rows))
	}
	if len(spec.OrderBy) > 0 {
		keys := make([]exec.OrderKey, len(spec.OrderBy))
		for i, o := range spec.OrderBy {
			keys[i] = exec.OrderKey{Col: o.Col, Desc: o.Desc}
		}
		sortStart := tr.an.now()
		sorter := exec.NewSorter(keys, spec.Limit)
		if tr.an != nil {
			tr.an.sortIn = int64(len(rows))
		}
		for _, r := range rows {
			sorter.Add(r)
		}
		rows = sorter.Rows()
		if tr.an != nil {
			tr.an.sortOut = int64(len(rows))
			tr.an.sortTime = time.Since(sortStart)
		}
	} else if spec.Limit > 0 && len(rows) > spec.Limit {
		rows = rows[:spec.Limit]
	}
	for _, r := range rows {
		if !sink(r) {
			break
		}
	}
	return nil
}
