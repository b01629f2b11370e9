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

// Sink is where Run delivers a tree's result rows. Row receives them
// decoded. JSON, when set, takes an unordered plain select's rows
// instead: each one the JSON array value.AppendRow gives its projected
// columns, encoded straight from the heap tuple (exec.Projection), so
// no row is built, and valid only during the call; a row JSON cannot
// carry — a NaN or infinite float — arrives as the encoder's error and
// no bytes. Returning false from either stops the run early.
type Sink struct {
	Row  RowSink
	JSON func(row []byte, err error) bool
}

// Run executes the optimized tree with the given scan fan-out,
// streaming result rows to out. Callers must hold the table latch in
// shared mode across Optimize and Run.
func (tr *Tree) Run(workers int, out Sink) error {
	if !tr.optimized {
		return fmt.Errorf("plan: Run before Optimize")
	}
	if tr.spec.Limit < 0 {
		return nil
	}
	if tr.spec.IsAggregate() {
		return tr.runAggregate(workers, out.Row)
	}
	if len(tr.spec.OrderBy) == 0 {
		return tr.runPlain(workers, out)
	}
	return tr.runSorted(workers, out.Row)
}

// runAccess streams the tuples the access path matches to emit: a lone
// pipelined probe runs its own executor (it emits in index key order,
// RID by RID — the one access that is not a page sweep); everything else
// resolves to a page set (pageSet) that exec.SweepTuples reads in
// physical order. scanProj is the scan-level projection, what a
// decoding emit materializes (runRows).
func (tr *Tree) runAccess(scanProj []int, workers int, emit exec.TupleFunc) error {
	if tr.an != nil {
		rows, inner := &tr.an.accessRows, emit
		emit = func(rid heap.RID, tuple []byte) (bool, error) {
			*rows++
			return inner(rid, tuple)
		}
	}
	defer tr.an.addAccessTime(tr.an.now())
	if l := tr.soleLeg(); l != nil && l.method == exec.MethodPipelined {
		q := tr.spec.Disjuncts[0]
		q.Proj, q.Obs = scanProj, tr.scanObs()
		return exec.PipelinedTuples(tr.t, l.index, q, emit)
	}
	return tr.sweep(scanProj, workers, func(oq exec.OrQuery, ps exec.PageSet) error {
		return exec.SweepTuples(tr.t, oq, ps, workers, emit)
	})
}

// runRows is runAccess for a consumer of rows: each tuple's projected
// and predicated columns decode into one scratch row.
func (tr *Tree) runRows(scanProj []int, workers int, fn exec.RowFunc) error {
	oq := exec.OrQuery{Disjuncts: tr.spec.Disjuncts, Proj: scanProj}
	return tr.runAccess(scanProj, workers, exec.DecodeTo(tr.t.Schema(), oq, fn))
}

// sweep resolves the access path to a page set and runs drive — one of
// exec's two drivers, SweepTuples for result tuples or Fold for
// aggregates — over it with the disjunction to re-filter by.
func (tr *Tree) sweep(scanProj []int, workers int, drive func(exec.OrQuery, exec.PageSet) error) error {
	obs := tr.scanObs()
	if l := tr.soleLeg(); l != nil && l.method == exec.MethodCM {
		// A lone CM leg's sweep counts against the CM's health gauges.
		var done func()
		obs, done = l.probe.SweepObs(obs)
		defer done()
	}
	ps, err := tr.pageSet(workers)
	if err != nil {
		return err
	}
	return drive(exec.OrQuery{Disjuncts: tr.spec.Disjuncts, Proj: scanProj, Snap: tr.spec.Snap, Obs: obs, Ctx: tr.spec.Ctx}, ps)
}

// pageSet turns the tree's legs into the one page set a sweep reads, and
// is the only place a method becomes pages: without legs the whole heap,
// otherwise every leg's pages merged (which is also what deduplicates
// rows matched by several disjuncts, since emission is by page sweep).
// A secondary index leg collects its RIDs' pages now — planning probes
// no index; a CM or clustered leg already holds the pages its probe
// resolved to.
func (tr *Tree) pageSet(workers int) (exec.PageSet, error) {
	if len(tr.legs) == 0 {
		return exec.WholeHeap(tr.t), nil
	}
	var pages []int64
	for i, l := range tr.legs {
		switch l.method {
		case exec.MethodCM, exec.MethodClustered:
			pages = append(pages, l.probe.Pages...)
		case exec.MethodSorted, exec.MethodPipelined:
			legPages, err := exec.IndexPages(l.index, tr.spec.Disjuncts[i], workers)
			if err != nil {
				return exec.PageSet{}, err
			}
			pages = append(pages, legPages...)
		default:
			// chooseAccess never makes a leg of a table scan; probing
			// nothing would silently drop the disjunct's rows.
			return exec.PageSet{}, fmt.Errorf("plan: a %v leg resolves to no page list", l.method)
		}
	}
	return exec.PageList(pages), nil
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
// access path in physical order, and a positive limit stops the scan
// early through the executor's cancellation path. For out.JSON each
// tuple is encoded straight into its projected JSON row; for out.Row
// its columns decode and the projection narrows them in place.
func (tr *Tree) runPlain(workers int, out Sink) error {
	proj := tr.spec.Proj
	count := 0
	more := func(delivered bool) bool {
		count++
		return delivered && (tr.spec.Limit <= 0 || count < tr.spec.Limit)
	}
	if out.JSON != nil {
		enc := exec.CompileProjection(tr.t.Schema(), proj)
		var buf []byte
		return tr.runAccess(proj, workers, func(_ heap.RID, tuple []byte) (bool, error) {
			// Every route here — the inline sweep, a fanned-out chunk's
			// replay, the pipelined probe — emits only tuples its filter
			// has checked, so the encoder trusts the structure and an error
			// is the value encoder's: the row has no JSON form.
			var err error
			if buf, err = enc.AppendCheckedJSON(buf[:0], tuple); err != nil {
				return more(out.JSON(nil, err)), nil
			}
			return more(out.JSON(buf, nil)), nil
		})
	}
	var projScratch value.Row
	if proj != nil {
		projScratch = make(value.Row, len(proj))
	}
	return tr.runRows(proj, workers, func(_ heap.RID, row value.Row) bool {
		if proj != nil {
			for i, c := range proj {
				projScratch[i] = row[c]
			}
			row = projScratch
		}
		return more(out.Row(row))
	})
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
	err := tr.runRows(scanProj, workers, func(_ heap.RID, row value.Row) bool {
		if proj == nil {
			sorter.Add(row)
			return true
		}
		for i, c := range compact {
			compactScratch[i] = row[c]
		}
		sorter.Add(compactScratch) // Sorter clones what it retains
		return true
	})
	if err != nil {
		return err
	}
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
// the streaming grouped fold runs over the access path's pages (a
// pipelined leg folds over its RIDs' pages like a sorted one); the
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
		err = tr.sweep(nil, workers, func(oq exec.OrQuery, ps exec.PageSet) (err error) {
			rows, err = exec.Fold(tr.t, oq, ps, workers, spec.Aggs, spec.GroupBy)
			return err
		})
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
