package exec

import (
	"bytes"
	"context"
	"slices"
	"sort"

	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/table"
	"repro/internal/value"
)

// RowFunc receives result rows; returning false stops execution early.
//
// Scratch-row contract: the row is only valid for the duration of the
// call — serial executors reuse one scratch row across survivors, so a
// caller that retains rows must Clone them. Extracted scalar values
// (row[i].I, row[i].S, ...) are plain copies and safe to keep. When the
// query carries a projection (Query.Proj), only the projected and
// predicated entries of the row are materialized; the rest are zero
// values.
type RowFunc func(rid heap.RID, row value.Row) bool

// tupleMatcher evaluates a predicate structure directly on an encoded
// heap tuple: a compiled conjunction (TupleFilter) or disjunction
// (OrFilter). The error contract matches DecodeRow's structural check.
type tupleMatcher interface {
	Matches(tuple []byte) (bool, error)
}

// lazyScan bundles what every lazy access path needs: the compiled
// filter, the columns to materialize for survivors, the MVCC snapshot the
// scan reads as of, and a reusable scratch row for serial emission.
type lazyScan struct {
	sch     table.Schema
	filter  tupleMatcher
	need    []int
	snap    uint64
	scratch value.Row
	// obs receives per-chunk tally flushes when the query asked for
	// observation (Query.Obs / OrQuery.Obs); nil drops them.
	obs *ScanObs
	// ctx, when non-nil, cancels the scan: emit polls it at page
	// boundaries, so every serial path (table scan, pipelined probe,
	// page sweep) stops within one heap page of cancellation.
	ctx context.Context
}

func newLazyScan(t *table.Table, q Query) *lazyScan {
	sch := t.Schema()
	return &lazyScan{
		sch:     sch,
		filter:  CompileFilter(sch, q),
		need:    q.MaterializeCols(len(sch.Cols)),
		snap:    q.Snap,
		scratch: make(value.Row, len(sch.Cols)),
		obs:     q.Obs,
		ctx:     q.Ctx,
	}
}

// newOrLazyScan is newLazyScan's disjunctive twin: the filter passes
// tuples matching any disjunct, and the materialized column set is the
// union over every disjunct's predicated columns plus the projection.
func newOrLazyScan(t *table.Table, oq OrQuery) *lazyScan {
	sch := t.Schema()
	return &lazyScan{
		sch:     sch,
		filter:  CompileOrFilter(sch, oq),
		need:    oq.MaterializeCols(len(sch.Cols)),
		snap:    oq.Snap,
		scratch: make(value.Row, len(sch.Cols)),
		obs:     oq.Obs,
		ctx:     oq.Ctx,
	}
}

// emit filters one encoded tuple and, for survivors, decodes the needed
// columns into the scratch row and calls fn. The returned cont is false
// when the scan should stop (error or early stop from fn). The tally
// counts the page visit, the filter evaluation and any survivor; the
// caller flushes it to ls.obs when its chunk ends.
func (ls *lazyScan) emit(rid heap.RID, tuple []byte, fn RowFunc, ta *tally) (cont bool, err error) {
	if ls.ctx != nil && rid.Page != ta.lastPage {
		// Page boundary: poll for cancellation so a serial scan stops
		// within one heap page of the context firing.
		if err := ctxErr(ls.ctx); err != nil {
			return false, err
		}
	}
	ta.page(rid.Page)
	ta.tuples++
	ok, err := ls.filter.Matches(tuple)
	if err != nil {
		return false, err
	}
	if !ok {
		return true, nil
	}
	if err := ls.sch.DecodeCols(ls.scratch, tuple, ls.need); err != nil {
		return false, err
	}
	ta.rows++
	return fn(rid, ls.scratch), nil
}

// collect is emit's buffering twin for the parallel collectors: a
// surviving tuple decodes into a fresh row (collected rows outlive the
// pinned frame and the scan), a rejected one returns nil. Safe to share
// one lazyScan across workers — collect never touches the scratch row
// and the filter is read-only after compilation; each worker counts
// into its own tally (page visits are the caller's, since only it sees
// RIDs).
func (ls *lazyScan) collect(tuple []byte, ta *tally) (value.Row, error) {
	ta.tuples++
	ok, err := ls.filter.Matches(tuple)
	if err != nil || !ok {
		return nil, err
	}
	row := make(value.Row, len(ls.sch.Cols))
	if err := ls.sch.DecodeCols(row, tuple, ls.need); err != nil {
		return nil, err
	}
	ta.rows++
	return row, nil
}

// TableScan evaluates the query with a full sequential heap scan,
// filtering on encoded bytes and materializing only surviving rows.
func TableScan(t *table.Table, q Query, fn RowFunc) error {
	return tableScanLS(t, newLazyScan(t, q), fn)
}

// tableScanLS is TableScan over a pre-built lazyScan, shared with the
// OR executor (whose filter is a disjunction).
func tableScanLS(t *table.Table, ls *lazyScan, fn RowFunc) error {
	h := t.Heap()
	var innerErr error
	ta := newTally()
	defer func() { ta.flush(ls.obs) }()
	err := h.ScanPagesAt(0, h.NumPages()-1, ls.snap, func(rid heap.RID, tuple []byte) bool {
		cont, err := ls.emit(rid, tuple, fn, &ta)
		if err != nil {
			innerErr = err
			return false
		}
		return cont
	})
	if innerErr != nil {
		return innerErr
	}
	return err
}

// probeRange is an encoded key interval probed in an index: every entry
// whose attribute prefix lies in [Lo, Hi] (inclusive prefixes) matches.
type probeRange struct {
	Lo, Hi []byte
}

// indexProbeRanges converts the query's predicates over the index's key
// columns into encoded probe ranges. Leading equality predicates extend a
// fixed prefix, one IN fans out into several prefixes, and one range
// predicate terminates the key prefix — matching how a composite B+Tree
// can only use the prefix of its key for ranges (the effect behind the
// paper's Table 6, where B+Tree(ra, dec) degrades on two-range queries).
//
// pointComplete reports that every index column was consumed by an
// equality or IN predicate: each returned range is then a single full
// attribute key (Lo == Hi), which is the precondition for bloom-filter
// pruning — a partial prefix or range endpoint is not a key the bloom
// ever saw.
func indexProbeRanges(cols []int, q Query) (ranges []probeRange, pointComplete bool) {
	prefixes := [][]byte{nil}
	consumed := 0
	for _, col := range cols {
		p := q.IndexablePredOn(col)
		if p == nil {
			break
		}
		switch p.Op {
		case OpEq:
			for i := range prefixes {
				prefixes[i] = keyenc.AppendValue(prefixes[i], p.Vals[0])
			}
			consumed++
			continue
		case OpIn:
			// IN (5, 5) is one probe: a pipelined scan emits per probe
			// and would return the rows twice.
			encs := make([][]byte, 0, len(p.Vals))
			seen := make(map[string]struct{}, len(p.Vals))
			for _, v := range p.Vals {
				enc := keyenc.EncodeValue(v)
				if _, dup := seen[string(enc)]; !dup {
					seen[string(enc)] = struct{}{}
					encs = append(encs, enc)
				}
			}
			var next [][]byte
			for _, pre := range prefixes {
				for _, enc := range encs {
					next = append(next, append(append(make([]byte, 0, len(pre)+len(enc)), pre...), enc...))
				}
			}
			prefixes = next
			consumed++
			// Further key columns could extend each branch; stop here
			// and re-filter instead, as real optimizers commonly do.
		case OpRange:
			out := make([]probeRange, 0, len(prefixes))
			for _, pre := range prefixes {
				lo := pre
				if p.Lo != nil {
					lo = keyenc.AppendValue(append([]byte(nil), pre...), *p.Lo)
				}
				hi := pre
				if p.Hi != nil {
					hi = keyenc.AppendValue(append([]byte(nil), pre...), *p.Hi)
				}
				out = append(out, probeRange{Lo: lo, Hi: hi})
			}
			return out, false
		}
		break
	}
	out := make([]probeRange, len(prefixes))
	for i, pre := range prefixes {
		out[i] = probeRange{Lo: pre, Hi: pre}
	}
	return out, consumed == len(cols)
}

// probeRanges builds the query's probe ranges over ix and, when every
// range is a complete point key and the index carries a bloom filter,
// drops the ranges the bloom proves empty — those probes then cost zero
// tree descents and zero page reads. Pruned probes are counted into the
// query's observation set.
func probeRanges(ix *table.Index, q Query) []probeRange {
	ranges, point := indexProbeRanges(ix.Cols, q)
	return pruneRanges(ix, ranges, point, q.Obs)
}

// pruneRanges drops point-complete probe ranges the index bloom proves
// empty, counting each into obs. Non-point ranges (or a bloom-less
// index) pass through untouched.
func pruneRanges(ix *table.Index, ranges []probeRange, pointComplete bool, obs *ScanObs) []probeRange {
	if !pointComplete || !ix.BloomEnabled() {
		return ranges
	}
	kept := ranges[:0]
	for _, r := range ranges {
		if ix.ProbePossible(r.Lo) {
			kept = append(kept, r)
		}
	}
	obs.AddBlooms(int64(len(ranges) - len(kept)))
	return kept
}

// sortRanges orders probe ranges by their lower bound — the paper's
// "standard optimization is to sort the index keys before looking them
// up": consecutive probes then walk the index in key order, turning leaf
// accesses into a mostly sequential pass instead of random re-descents.
func sortRanges(ranges []probeRange) []probeRange {
	sort.Slice(ranges, func(i, j int) bool {
		return bytes.Compare(ranges[i].Lo, ranges[j].Lo) < 0
	})
	return ranges
}

// collectRIDs gathers the RIDs of every index entry in the probe
// ranges, polling ctx every cancelCheckRIDs entries.
func collectRIDs(ctx context.Context, ix *table.Index, ranges []probeRange) ([]heap.RID, error) {
	var rids []heap.RID
	var ctxErrSeen error
	for _, r := range ranges {
		if err := ctxErr(ctx); err != nil {
			return nil, err
		}
		err := ix.ScanRange(r.Lo, r.Hi, func(rid heap.RID) bool {
			rids = append(rids, rid)
			if ctx != nil && len(rids)&(cancelCheckRIDs-1) == 0 {
				if err := ctxErr(ctx); err != nil {
					ctxErrSeen = err
					return false
				}
			}
			return true
		})
		if ctxErrSeen != nil {
			return nil, ctxErrSeen
		}
		if err != nil {
			return nil, err
		}
	}
	return rids, nil
}

// PipelinedIndexScan evaluates the query by probing the index and
// fetching each matching tuple immediately (the Section 3.1 iterator
// pattern): every tuple access is a potential random seek, which is why
// this path only pays off for very selective lookups. Fetched tuples are
// filtered on their encoded bytes; only survivors materialize.
// BatchedIndexScan is its parallel twin.
func PipelinedIndexScan(t *table.Table, ix *table.Index, q Query, fn RowFunc) error {
	ls := newLazyScan(t, q)
	h := t.Heap()
	ranges := probeRanges(ix, q)
	ta := newTally()
	defer func() { ta.flush(ls.obs) }()
	// One view closure for the whole scan (a fresh closure per probed
	// RID would allocate per tuple): it reads the current RID from
	// curRID, set by the probe loop below.
	var curRID heap.RID
	stop := false
	view := func(tuple []byte) error {
		// View hands out the pinned frame's bytes: a tuple the filter
		// rejects is never copied or decoded.
		cont, err := ls.emit(curRID, tuple, fn, &ta)
		if !cont && err == nil {
			stop = true
		}
		return err
	}
	for _, r := range ranges {
		var cbErr error
		err := ix.ScanRange(r.Lo, r.Hi, func(rid heap.RID) bool {
			curRID = rid
			if err := h.ViewAt(rid, ls.snap, view); err != nil {
				cbErr = err
				return false
			}
			return !stop
		})
		if cbErr != nil {
			return cbErr
		}
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// SortedIndexScan evaluates the query with the Section 3.2 optimization:
// probe the index for all matching RIDs up front, sort them, and sweep
// the heap pages in physical order (PostgreSQL's bitmap heap scan).
// Fetched pages are re-filtered with the full predicate set.
func SortedIndexScan(t *table.Table, ix *table.Index, q Query, fn RowFunc) error {
	rids, err := collectRIDs(q.Ctx, ix, sortRanges(probeRanges(ix, q)))
	if err != nil {
		return err
	}
	return sweepPages(t, pagesOf(rids), q, fn)
}

// pagesOf returns the sorted distinct pages referenced by the RIDs. It
// sorts the RID slice in place (its callers are done with the probe
// order) and dedupes into one exactly-sized slice — no per-query map.
func pagesOf(rids []heap.RID) []int64 {
	if len(rids) == 0 {
		return nil
	}
	sort.Slice(rids, func(i, j int) bool { return rids[i].Page < rids[j].Page })
	distinct := 1
	for i := 1; i < len(rids); i++ {
		if rids[i].Page != rids[i-1].Page {
			distinct++
		}
	}
	pages := make([]int64, 0, distinct)
	pages = append(pages, rids[0].Page)
	for i := 1; i < len(rids); i++ {
		if rids[i].Page != rids[i-1].Page {
			pages = append(pages, rids[i].Page)
		}
	}
	return pages
}

// distinctPages sorts a page list gathered from several sources (a CM's
// buckets, an OR's disjuncts) in place and drops the repeats.
func distinctPages(pages []int64) []int64 {
	slices.Sort(pages)
	return slices.Compact(pages)
}

// maxGapFor returns the largest page gap worth reading straight
// through: one seek's worth of sequential reads (the read-ahead
// economics a bitmap heap scan relies on; it is also what lets dense
// access degrade gracefully toward a sequential scan, the
// min(..., cost_scan) cap in the paper's model).
func maxGapFor(t *table.Table) int64 {
	cfg := t.Pool().Disk().Config()
	maxGap := int64(cfg.SeekCost / cfg.SeqPageCost)
	if maxGap < 1 {
		maxGap = 1
	}
	return maxGap
}

// forEachPageRun coalesces the sorted distinct pages into maximal runs
// whose internal gaps are at most maxGap, invoking visit per run.
// Returning false from visit stops the iteration.
func forEachPageRun(pages []int64, maxGap int64, visit func(lo, hi int64) (cont bool, err error)) error {
	for i := 0; i < len(pages); {
		j := i
		for j+1 < len(pages) && pages[j+1]-pages[j] <= maxGap {
			j++
		}
		cont, err := visit(pages[i], pages[j])
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		i = j + 1
	}
	return nil
}

// sweepPages reads the given heap pages in ascending order, filters
// tuples on their encoded bytes and emits surviving rows. Rows on gap
// pages read through by a run are filtered out by the query like any
// other non-match.
func sweepPages(t *table.Table, pages []int64, q Query, fn RowFunc) error {
	return sweepPagesLS(t, pages, newLazyScan(t, q), fn)
}

// sweepPagesLS is sweepPages over a pre-built lazyScan, shared with the
// OR union executor.
func sweepPagesLS(t *table.Table, pages []int64, ls *lazyScan, fn RowFunc) error {
	ta := newTally()
	defer func() { ta.flush(ls.obs) }()
	return forEachPageRun(pages, maxGapFor(t), func(lo, hi int64) (bool, error) {
		var innerErr error
		stop := false
		err := t.Heap().ScanPagesAt(lo, hi, ls.snap, func(rid heap.RID, tuple []byte) bool {
			cont, err := ls.emit(rid, tuple, fn, &ta)
			if err != nil {
				innerErr = err
				return false
			}
			if !cont {
				stop = true
				return false
			}
			return true
		})
		if innerErr != nil {
			return false, innerErr
		}
		if err != nil {
			return false, err
		}
		return !stop, nil
	})
}

// Collect runs an access method and gathers all result rows, a
// convenience for tests and examples.
func Collect(run func(fn RowFunc) error) ([]value.Row, error) {
	var out []value.Row
	err := run(func(_ heap.RID, row value.Row) bool {
		out = append(out, row.Clone())
		return true
	})
	return out, err
}
