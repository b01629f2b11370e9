package exec

import (
	"bytes"
	"cmp"
	"context"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/table"
	"repro/internal/value"
)

// RowFunc receives result rows; returning false stops execution early.
//
// Scratch-row contract: the row is only valid for the duration of the
// call — a scan decodes every survivor into one scratch row (DecodeTo),
// so a caller that retains rows must Clone them. Extracted scalar values
// (row[i].I, row[i].S, ...) are plain copies and safe to keep. When the
// query carries a projection (Query.Proj), only the projected and
// predicated entries of the row are materialized; the rest are zero
// values.
type RowFunc func(rid heap.RID, row value.Row) bool

// TupleFunc receives result tuples where a RowFunc receives rows: each
// survivor's RID and its encoded bytes, valid only during the call (they
// alias a pinned frame, or a fanned-out chunk's arena) and never
// decoded unless the callback decodes them. cont false stops the scan
// early; a non-nil err fails it.
type TupleFunc func(rid heap.RID, tuple []byte) (cont bool, err error)

// DecodeTo adapts fn to the tuple level: each tuple's columns oq
// materializes (MaterializeCols) decode into one scratch row reused
// across the calls — RowFunc's scratch-row contract.
func DecodeTo(sch table.Schema, oq OrQuery, fn RowFunc) TupleFunc {
	sch = sch.Normalized()
	need := oq.MaterializeCols(len(sch.Cols))
	scratch := make(value.Row, len(sch.Cols))
	return func(rid heap.RID, tuple []byte) (bool, error) {
		if err := sch.DecodeCols(scratch, tuple, need); err != nil {
			return false, err
		}
		return fn(rid, scratch), nil
	}
}

// lazyScan bundles what every lazy access path needs: the compiled
// filter and the query it was compiled from, which carries the MVCC
// snapshot the scan reads as of, where its work is counted (Obs: one
// tally flush per sweep; nil drops them), what cancels it (Ctx: every
// sweep polls it at page boundaries, so any path stops within one heap
// page of cancellation) and the projection a decoding visit
// materializes. It is read-only once built, so the workers of a
// fanned-out scan share one.
type lazyScan struct {
	sch    table.Schema
	filter *OrFilter
	oq     OrQuery
}

// newLazyScan compiles the disjunction against t's schema: the filter
// passes tuples matching any disjunct.
func newLazyScan(t *table.Table, oq OrQuery) *lazyScan {
	sch := t.Schema()
	return &lazyScan{sch: sch, filter: CompileOrFilter(sch, oq), oq: oq}
}

// PageSet names the heap pages a sweep reads: the contiguous pages
// [lo, lo+n) of a table scan or, when n is 0, a sorted distinct page
// list (what an index, a CM or a union resolved). The zero value is
// empty.
type PageSet struct {
	lo, n int64
	list  []int64
}

// WholeHeap is the page set of a table scan: every page of t's heap.
func WholeHeap(t *table.Table) PageSet { return PageSet{n: t.Heap().NumPages()} }

// PageList is the set of the given heap pages, which may come in any
// order and repeat (several disjuncts' pages appended to one another);
// the slice is sorted in place.
func PageList(pages []int64) PageSet { return PageSet{list: sortedDistinct(pages)} }

// len counts the pages of the set.
func (ps PageSet) len() int {
	if ps.n > 0 {
		return int(ps.n)
	}
	return len(ps.list)
}

// slice returns the pages at positions [from, to) of the set.
func (ps PageSet) slice(from, to int) PageSet {
	if ps.n > 0 {
		return PageSet{lo: ps.lo + int64(from), n: int64(to - from)}
	}
	return PageSet{list: ps.list[from:to]}
}

// tupleVisit is what a sweep does with a tuple that passed its filter —
// the RID and the encoded bytes, valid only during the call: hand it to
// the caller, keep it in a fanned-out chunk's arena, or decode it and
// fold it into an aggregate. used reports whether the tuple counted as a
// result row (cm-agg's sweep passes over the tuples its statistics
// already answered); cont false ends the sweep and a non-nil err fails
// it.
type tupleVisit func(rid heap.RID, tuple []byte) (used, cont bool, err error)

// emitting is the streaming visit: every survivor goes to fn.
func emitting(fn TupleFunc) tupleVisit {
	return func(rid heap.RID, tuple []byte) (bool, bool, error) {
		cont, err := fn(rid, tuple)
		return true, cont, err
	}
}

// visitFunc is the decoded form of a visit, for the sweeps that fold
// rows: the survivor's needed columns materialized into the sweep's
// scratch row, valid only during the call.
type visitFunc func(rid heap.RID, row value.Row) (used, cont bool)

// decoding lifts a decoded visit to the kernel's: each survivor's
// needed columns decode into one scratch row, reused across the sweep.
func (ls *lazyScan) decoding(visit visitFunc) tupleVisit {
	need := ls.oq.MaterializeCols(len(ls.sch.Cols))
	scratch := make(value.Row, len(ls.sch.Cols))
	return func(rid heap.RID, tuple []byte) (bool, bool, error) {
		if err := ls.sch.DecodeCols(scratch, tuple, need); err != nil {
			return false, false, err
		}
		used, cont := visit(rid, scratch)
		return used, cont, nil
	}
}

// sweeper is one sweep in progress: the tally it owns, plus why it
// ended. Each sweep (so each worker's chunk) has its own.
type sweeper struct {
	ls     *lazyScan
	stop   *atomic.Bool // a fan-out's shared early-stop flag; nil inline
	visit  tupleVisit
	ta     tally
	halted bool  // the flag or the visit ended the sweep
	err    error // the context's error, or a filter/visit failure
}

func (ls *lazyScan) newSweeper(stop *atomic.Bool, visit tupleVisit) *sweeper {
	return &sweeper{ls: ls, stop: stop, visit: visit, ta: newTally()}
}

// enterPage runs at every page boundary, before anything on the new page
// is counted: it polls the shared early-stop flag and the query context —
// so no sweep, inline or fanned out, outlives either by more than the
// page it is on — then notes the page visit.
func (sw *sweeper) enterPage(page int64) bool {
	if sw.flagged() {
		return false
	}
	if sw.err = ctxErr(sw.ls.oq.Ctx); sw.err != nil {
		return false
	}
	sw.ta.page(page)
	return true
}

// flagged polls the fan-out's early-stop flag, halting the sweep on it.
func (sw *sweeper) flagged() bool {
	if sw.stop != nil && sw.stop.Load() {
		sw.halted = true
	}
	return sw.halted
}

// tuple is the whole per-tuple step, in the shape heap callbacks take:
// enter the tuple's page if it is a new one, filter the encoded tuple
// and, when it passes, hand its bytes to the visit. A rejected tuple is
// never copied or decoded.
func (sw *sweeper) tuple(rid heap.RID, tuple []byte) bool {
	if rid.Page != sw.ta.lastPage && !sw.enterPage(rid.Page) {
		return false
	}
	sw.ta.tuples++
	ok, err := sw.ls.filter.Matches(tuple)
	if err != nil {
		sw.err = err
		return false
	}
	if !ok {
		return true
	}
	used, cont, err := sw.visit(rid, tuple)
	if err != nil {
		sw.err = err
		return false
	}
	if used {
		sw.ta.rows++
	}
	sw.halted = !cont
	return cont
}

// run reads the pages of ps in physical order — a list coalesced into
// runs whose gaps are cheaper to read through than to seek over — and
// feeds every visible tuple to sw.tuple, then flushes the tally. It is
// the executor's only heap page reader.
func (sw *sweeper) run(t *table.Table, ps PageSet) error {
	defer sw.ta.flush(sw.ls.oq.Obs)
	readRun := func(lo, hi int64) (bool, error) {
		if sw.flagged() { // don't fetch a page only to find the flag set
			return false, nil
		}
		err := t.Heap().ScanPagesAt(lo, hi, sw.ls.oq.Snap, sw.tuple)
		if sw.err != nil {
			err = sw.err
		}
		return !sw.halted && err == nil, err
	}
	if ps.n > 0 {
		_, err := readRun(ps.lo, ps.lo+ps.n-1)
		return err
	}
	return forEachPageRun(ps.list, maxGapFor(t), readRun)
}

// sweep is the page-sweep kernel, the step every heap-visiting path but
// the pipelined iterator ends in: sorted distinct heap pages, read in
// physical order, polled for cancellation at every page boundary,
// tallied, re-filtered on encoded bytes (rows on gap pages read through
// by a run drop out like any other non-match), survivors decoded and
// handed to visit. A sweep ended early by stop or by the visit is not an
// error. It is the kernel's decoded form, what folds sweep with;
// SweepTuples hands survivors on undecoded.
func (ls *lazyScan) sweep(t *table.Table, ps PageSet, stop *atomic.Bool, visit visitFunc) error {
	return ls.newSweeper(stop, ls.decoding(visit)).run(t, ps)
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
func indexProbeRanges(cols []int, q Query) []probeRange {
	prefixes := [][]byte{nil}
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
			return out
		}
		break
	}
	out := make([]probeRange, len(prefixes))
	for i, pre := range prefixes {
		out[i] = probeRange{Lo: pre, Hi: pre}
	}
	return out
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

// rangeRIDs collects the RIDs of every index entry in the probe ranges,
// fanning the ranges out across the worker pool and polling ctx every
// cancelCheckRIDs entries. The returned order is range-major (range i's
// RIDs before range i+1's) at any worker count.
func rangeRIDs(ctx context.Context, ix *table.Index, ranges []probeRange, workers int) ([]heap.RID, error) {
	ridLists := make([][]heap.RID, len(ranges))
	err := runTasks(ctx, workers, len(ranges), func(i int) error {
		var rids []heap.RID
		var cancelled error
		err := ix.ScanRange(ranges[i].Lo, ranges[i].Hi, func(rid heap.RID) bool {
			rids = append(rids, rid)
			if len(rids)&(cancelCheckRIDs-1) == 0 {
				cancelled = ctxErr(ctx)
			}
			return cancelled == nil
		})
		ridLists[i] = rids
		if cancelled != nil {
			return cancelled
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return slices.Concat(ridLists...), nil
}

// PipelinedTuples evaluates the query by probing the index and handing
// matches to fn in index key order, probe range by probe range: the
// Section 3.1 iterator, which is what the cost model prices
// (costmodel.PipelinedIndex). Each RID's tuple is fetched the moment the
// index yields it, so every access is a potential random seek (why this
// path only pays off for very selective lookups) but a first-match /
// LIMIT-1 caller stops after a handful of fetches instead of waiting for
// a whole range's RIDs to collect. It runs on the caller's goroutine: a
// multi-range probe that wants its I/O overlapped has the sorted scan,
// whose sweep fans out on a miss. Tuples are filtered on their encoded
// bytes and reach fn undecoded.
func PipelinedTuples(t *table.Table, ix *table.Index, q Query, fn TupleFunc) error {
	ranges := indexProbeRanges(ix.Cols, q) // emission order: as returned
	ls := newLazyScan(t, q.asOr())
	h := t.Heap()
	sw := ls.newSweeper(nil, emitting(fn))
	defer sw.ta.flush(ls.oq.Obs)
	// One view closure for the whole scan (a fresh closure per probed
	// RID would allocate per tuple): it reads the current RID from
	// curRID, set by the probe loop below. View hands out the pinned
	// frame's bytes: a tuple the filter rejects is never copied.
	var curRID heap.RID
	view := func(tuple []byte) error {
		sw.tuple(curRID, tuple)
		return sw.err
	}
	for _, r := range ranges {
		var viewErr error
		err := ix.ScanRange(r.Lo, r.Hi, func(rid heap.RID) bool {
			curRID = rid
			viewErr = h.ViewAt(rid, ls.oq.Snap, view)
			return viewErr == nil && !sw.halted
		})
		if viewErr != nil {
			return viewErr
		}
		if err != nil || sw.halted {
			return err
		}
	}
	return nil
}

// IndexPages probes the index with the query's predicates over its key
// columns — the probe ranges sorted, then collected concurrently across
// workers — and returns the sorted distinct heap pages the matching RIDs
// sit on: what a sorted index scan, or such a disjunct of a union,
// sweeps.
func IndexPages(ix *table.Index, q Query, workers int) ([]int64, error) {
	rids, err := rangeRIDs(q.Ctx, ix, sortRanges(indexProbeRanges(ix.Cols, q)), workers)
	return pagesOf(rids), err
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

// sortedDistinct sorts a list gathered from several sources — pages from
// a CM's buckets or an OR's disjuncts, clustered buckets from a CM's
// entries — in place and drops the repeats.
func sortedDistinct[T cmp.Ordered](list []T) []T {
	slices.Sort(list)
	return slices.Compact(list)
}

// maxGapFor returns the largest page gap worth reading straight
// through: one seek's worth of sequential reads (the read-ahead
// economics a bitmap heap scan relies on; it is also what lets dense
// access degrade gracefully toward a sequential scan, the
// min(..., cost_scan) cap in the paper's model).
func maxGapFor(t *table.Table) int64 {
	h := Hardware(t)
	maxGap := int64(h.SeekCost / h.SeqPageCost)
	if maxGap < 1 {
		maxGap = 1
	}
	return maxGap
}

// runEnd returns the position one past the page run that starts at
// position i of the sorted distinct pages: the maximal stretch whose
// internal gaps are at most maxGap. It is the one definition of a run —
// what the kernel reads straight through, PageRuns counts and
// sweepChunks cuts between.
func runEnd(pages []int64, i int, maxGap int64) int {
	j := i + 1
	for j < len(pages) && pages[j]-pages[j-1] <= maxGap {
		j++
	}
	return j
}

// forEachPageRun coalesces the sorted distinct pages into runs (runEnd),
// invoking visit per run. Returning false from visit stops the iteration.
func forEachPageRun(pages []int64, maxGap int64, visit func(lo, hi int64) (cont bool, err error)) error {
	for i := 0; i < len(pages); {
		j := runEnd(pages, i, maxGap)
		cont, err := visit(pages[i], pages[j-1])
		if err != nil {
			return err
		}
		if !cont {
			return nil
		}
		i = j
	}
	return nil
}
