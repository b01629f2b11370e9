package exec

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// The parallel executors fan a scan's independent units — secondary-index
// probe ranges and the heap's page ranges (a CM scan's page list comes
// straight from the memory-resident page directory and only its sweep
// fans out) — across a bounded worker pool. Each worker collects its
// chunk's matches privately; chunks stream to the caller's RowFunc in
// physical order as they complete, so parallel scans emit rows in the
// same order as their serial counterparts. Returning false from the
// callback cancels the remaining workers at page granularity, keeping
// the early-stop contract cheap (a LIMIT-style caller stops the scan
// soon after its limit, it does not pay for a full sweep).
//
// All paths filter on encoded tuple bytes with the compiled TupleFilter;
// only surviving tuples materialize, and only the query's referenced +
// projected columns are decoded. Parallel collectors buffer survivors
// past the scan, so each survivor gets a fresh row (the serial executors
// reuse a scratch row instead — see the RowFunc contract).
//
// Callers must hold the table latch in shared mode (the repro facade
// does) so workers see one consistent table state; the buffer pool and
// simulated disk underneath are thread-safe.
//
// With workers <= 1 every executor delegates to its serial twin, keeping
// single-query latency identical to the sequential engine.

// DefaultWorkers returns the default scan fan-out, GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// matchRow is one collected result row.
type matchRow struct {
	rid heap.RID
	row value.Row
}

// runTasks executes run(0..n-1) across at most workers goroutines and
// returns the first error. A failing task cancels tasks not yet started,
// and a cancelled ctx stops the fan-out between tasks and returns the
// context's error. Used for fan-outs whose results are merged after the
// barrier (RID collection); ordered streaming emission uses collectEmit
// instead.
func runTasks(ctx context.Context, workers, n int, run func(task int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctxErr(ctx); err != nil {
				return err
			}
			if err := run(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		errOnce  sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	stopWatch := watchCancel(ctx, &failed)
	defer stopWatch()
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if err := run(i); err != nil {
					errOnce.Do(func() { firstErr = err })
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if firstErr == nil {
		// The run may have stopped because the watcher tripped the flag:
		// report the cancellation instead of silently returning partial
		// results.
		firstErr = ctxErr(ctx)
	}
	return firstErr
}

// chunkSlices splits n items into at most chunks near-equal contiguous
// [from, to) index ranges.
func chunkSlices(n, chunks int) [][2]int {
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	out := make([][2]int, 0, chunks)
	base, extra := n/chunks, n%chunks
	at := 0
	for i := 0; i < chunks; i++ {
		sz := base
		if i < extra {
			sz++
		}
		out = append(out, [2]int{at, at + sz})
		at += sz
	}
	return out
}

// collectEmit runs scan(0..n-1) across the worker pool and streams each
// chunk's rows to fn in chunk order as soon as all earlier chunks have
// been emitted. When fn returns false, or a chunk fails, the shared
// cancel flag stops in-flight and unstarted chunks; a cancelled ctx
// trips the same flag through a watcher goroutine, so every worker
// stops within one chunk and the run returns the context's error.
func collectEmit(ctx context.Context, workers, n int, scan func(chunk int, cancel *atomic.Bool) ([]matchRow, error), fn RowFunc) error {
	type chunkResult struct {
		rows []matchRow
		err  error
	}
	var cancel atomic.Bool
	stopWatch := watchCancel(ctx, &cancel)
	defer stopWatch()
	results := make([]chan chunkResult, n)
	for i := range results {
		results[i] = make(chan chunkResult, 1)
	}
	var next atomic.Int64
	next.Store(-1)
	var wg sync.WaitGroup
	nw := workers
	if nw > n {
		nw = n
	}
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				if cancel.Load() {
					results[i] <- chunkResult{}
					continue
				}
				rows, err := scan(i, &cancel)
				if err != nil {
					cancel.Store(true)
				}
				results[i] <- chunkResult{rows: rows, err: err}
			}
		}()
	}
	var firstErr error
	stopped := false
	for i := 0; i < n; i++ {
		r := <-results[i]
		// Errors surfacing after an early stop come from cancelled
		// in-flight chunks whose results are discarded anyway; the
		// serial path would never have reached those pages.
		if r.err != nil && firstErr == nil && !stopped {
			firstErr = r.err
		}
		if firstErr != nil || stopped {
			continue
		}
		for _, m := range r.rows {
			if !fn(m.rid, m.row) {
				stopped = true
				cancel.Store(true)
				break
			}
		}
	}
	wg.Wait()
	if firstErr == nil && !stopped {
		// A context cancellation trips the shared flag without failing
		// any chunk; report it rather than returning partial rows as a
		// clean result.
		firstErr = ctxErr(ctx)
	}
	return firstErr
}

// scanChunks oversplits a sweep's work into more chunks than workers,
// so an early stop's cancellation skips unstarted chunks instead of
// finding every chunk already in flight; a minimum chunk size keeps
// boundary seeks amortized.
func scanChunks(workers, pages int) int {
	const (
		oversplit     = 4
		minChunkPages = 8
	)
	n := workers * oversplit
	if max := pages / minChunkPages; n > max {
		n = max
	}
	if n < workers {
		n = workers
	}
	return n
}

// collectPageRange sweeps the contiguous heap pages [lo, hi], filtering
// tuples on their encoded bytes (lazyScan.collect) and appending
// surviving rows to out. cancel aborts at page boundaries when the
// scan's results are no longer needed.
func collectPageRange(t *table.Table, lo, hi int64, ls *lazyScan, cancel *atomic.Bool, out []matchRow) ([]matchRow, error) {
	var innerErr error
	curPage := int64(-1)
	ta := newTally()
	defer func() { ta.flush(ls.obs) }()
	err := t.Heap().ScanPagesAt(lo, hi, ls.snap, func(rid heap.RID, tuple []byte) bool {
		if rid.Page != curPage {
			curPage = rid.Page
			ta.page(rid.Page)
			if cancel != nil && cancel.Load() {
				return false
			}
		}
		row, err := ls.collect(tuple, &ta)
		if err != nil {
			innerErr = err
			return false
		}
		if row != nil {
			out = append(out, matchRow{rid: rid, row: row})
		}
		return true
	})
	if innerErr != nil {
		return out, innerErr
	}
	return out, err
}

// collectPages runs the gap-coalescing page sweep over pages, returning
// the matching rows. It shares the run economics with the serial
// sweepPages via forEachPageRun.
func collectPages(t *table.Table, pages []int64, ls *lazyScan, cancel *atomic.Bool) ([]matchRow, error) {
	var out []matchRow
	err := forEachPageRun(pages, maxGapFor(t), func(lo, hi int64) (bool, error) {
		if cancel != nil && cancel.Load() {
			return false, nil
		}
		var err error
		out, err = collectPageRange(t, lo, hi, ls, cancel, out)
		return err == nil, err
	})
	return out, err
}

// parallelSweepPages sweeps the sorted distinct heap pages with the
// worker pool: contiguous chunks of the page list are swept
// concurrently and stream to fn in physical order.
func parallelSweepPages(t *table.Table, pages []int64, q Query, workers int, fn RowFunc) error {
	return parallelSweepPagesLS(t, pages, newLazyScan(t, q), workers, fn)
}

// parallelSweepPagesLS is parallelSweepPages over a pre-built lazyScan,
// shared with the OR union executor.
func parallelSweepPagesLS(t *table.Table, pages []int64, ls *lazyScan, workers int, fn RowFunc) error {
	if workers <= 1 || len(pages) < 2 {
		return sweepPagesLS(t, pages, ls, fn)
	}
	chunks := chunkSlices(len(pages), scanChunks(workers, len(pages)))
	return collectEmit(ls.ctx, workers, len(chunks), func(i int, cancel *atomic.Bool) ([]matchRow, error) {
		return collectPages(t, pages[chunks[i][0]:chunks[i][1]], ls, cancel)
	}, fn)
}

// ParallelTableScan evaluates the query with a full heap scan fanned out
// over the worker pool: the page range [0, n) splits into contiguous
// chunks swept concurrently. Rows stream to fn in physical order. With
// workers <= 1 it is exactly TableScan.
func ParallelTableScan(t *table.Table, q Query, workers int, fn RowFunc) error {
	return parallelTableScanLS(t, newLazyScan(t, q), workers, fn)
}

// parallelTableScanLS is ParallelTableScan over a pre-built lazyScan,
// shared with the OR fallback executor.
func parallelTableScanLS(t *table.Table, ls *lazyScan, workers int, fn RowFunc) error {
	n := t.Heap().NumPages()
	if workers <= 1 || n < 2 {
		return tableScanLS(t, ls, fn)
	}
	chunks := chunkSlices(int(n), scanChunks(workers, int(n)))
	return collectEmit(ls.ctx, workers, len(chunks), func(i int, cancel *atomic.Bool) ([]matchRow, error) {
		return collectPageRange(t, int64(chunks[i][0]), int64(chunks[i][1])-1, ls, cancel, nil)
	}, fn)
}

// parallelRangeRIDs collects the RIDs of every index entry in the probe
// ranges, fanning ranges out across the worker pool. The returned order
// is range-major (range i's RIDs before range i+1's), matching the
// serial collectRIDs.
func parallelRangeRIDs(ctx context.Context, ix *table.Index, ranges []probeRange, workers int) ([]heap.RID, error) {
	ridLists := make([][]heap.RID, len(ranges))
	err := runTasks(ctx, workers, len(ranges), func(i int) error {
		var rids []heap.RID
		err := ix.ScanRange(ranges[i].Lo, ranges[i].Hi, func(rid heap.RID) bool {
			rids = append(rids, rid)
			return true
		})
		ridLists[i] = rids
		return err
	})
	if err != nil {
		return nil, err
	}
	var rids []heap.RID
	for _, l := range ridLists {
		rids = append(rids, l...)
	}
	return rids, nil
}

// ParallelSortedIndexScan is SortedIndexScan with both phases fanned out:
// the sorted probe ranges are collected by concurrent workers, and the
// deduplicated heap pages are swept by concurrent workers. With
// workers <= 1 it is exactly SortedIndexScan.
func ParallelSortedIndexScan(t *table.Table, ix *table.Index, q Query, workers int, fn RowFunc) error {
	if workers <= 1 {
		return SortedIndexScan(t, ix, q, fn)
	}
	rids, err := parallelRangeRIDs(q.Ctx, ix, sortRanges(probeRanges(ix, q)), workers)
	if err != nil {
		return err
	}
	return parallelSweepPages(t, pagesOf(rids), q, workers, fn)
}

// probeBatchSize bounds how many RIDs a batched probe fetches per heap
// pass: it sets the fetch granularity (and the size of the per-batch
// lookup structures), and an early stop (LIMIT) cancels between
// batches. A range's RID list and its collected rows still scale with
// the range itself — collectEmit buffers one chunk's rows either way.
const probeBatchSize = 4096

// BatchedIndexScan is the batched async form of PipelinedIndexScan: the
// probe ranges fan out across the worker pool, each worker accumulates
// its range's RIDs in index key order and fetches them batch by batch
// with the gap-coalescing page runs (so scattered fetches become few
// physical sweeps), and surviving rows stream to fn in the exact order
// the serial pipelined scan would emit them — range by range, key order
// within a range. First-match/LIMIT early stops cancel in-flight ranges
// at page granularity. With workers <= 1, or with a single probe range
// (nothing to fan out, and the serial iterator keeps first-match
// economics), it is exactly PipelinedIndexScan.
func BatchedIndexScan(t *table.Table, ix *table.Index, q Query, workers int, fn RowFunc) error {
	ranges, point := indexProbeRanges(ix.Cols, q) // serial emission order: as returned
	if workers <= 1 || len(ranges) < 2 {
		// A single probe range has nothing to fan out, and the serial
		// iterator keeps the pipelined path's first-match economics: a
		// LIMIT-1 caller stops after a handful of fetches instead of
		// waiting for the whole range's RIDs to collect. The pipelined
		// path prunes with the bloom itself, so don't prune here too
		// (it would double-count the skips).
		return PipelinedIndexScan(t, ix, q, fn)
	}
	ranges = pruneRanges(ix, ranges, point, q.Obs)
	ls := newLazyScan(t, q)
	return collectEmit(ls.ctx, workers, len(ranges), func(i int, cancel *atomic.Bool) ([]matchRow, error) {
		return probeRangeBatched(t, ix, ranges[i], ls, cancel)
	}, fn)
}

// probeRangeBatched probes one index range, accumulating its RIDs in key
// order, then fetches them in probeBatchSize batches through the heap.
func probeRangeBatched(t *table.Table, ix *table.Index, r probeRange, ls *lazyScan, cancel *atomic.Bool) ([]matchRow, error) {
	var rids []heap.RID
	err := ix.ScanRange(r.Lo, r.Hi, func(rid heap.RID) bool {
		if len(rids)&1023 == 1023 && cancel != nil && cancel.Load() {
			return false // cancelled: partial results are discarded anyway
		}
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	var out []matchRow
	for start := 0; start < len(rids); start += probeBatchSize {
		if cancel != nil && cancel.Load() {
			return out, nil
		}
		end := start + probeBatchSize
		if end > len(rids) {
			end = len(rids)
		}
		batch, err := fetchRIDBatch(t, rids[start:end], ls, cancel)
		if err != nil {
			return out, err
		}
		out = append(out, batch...)
	}
	return out, nil
}

// fetchRIDBatch reads the rows of one RID batch via a physical-order
// page sweep (gap-coalesced runs) and returns the surviving rows in the
// batch's original (index key) order, preserving the pipelined scan's
// emission order while paying the sorted scan's I/O pattern.
func fetchRIDBatch(t *table.Table, batch []heap.RID, ls *lazyScan, cancel *atomic.Bool) ([]matchRow, error) {
	want := make(map[heap.RID]struct{}, len(batch))
	for _, rid := range batch {
		want[rid] = struct{}{}
	}
	pages := pagesOf(append([]heap.RID(nil), batch...)) // keep batch order intact
	rows := make(map[heap.RID]value.Row, len(batch))
	ta := newTally()
	defer func() { ta.flush(ls.obs) }()
	err := forEachPageRun(pages, maxGapFor(t), func(lo, hi int64) (bool, error) {
		if cancel != nil && cancel.Load() {
			return false, nil
		}
		var innerErr error
		curPage := int64(-1)
		err := t.Heap().ScanPagesAt(lo, hi, ls.snap, func(rid heap.RID, tuple []byte) bool {
			if rid.Page != curPage {
				curPage = rid.Page
				ta.page(rid.Page)
				if cancel != nil && cancel.Load() {
					return false
				}
			}
			if _, ok := want[rid]; !ok {
				return true
			}
			row, err := ls.collect(tuple, &ta)
			if err != nil {
				innerErr = err
				return false
			}
			if row != nil {
				rows[rid] = row
			}
			return true
		})
		if innerErr != nil {
			return false, innerErr
		}
		return err == nil, err
	})
	if err != nil {
		return nil, err
	}
	out := make([]matchRow, 0, len(rows))
	for _, rid := range batch {
		if row, ok := rows[rid]; ok {
			out = append(out, matchRow{rid: rid, row: row})
		}
	}
	return out, nil
}

// RunParallel executes the plan with the given scan fan-out. The
// pipelined index scan runs as its batched async twin: probe ranges fan
// out, RID batches fetch through coalesced page runs, and emission order
// matches the serial scan.
func (p Plan) RunParallel(t *table.Table, q Query, workers int, fn RowFunc) error {
	switch p.Method {
	case MethodTableScan:
		return ParallelTableScan(t, q, workers, fn)
	case MethodPipelined:
		return BatchedIndexScan(t, p.Index, q, workers, fn)
	case MethodSorted, MethodClustered:
		return ParallelSortedIndexScan(t, p.Index, q, workers, fn)
	case MethodCM:
		return ParallelCMScan(t, p.CM, q, workers, fn)
	default:
		return fmt.Errorf("exec: unknown method %v", p.Method)
	}
}
