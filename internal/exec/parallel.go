package exec

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/heap"
	"repro/internal/table"
)

// This file is the fan-out half of the executor. Every driver takes a
// worker count — an upper bound on its fan-out, not an instruction to
// split; what fans out is a scan's independent units — secondary-index
// probe ranges (rangeRIDs) and chunks of a sweep's page set
// (SweepTuples, foldPages). Each worker runs the one sweep kernel over its
// chunk with a visit that copies each survivor's encoded bytes into the
// chunk's arena — one growing buffer per chunk, no row built; chunks
// then stream in physical order as they complete, each kept tuple going
// through the caller's TupleFunc exactly as an inline sweep would have
// handed it over, so a scan emits the same rows in the same order at any
// worker count. Returning false from the callback, a failing chunk or a
// cancelled context stops the remaining workers at page granularity,
// keeping the early-stop contract cheap (a LIMIT-style caller stops the
// scan soon after its limit, it does not pay for a full sweep).
//
// A row-emitting sweep's chunks are cut by page run (sweepChunks): the
// paper's CM lookup ends in a few sequential runs of clustered pages,
// the plan is priced as runs*seek + pages*seq_page, and a chunk boundary
// on a run boundary is the one cut that adds no seek to that. The sweep
// fans out only for one of two reasons (SweepTuples): enough pages that
// there is CPU to split, or a page missing from the buffer pool whose
// wait another worker can overlap. Everything else — one worker, and at
// any worker count a point probe's single short run or a few short runs
// already cached — is the degenerate case of the same driver, not a
// second implementation: the kernel runs inline on the caller's
// goroutine with the caller's TupleFunc as its visit — no buffering, no
// goroutine — which keeps single-query latency that of a sequential
// engine.
//
// Callers must hold the table latch in shared mode (the repro facade
// does) so workers see one consistent table state; the buffer pool and
// simulated disk underneath are thread-safe.

// DefaultWorkers returns the default scan fan-out, GOMAXPROCS.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// chunkTuples is one fanned-out chunk's survivors, held for the ordered
// emitter: their encoded bytes back to back in one arena, with each
// one's RID and end offset.
type chunkTuples struct {
	arena []byte
	rids  []heap.RID
	ends  []int
}

// keep is the visit a fanned-out chunk sweeps with: the survivor's bytes
// outlive the pinned frame in the arena.
func (c *chunkTuples) keep(rid heap.RID, tuple []byte) (used, cont bool, err error) {
	c.arena = append(c.arena, tuple...)
	c.rids = append(c.rids, rid)
	c.ends = append(c.ends, len(c.arena))
	return true, true, nil
}

// emit hands the kept tuples to fn in order, as the inline sweep would
// have, and reports whether fn asked for more after the last.
func (c *chunkTuples) emit(fn TupleFunc) (bool, error) {
	start := 0
	for i, end := range c.ends {
		if cont, err := fn(c.rids[i], c.arena[start:end:end]); !cont || err != nil {
			return false, err
		}
		start = end
	}
	return true, nil
}

// runTasks executes run(0..n-1) across at most workers goroutines and
// returns the first error. A failing task cancels tasks not yet started,
// and a cancelled ctx stops the fan-out between tasks (the tasks poll it
// themselves while they run) and returns the context's error. Used for
// fan-outs whose results are merged after the barrier (RID collection,
// partial aggregates); ordered streaming emission uses collectEmit
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
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stopRequested(ctx, &failed) {
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
		// The workers may have stopped handing out tasks because the
		// context fired: report the cancellation instead of silently
		// returning partial results.
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
// chunk's tuples to fn in chunk order as soon as all earlier chunks have
// been emitted. When fn returns false or fails, or a chunk fails, the
// shared cancel flag stops in-flight and unstarted chunks; a cancelled
// ctx stops them the same way (every scan polls both at page boundaries)
// and the run returns the context's error.
func collectEmit(ctx context.Context, workers, n int, scan func(chunk int, cancel *atomic.Bool) (*chunkTuples, error), fn TupleFunc) error {
	type chunkResult struct {
		tuples *chunkTuples
		err    error
	}
	var cancel atomic.Bool
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
				if stopRequested(ctx, &cancel) {
					results[i] <- chunkResult{}
					continue
				}
				tuples, err := scan(i, &cancel)
				if err != nil {
					cancel.Store(true)
				}
				results[i] <- chunkResult{tuples: tuples, err: err}
			}
		}()
	}
	var firstErr error
	stopped := false
	for i := 0; i < n; i++ {
		r := <-results[i]
		if firstErr != nil || stopped {
			// Draining. Errors surfacing after an early stop come from
			// cancelled in-flight chunks whose results are discarded
			// anyway; an inline sweep would never have reached those
			// pages.
			continue
		}
		if r.err == nil {
			// A cancelled run emits nothing further: chunks skipped
			// since the context fired are holes in the sequence.
			r.err = ctxErr(ctx)
		}
		if r.err == nil && r.tuples != nil {
			var cont bool
			if cont, r.err = r.tuples.emit(fn); !cont && r.err == nil {
				stopped = true
				cancel.Store(true)
			}
		}
		if r.err != nil {
			firstErr = r.err
			cancel.Store(true)
		}
	}
	wg.Wait()
	if firstErr == nil && !stopped {
		// A cancelled context skips unstarted chunks without failing
		// any; report it rather than returning partial rows as a clean
		// result.
		firstErr = ctxErr(ctx)
	}
	return firstErr
}

// A sweep's fan-out is counted in chunks of the page set. oversplit cuts
// more chunks than workers, so an early stop's cancellation skips
// unstarted chunks instead of finding every chunk already in flight;
// minChunkPages is the least a chunk cut out of consecutive pages may
// hold, which keeps the boundary seek such a cut adds amortized and gives
// the goroutine, channel and row clones a chunk costs enough work to
// carry.
const (
	oversplit     = 4
	minChunkPages = 8
)

// sweepChunks cuts a sweep's page set into the ordered [from, to)
// position ranges a fan-out over workers sweeps concurrently, or returns
// nil when the set is to be swept whole. Page runs are the unit: a cut
// falls on a run boundary — a gap wider than maxGap, where the sweep
// seeks anyway (runEnd is the coalescing the kernel executes and
// PageRuns counts, so such a cut costs nothing the plan did not pay) —
// or inside a run (a table scan's page range is one run) long enough to
// leave minChunkPages on both sides. At most workers*oversplit chunks
// come back: with fewer runs than that the spare cuts go to the long
// runs in proportion to their pages, with more the runs are grouped,
// consecutive ones together, into chunks of balanced page counts. The
// chunks partition the set in physical order.
func sweepChunks(ps PageSet, workers int, maxGap int64) [][2]int {
	total := ps.len()
	if workers <= 1 || total < 2 {
		return nil
	}
	budget := workers * oversplit
	runs := 1
	if ps.n == 0 {
		for at := runEnd(ps.list, 0, maxGap); at < total; at = runEnd(ps.list, at, maxGap) {
			runs++
		}
	}
	if runs == 1 && total < 2*minChunkPages {
		return nil
	}
	chunks := make([][2]int, 0, min(runs, budget))
	if runs > budget {
		// Group: close a chunk after the run that brings the pages so far
		// up to the chunk's even share of the total.
		from, closed := 0, 0
		for at := 0; at < total; {
			at = runEnd(ps.list, at, maxGap)
			if at*budget >= total*(closed+1) {
				chunks = append(chunks, [2]int{from, at})
				from, closed = at, at*budget/total
			}
		}
		return chunks
	}
	spare := budget - runs
	for at := 0; at < total; {
		end := total
		if ps.n == 0 {
			end = runEnd(ps.list, at, maxGap)
		}
		n := end - at
		extra := max(0, min(n/minChunkPages-1, spare*n/total))
		for _, c := range chunkSlices(n, 1+extra) {
			chunks = append(chunks, [2]int{at + c[0], at + c[1]})
		}
		at = end
	}
	return chunks
}

// missing reports whether some page of the (short) list is not in the
// buffer pool right now: a read that will wait on the disk.
func missing(t *table.Table, pages []int64) bool {
	pool, file := t.Pool(), t.Heap().FileID()
	for _, page := range pages {
		if !pool.Resident(file, page) {
			return true
		}
	}
	return false
}

// SweepTuples is the one driver under every page-sweeping access method,
// whatever resolved the pages: it sweeps ps with the kernel, streams the
// tuples matching the disjunction to fn in physical order, and it is
// where a sweep's fan-out is decided — once, from the page set. There
// are exactly two reasons to fan out, and both need a set sweepChunks
// can cut: the set holds 2*minChunkPages pages or more (CPU to split),
// or one of its pages is not in the buffer pool (a miss whose wait
// another worker can overlap — between runs only: cutting a short run in
// two bought a second seek under real I/O waits, and with the pages
// cached a goroutine, a channel and a copy per survivor for some 15 µs
// of work). Then the chunks are swept concurrently, each keeping its
// survivors' bytes in its arena (they outlive the pinned frame), and
// collectEmit hands them to fn in chunk order. Otherwise — one worker, a
// single short run warm or cold, a few short runs once they are cached —
// the kernel runs inline on the caller's goroutine with fn as its visit.
// Pool.Resident is a hint that may be stale; either arm emits the same
// tuples in the same order. A caller that wants each survivor decoded
// wraps its row callback in DecodeTo.
func SweepTuples(t *table.Table, oq OrQuery, ps PageSet, workers int, fn TupleFunc) error {
	ls := newLazyScan(t, oq)
	chunks := sweepChunks(ps, workers, maxGapFor(t))
	// A set under 2*minChunkPages pages that was cut is a list of short runs.
	fanOut := len(chunks) >= 2 && (ps.len() >= 2*minChunkPages || missing(t, ps.list))
	if !fanOut {
		oq.Obs.addSweep(0)
		return ls.newSweeper(nil, emitting(fn)).run(t, ps)
	}
	oq.Obs.addSweep(len(chunks))
	return collectEmit(oq.Ctx, workers, len(chunks), func(i int, stop *atomic.Bool) (*chunkTuples, error) {
		c := &chunkTuples{}
		return c, ls.newSweeper(stop, c.keep).run(t, ps.slice(chunks[i][0], chunks[i][1]))
	}, fn)
}
