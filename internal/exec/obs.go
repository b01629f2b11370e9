package exec

import "sync/atomic"

// ScanObs accumulates an access path's physical work: tuples examined
// (filter evaluations on encoded heap bytes), surviving rows handed to
// the caller, and heap page visits. The executor keeps per-chunk local
// tallies and flushes them here in one shot, so the hot per-tuple loop
// never touches an atomic — attaching a ScanObs to a query costs a few
// atomic adds per chunk, which is what keeps instrumentation off the
// per-row path. A nil *ScanObs disables counting.
//
// The same ScanObs may be shared by every disjunct of an OR query and
// by concurrent scan workers; all fields are atomics.
type ScanObs struct {
	// Tuples counts encoded tuples the filter examined.
	Tuples atomic.Int64
	// Rows counts survivors emitted to the caller.
	Rows atomic.Int64
	// Pages counts heap page visits (a page revisited by a later chunk
	// counts again; buffer-pool hit/miss deltas say whether a visit
	// touched the disk).
	Pages atomic.Int64
	// EmptyPages counts the heap page visits on which no tuple survived
	// the filter — swept for nothing. For a CM scan these are the CM's
	// false-positive pages, the paper's signal that a soft functional
	// dependency has weakened.
	EmptyPages atomic.Int64
	// Sweeps counts page sweeps run by the executor's sweep driver (one
	// per table, index, clustered, CM or union scan), and Chunks the
	// chunks of those that fanned out: a sweep run inline on the caller's
	// goroutine adds none, a fan-out adds the number of chunks its page
	// set was cut into.
	Sweeps atomic.Int64
	Chunks atomic.Int64
}

// add folds one chunk's tally into o (nil obs: drop).
func (o *ScanObs) add(tuples, rows, pages, emptyPages int64) {
	if o == nil {
		return
	}
	if tuples != 0 {
		o.Tuples.Add(tuples)
	}
	if rows != 0 {
		o.Rows.Add(rows)
	}
	if pages != 0 {
		o.Pages.Add(pages)
	}
	if emptyPages != 0 {
		o.EmptyPages.Add(emptyPages)
	}
}

// addSweep notes one sweep and how many chunks it fanned out into, 0
// when it ran inline (nil obs: drop).
func (o *ScanObs) addSweep(chunks int) {
	if o == nil {
		return
	}
	o.Sweeps.Add(1)
	if chunks != 0 {
		o.Chunks.Add(int64(chunks))
	}
}

// AddFrom folds another observation set into o — an analyzed run's or a
// CM scan's private counts rolling up into the engine-wide ones.
func (o *ScanObs) AddFrom(src *ScanObs) {
	if o == nil {
		return
	}
	o.add(src.Tuples.Load(), src.Rows.Load(), src.Pages.Load(), src.EmptyPages.Load())
	if n := src.Sweeps.Load(); n != 0 {
		o.Sweeps.Add(n)
	}
	if c := src.Chunks.Load(); c != 0 {
		o.Chunks.Add(c)
	}
}

// tally is a scan worker's local observation buffer: plain ints bumped
// in the per-tuple loop, flushed to the shared ScanObs once per sweep
// (a worker's chunk, or the whole scan when it runs inline).
type tally struct {
	tuples, rows int64
	pages        int64
	lastPage     int64 // last heap page seen, -1 before the first
	// emptyPages counts pages left behind with no survivor: rowsAtPage is
	// the rows count when lastPage was entered, compared once per page.
	emptyPages int64
	rowsAtPage int64
}

// newTally returns a tally ready to count from the first page.
func newTally() tally { return tally{lastPage: -1} }

// page notes a visit to heap page p, counting page transitions so a
// run of tuples on one page costs one increment.
func (ta *tally) page(p int64) {
	if p != ta.lastPage {
		ta.leavePage()
		ta.pages++
		ta.lastPage = p
	}
}

// leavePage closes the current page's account: a page on which the rows
// count did not move was swept for nothing.
func (ta *tally) leavePage() {
	if ta.lastPage >= 0 && ta.rows == ta.rowsAtPage {
		ta.emptyPages++
	}
	ta.rowsAtPage = ta.rows
}

// flush folds the tally into obs (nil obs: drop) and zeroes it.
func (ta *tally) flush(obs *ScanObs) {
	ta.leavePage()
	obs.add(ta.tuples, ta.rows, ta.pages, ta.emptyPages)
	*ta = newTally()
}
