package exec

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// collectVia gathers payloads in emission order.
func collectVia(t *testing.T, run func(fn RowFunc) error) []string {
	t.Helper()
	var got []string
	if err := run(func(_ heap.RID, row value.Row) bool {
		got = append(got, row[2].S)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

func sameSlices(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// refRow is one row of the reference result.
type refRow struct {
	rid heap.RID
	row value.Row
}

// refRows is the reference every access method is held to, sharing no
// code with the sweep kernel: table.Table.Scan decodes every live row and
// Query.Matches filters the decoded values. Rows come in physical order.
func refRows(t *testing.T, tbl *table.Table, q Query) []refRow {
	t.Helper()
	var out []refRow
	if err := tbl.Scan(nil, func(rid heap.RID, row value.Row) bool {
		if q.Matches(row) {
			out = append(out, refRow{rid, row.Clone()})
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// firstDiff returns the first position at which got and want differ in
// RID or in one of cols (their common length when only that differs), or
// -1 when they are identical.
func firstDiff(got, want []refRow, cols []int) int {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i].rid != want[i].rid {
			return i
		}
		for _, c := range cols {
			if got[i].row[c] != want[i].row[c] {
				return i
			}
		}
	}
	if len(got) != len(want) {
		return min(len(got), len(want))
	}
	return -1
}

// pipelinedOrder reorders a physical-order reference the way a pipelined
// probe of the index on column 1 emits it: probe range by probe range
// (an IN list's values as written, repeats probed once), index key order
// within a range, RID order within a key.
func pipelinedOrder(ref []refRow, q Query) []refRow {
	out := append([]refRow(nil), ref...)
	p := q.IndexablePredOn(1)
	rank := func(r refRow) int64 { return r.row[1].I } // a range, or no probe predicate: key order
	if p != nil && p.Op != OpRange {
		rank = func(r refRow) int64 {
			for i, v := range p.Vals {
				if v.I == r.row[1].I {
					return int64(i) // first occurrence: the probe that emits it
				}
			}
			return -1
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return rank(out[i]) < rank(out[j]) })
	return out
}

// churn leaves the table the way a write workload does, one writer
// statement each: inserts land at the heap tail (outside their clustered
// buckets' page ranges), updates end a version in place and append its
// successor with a moved clustering key, deletes leave dead versions.
func churn(t *testing.T, db *testDB) {
	t.Helper()
	write := func(apply func(tx *table.WriteTxn) error) {
		t.Helper()
		tx := db.tbl.BeginWrite()
		if err := apply(tx); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	var fresh []value.Row
	for i := 0; i < 200; i++ {
		c := int64(i * 5 % 500)
		fresh = append(fresh, value.Row{value.NewInt(c), value.NewInt(c / 10), value.NewString(fmt.Sprintf("fresh-%d", i))})
	}
	write(func(tx *table.WriteTxn) error { return tx.InsertBatch(fresh) })
	var olds, dead []heap.RID
	var news []value.Row
	for _, r := range refRows(t, db.tbl, NewQuery(Between(0, value.NewInt(45), value.NewInt(60)))) {
		if r.row[0].I%2 == 0 {
			olds = append(olds, r.rid)
			moved := r.row.Clone()
			moved[0] = value.NewInt(r.row[0].I + 200) // the clustering key itself moves
			news = append(news, moved)
		} else {
			dead = append(dead, r.rid)
		}
	}
	if len(olds) == 0 || len(dead) == 0 {
		t.Fatal("churn slice empty; fixture broken")
	}
	write(func(tx *table.WriteTxn) error {
		return tx.UpdateBatch(imagesOf(t, db.tbl, olds), func(i int, row value.Row) { copy(row, news[i]) })
	})
	write(func(tx *table.WriteTxn) error { return tx.DeleteBatch(imagesOf(t, db.tbl, dead)) })
}

// imagesOf reads the latest bytes of the live rows at rids, as a writer
// statement's read phase captures them.
func imagesOf(t *testing.T, tbl *table.Table, rids []heap.RID) *table.Images {
	t.Helper()
	tbl.RLock()
	defer tbl.RUnlock()
	var im table.Images
	for _, rid := range rids {
		n := im.Len()
		err := tbl.Heap().ViewAt(rid, 0, func(tuple []byte) error {
			im.Add(rid, tuple)
			return nil
		})
		if err != nil || im.Len() == n {
			t.Fatalf("reading %v: %v", rid, err)
		}
	}
	return &im
}

// TestParallelMatchesSerial is the executor's one equivalence test: every
// access method, at every worker count, with and without a projection,
// unlimited and stopped early, on a freshly loaded table and on one left
// behind by inserts, key-moving updates and deletes, returns exactly the
// serial reference scan's rows (refRows: RIDs and every materialized
// column) in exactly the method's emission order — physical order for
// all but the pipelined probe, which emits in index key order
// (pipelinedOrder) from both its arms. Subtests are named q<i>/workers<w>;
// the rest of the matrix is spelled out in each failure.
func TestParallelMatchesSerial(t *testing.T) {
	fresh := buildTestDB(t, 6000, 42, 0)
	churned := buildTestDB(t, 6000, 42, 0)
	churn(t, churned)
	states := []struct {
		name string
		db   *testDB
	}{{"loaded", fresh}, {"churned", churned}}
	queries := []Query{
		NewQuery(Eq(1, value.NewInt(17))),
		NewQuery(In(1, value.NewInt(25), value.NewInt(3), value.NewInt(25), value.NewInt(44))),
		NewQuery(Between(1, value.NewInt(10), value.NewInt(14))),
		NewQuery(In(1, value.NewInt(7), value.NewInt(31)), Ge(0, value.NewInt(50))),
	}
	methods := []Method{MethodTableScan, MethodPipelined, MethodSorted, MethodCM, MethodClustered}
	for qi, q := range queries {
		for _, w := range []int{1, 2, 4, 8, 9} {
			t.Run(fmt.Sprintf("q%d/workers%d", qi, w), func(t *testing.T) {
				for _, st := range states {
					physical := refRows(t, st.db.tbl, q)
					if len(physical) < 8 {
						t.Fatalf("%s: query matched %d rows; fixture broken", st.name, len(physical))
					}
					for _, m := range methods {
						want := physical
						if m == MethodPipelined {
							want = pipelinedOrder(physical, q)
						}
						for _, proj := range [][]int{nil, {2}} {
							// Predicated columns ride along with a projection.
							cols := []int{0, 1, 2}
							if proj != nil {
								cols = append([]int(nil), proj...)
								for _, p := range q.Preds {
									cols = append(cols, p.Col)
								}
							}
							pq := q
							pq.Proj = proj
							for _, limit := range []int{0, 1, 7} {
								label := fmt.Sprintf("%s %v proj=%v limit=%d", st.name, m, proj, limit)
								var got []refRow
								err := scanVia(st.db.tbl, m, st.db.ix, st.db.cm, pq, w, func(rid heap.RID, row value.Row) bool {
									got = append(got, refRow{rid, row.Clone()})
									return len(got) != limit
								})
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								exp := want
								if limit > 0 {
									exp = want[:limit]
								}
								if i := firstDiff(got, exp, cols); i >= 0 {
									t.Errorf("%s: %d rows, reference has %d; first difference at row %d", label, len(got), len(exp), i)
								}
							}
						}
					}
				}
			})
		}
	}

	// Page sets at the fan-out thresholds, through the sweep driver
	// itself: 15, 16 and 17 pages as one run, as two runs, and as a run
	// plus a tail page a gap of exactly maxGap away (read through: still
	// one run) and one page further (a second run), with the pool warm and
	// invalidated — every way the inline/fan-out decision can fall. Rows on
	// the gap pages a run reads through match the query too, so the
	// reference is every matching row on a page some run covers.
	t.Run("thresholds", func(t *testing.T) {
		tbl := fresh.tbl
		q := NewQuery(Ne(1, value.NewInt(17)))
		matching := refRows(t, tbl, q)
		maxGap := maxGapFor(tbl)
		for _, n := range []int64{15, 16, 17} {
			for _, shape := range []struct {
				name  string
				pages []int64
			}{
				{"one run", pageSeq(10, n)},
				{"two runs", append(pageSeq(10, n/2), pageSeq(10+n/2+maxGap+5, n-n/2)...)},
				{"run and a tail page inside maxGap", append(pageSeq(10, n-1), 10+n-2+maxGap)},
				{"run and a tail page outside maxGap", append(pageSeq(10, n-1), 10+n-2+maxGap+1)},
			} {
				if last := shape.pages[len(shape.pages)-1]; last >= tbl.Heap().NumPages() {
					t.Fatalf("page %d is past the fixture's heap", last)
				}
				covered := func(p int64) bool {
					for i, lp := range shape.pages {
						if p == lp || (i > 0 && shape.pages[i-1] < p && p < lp && lp-shape.pages[i-1] <= maxGap) {
							return true
						}
					}
					return false
				}
				var want []refRow
				for _, r := range matching {
					if covered(r.rid.Page) {
						want = append(want, r)
					}
				}
				for _, w := range []int{1, 2, 4, 9} {
					for _, cold := range []bool{false, true} {
						if cold {
							if err := tbl.Pool().FlushAll(); err != nil {
								t.Fatal(err)
							}
							tbl.Pool().Invalidate()
						}
						var got []refRow
						err := SweepTuples(tbl, q.asOr(), PageSet{list: shape.pages}, w, DecodeTo(tbl.Schema(), q.asOr(), func(rid heap.RID, row value.Row) bool {
							got = append(got, refRow{rid, row.Clone()})
							return true
						}))
						if err != nil {
							t.Fatal(err)
						}
						if i := firstDiff(got, want, []int{0, 1, 2}); i >= 0 {
							t.Errorf("%d pages, %s, workers %d, cold %v: %d rows, reference has %d; first difference at row %d",
								n, shape.name, w, cold, len(got), len(want), i)
						}
					}
				}
			}
		}
	})

	// One lazyScan is read-only once built, so a fan-out's workers share
	// it (filter, column set, observer): sweep overlapping chunks through
	// one from many goroutines at once and hold each to the reference.
	// The race detector does the rest.
	t.Run("shared-lazyscan", func(t *testing.T) {
		q := queries[2]
		obs := &ScanObs{}
		q.Obs = obs
		ls := newLazyScan(fresh.tbl, q.asOr())
		n := fresh.tbl.Heap().NumPages()
		want := refRows(t, fresh.tbl, q)
		const workers = 8
		errs := make(chan error, workers)
		for g := 0; g < workers; g++ {
			go func() {
				i := 0
				err := ls.sweep(fresh.tbl, PageSet{n: n}, nil, func(rid heap.RID, row value.Row) (bool, bool) {
					if i >= len(want) || rid != want[i].rid || row[2] != want[i].row[2] {
						t.Errorf("shared sweep row %d = %v %v", i, rid, row)
					}
					i++
					return true, true
				})
				if err == nil && i != len(want) {
					err = fmt.Errorf("shared sweep saw %d rows, want %d", i, len(want))
				}
				errs <- err
			}()
		}
		for g := 0; g < workers; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
		if got := obs.Rows.Load(); got != int64(workers*len(want)) {
			t.Errorf("shared observer counted %d rows, want %d", got, workers*len(want))
		}
	})
}

// TestBatchedIndexScanEarlyStop checks LIMIT-style early stops of the
// pipelined probe emit exactly a prefix of the full result. The IN list
// is several probe ranges, and the worker count is above one: the scan is
// the Section 3.1 iterator all the same (the batched arm this test is
// named after is gone), so the stop lands within the range it is in.
func TestBatchedIndexScanEarlyStop(t *testing.T) {
	db := buildTestDB(t, 4000, 13, 0)
	q := NewQuery(In(1, value.NewInt(5), value.NewInt(9), value.NewInt(14),
		value.NewInt(21), value.NewInt(28), value.NewInt(30)))
	full := collectVia(t, func(fn RowFunc) error { return scanVia(db.tbl, MethodPipelined, db.ix, nil, q, 1, fn) })
	if len(full) < 10 {
		t.Fatalf("fixture too selective: %d rows", len(full))
	}
	for _, limit := range []int{1, 7} {
		var got []string
		err := scanVia(db.tbl, MethodPipelined, db.ix, nil, q, 4, func(_ heap.RID, row value.Row) bool {
			got = append(got, row[2].S)
			return len(got) < limit
		})
		if err != nil {
			t.Fatal(err)
		}
		if !sameSlices(full[:limit], got) {
			t.Errorf("limit %d emitted %v, want prefix %v", limit, got, full[:limit])
		}
	}
}

// TestEarlyStopSkipsUnstartedChunks pins what oversplitting a sweep buys:
// once the caller's RowFunc returns false, chunks no worker has picked up
// yet are never scanned. Every chunk but the first waits for the shared
// flag, so at most one chunk per worker (plus the first) can have started
// by the time the first chunk's row stops the run.
func TestEarlyStopSkipsUnstartedChunks(t *testing.T) {
	const workers, chunks = 2, 16
	var started atomic.Int64
	emitted := 0
	err := collectEmit(nil, workers, chunks, func(i int, stop *atomic.Bool) (*chunkTuples, error) {
		started.Add(1)
		if i == 0 {
			return &chunkTuples{rids: make([]heap.RID, 2), ends: make([]int, 2)}, nil
		}
		for !stop.Load() {
			runtime.Gosched()
		}
		return nil, nil
	}, func(heap.RID, []byte) (bool, error) {
		emitted++
		return false, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != 1 {
		t.Errorf("emitted %d rows after the stop, want 1", emitted)
	}
	if n := started.Load(); n > workers+1 {
		t.Errorf("%d of %d chunks started; the early stop should have skipped all but %d", n, chunks, workers+1)
	}
}

// TestSweepStopsAtPageBoundary pins the kernel's cancellation contract
// where it is deterministic: when the query context is cancelled, or the
// fan-out's shared flag set, while a sweep is on page p, the sweep
// finishes p and never visits p+1 — inline and with four sweeps in
// flight, over a page range and over a page list. Every worker parks on
// the first row of the third page it visits until all have arrived, one
// of them pulls the trigger, and each must then count exactly three pages.
func TestSweepStopsAtPageBoundary(t *testing.T) {
	db := buildTestDB(t, 6000, 5, 0)
	n := db.tbl.Heap().NumPages()
	var list []int64
	for p := int64(0); p < n; p++ {
		if p%5 != 4 { // runs with gap pages read through, like any index's list
			list = append(list, p)
		}
	}
	const stopAt = 3
	for _, workers := range []int{1, 4} {
		for _, set := range []struct {
			name string
			ps   PageSet
		}{{"range", PageSet{n: n}}, {"list", PageSet{list: list}}} {
			for _, trigger := range []string{"context", "flag"} {
				t.Run(fmt.Sprintf("workers%d/%s/%s", workers, set.name, trigger), func(t *testing.T) {
					ctx, cancel := context.WithCancel(context.Background())
					defer cancel()
					obs := &ScanObs{}
					ls := newLazyScan(db.tbl, Query{Obs: obs, Ctx: ctx}.asOr()) // no predicate: every tuple survives
					var stop atomic.Bool
					var parked, fired sync.WaitGroup
					parked.Add(workers)
					fired.Add(1)
					chunks := chunkSlices(set.ps.len(), workers)
					results := make(chan error, workers)
					for w := 0; w < workers; w++ {
						go func() {
							pages, last := 0, int64(-1)
							results <- ls.sweep(db.tbl, set.ps.slice(chunks[w][0], chunks[w][1]), &stop, func(rid heap.RID, _ value.Row) (bool, bool) {
								if rid.Page != last {
									last = rid.Page
									if pages++; pages == stopAt {
										parked.Done()
										if w == 0 {
											parked.Wait()
											if trigger == "context" {
												cancel()
											} else {
												stop.Store(true)
											}
											fired.Done()
										}
										fired.Wait()
									}
								}
								return true, true
							})
						}()
					}
					for w := 0; w < workers; w++ {
						err := <-results
						if trigger == "context" && err != context.Canceled {
							t.Errorf("sweep returned %v, want context.Canceled", err)
						}
						if trigger == "flag" && err != nil {
							t.Errorf("sweep returned %v, want a silent stop", err)
						}
					}
					if got := obs.Pages.Load(); got != int64(workers*stopAt) {
						t.Errorf("%d pages visited, want %d: a sweep went past the page it was cancelled on", got, workers*stopAt)
					}
				})
			}
		}
	}
}

// TestProjectionPushdownAcrossMethods checks that a query with Proj set
// returns the same projected + predicated entries as a full query, on
// every access method, inline and fanned out, and leaves unreferenced
// entries unmaterialized.
func TestProjectionPushdownAcrossMethods(t *testing.T) {
	db := buildTestDB(t, 3000, 31, 0)
	full := NewQuery(In(1, value.NewInt(5), value.NewInt(19)))
	proj := full
	proj.Proj = []int{2} // payload only; u rides along as the predicate column
	want := collectVia(t, func(fn RowFunc) error { return scanVia(db.tbl, MethodTableScan, nil, nil, full, 1, fn) })
	if len(want) == 0 {
		t.Fatal("fixture query matched nothing")
	}
	methods := map[string]func(fn RowFunc) error{}
	for _, w := range []int{1, 4} {
		for name, m := range map[string]Method{"tablescan": MethodTableScan, "pipelined": MethodPipelined, "sorted": MethodSorted, "cm": MethodCM} {
			methods[fmt.Sprintf("%s/%d", name, w)] = func(fn RowFunc) error { return scanVia(db.tbl, m, db.ix, db.cm, proj, w, fn) }
		}
	}
	for name, run := range methods {
		var got []string
		err := run(func(_ heap.RID, row value.Row) bool {
			if row[1].I < 0 || (row[1].I != 5 && row[1].I != 19) {
				t.Errorf("%s: predicated column not materialized or filter leaked: u=%d", name, row[1].I)
			}
			// Matching rows have u in {5, 19}, so c = 10*u ± noise is
			// never 0: a zero entry proves c stayed unmaterialized.
			if row[0].I != 0 {
				t.Errorf("%s: unprojected column c materialized: %v", name, row[0])
			}
			got = append(got, row[2].S)
			return true
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// The table scan variants emit in physical order like the full
		// query; index-driven variants emit their own (consistent)
		// orders, so compare as multisets via sorted copies.
		sortedGot := append([]string(nil), got...)
		sortedWant := append([]string(nil), want...)
		sort.Strings(sortedGot)
		sort.Strings(sortedWant)
		if !sameSlices(sortedWant, sortedGot) {
			t.Errorf("%s: projected scan returned %d rows, full scan %d", name, len(got), len(want))
		}
	}
}

// TestParallelEarlyStop checks that returning false from the row
// callback stops a fanned-out scan's emission: the rows seen are exactly
// a prefix of the one-worker result.
func TestParallelEarlyStop(t *testing.T) {
	db := buildTestDB(t, 4000, 7, 0)
	q := NewQuery(Between(1, value.NewInt(5), value.NewInt(30)))
	full := collectVia(t, func(fn RowFunc) error { return scanVia(db.tbl, MethodTableScan, nil, nil, q, 1, fn) })
	if len(full) < 10 {
		t.Fatalf("fixture too selective: %d rows", len(full))
	}
	const limit = 7
	var got []string
	err := scanVia(db.tbl, MethodTableScan, nil, nil, q, 4, func(_ heap.RID, row value.Row) bool {
		got = append(got, row[2].S)
		return len(got) < limit
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameSlices(full[:limit], got) {
		t.Errorf("early stop emitted %v, want prefix %v", got, full[:limit])
	}
}

// TestParallelCMScanRejectsUncovered: the CM scan refuses a query that
// predicates none of the CM's columns before any worker starts.
func TestParallelCMScanRejectsUncovered(t *testing.T) {
	db := buildTestDB(t, 1000, 3, 0)
	q := NewQuery(Eq(0, value.NewInt(1))) // predicate on c only, not the CM's u
	err := scanVia(db.tbl, MethodCM, nil, db.cm, q, 4, func(heap.RID, value.Row) bool { return true })
	if err == nil {
		t.Fatal("expected error for query not covering the CM")
	}
}

// TestRunTasksError checks the pool propagates the first error and stops
// scheduling.
func TestRunTasksError(t *testing.T) {
	boom := fmt.Errorf("boom")
	err := runTasks(nil, 4, 100, func(i int) error {
		if i == 10 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v, want boom", err)
	}
}

// TestChunkSlices checks partitioning covers [0, n) without overlap.
func TestChunkSlices(t *testing.T) {
	for _, tc := range [][2]int{{10, 3}, {3, 10}, {1, 1}, {16, 4}, {7, 8}} {
		chunks := chunkSlices(tc[0], tc[1])
		at := 0
		for _, ch := range chunks {
			if ch[0] != at {
				t.Fatalf("chunkSlices(%d,%d): gap at %d: %v", tc[0], tc[1], at, chunks)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("chunkSlices(%d,%d): empty chunk: %v", tc[0], tc[1], chunks)
			}
			at = ch[1]
		}
		if at != tc[0] {
			t.Fatalf("chunkSlices(%d,%d): covers %d, want %d", tc[0], tc[1], at, tc[0])
		}
	}
}

// scanVia runs q through access method m the way internal/plan composes
// a leg of that method: the page set the method resolves to — the whole
// heap, the pages of ix's matching RIDs (IndexPages), of cm's buckets
// (ProbeCM) or of the clustered buckets (ProbeClustered) — swept by
// SweepTuples with each survivor decoded (DecodeTo), or, for a pipelined
// scan, ix probed by PipelinedTuples. ix serves the two index methods
// and cm the CM scan; the others ignore them. A CM sweep counts against
// the CM's health gauges, as the plan's does. A clustered scan of a
// query that does not predicate the clustering column, which the planner
// never sends this way, sweeps the pages of every clustered bucket, as a
// key range open at both ends would.
func scanVia(tbl *table.Table, m Method, ix *table.Index, cm *core.CM, q Query, workers int, fn RowFunc) error {
	oq := q.asOr()
	emit := DecodeTo(tbl.Schema(), oq, fn)
	var pages []int64
	switch m {
	case MethodTableScan:
		return SweepTuples(tbl, oq, WholeHeap(tbl), workers, emit)
	case MethodPipelined:
		return PipelinedTuples(tbl, ix, q, emit)
	case MethodSorted:
		var err error
		if pages, err = IndexPages(ix, q, workers); err != nil {
			return err
		}
	case MethodCM:
		probe, ok, err := ProbeCM(tbl, cm, q)
		if !ok {
			return ErrCMNotApplicable
		}
		if err != nil {
			return err
		}
		var done func()
		oq.Obs, done = probe.SweepObs(q.Obs)
		defer done()
		pages = probe.Pages
	case MethodClustered:
		probe, ok := ProbeClustered(tbl, q)
		if !ok {
			dir := tbl.PageDir()
			for b := int32(0); int(b) <= tbl.Buckets().NumBuckets(); b++ {
				probe.Pages = dir.AppendPages(probe.Pages, b)
			}
		}
		pages = probe.Pages
	default:
		return fmt.Errorf("scanVia: unknown method %v", m)
	}
	return SweepTuples(tbl, oq, PageList(pages), workers, emit)
}

// TestClusteredScanMatchesTableScan holds the clustered-index scan to
// the table scan's exact output — same rows, same physical order — for
// Eq/IN/range predicates on the clustering column at every worker
// count, before and after churn that leaves live versions at the heap
// tail (outside their clustered buckets' page ranges) and dead versions
// in place.
func TestClusteredScanMatchesTableScan(t *testing.T) {
	db := buildTestDB(t, 6000, 42, 0)
	queries := []Query{
		NewQuery(Eq(0, value.NewInt(137))),
		NewQuery(In(0, value.NewInt(3), value.NewInt(250), value.NewInt(251), value.NewInt(3), value.NewInt(499))),
		NewQuery(Between(0, value.NewInt(40), value.NewInt(90))),
		NewQuery(Gt(0, value.NewInt(480)), Ne(1, value.NewInt(49))),
		NewQuery(Le(0, value.NewInt(12)), In(1, value.NewInt(0), value.NewInt(1))),
		NewQuery(Eq(0, value.NewInt(-5))), // below every key: matches nothing
	}
	check := func(stage string) {
		t.Helper()
		for qi, q := range queries {
			want := collectVia(t, func(fn RowFunc) error { return scanVia(db.tbl, MethodTableScan, nil, nil, q, 1, fn) })
			if qi < 5 && len(want) == 0 {
				t.Fatalf("%s q%d matched nothing; fixture broken", stage, qi)
			}
			for _, w := range []int{1, 2, 4, 8} {
				got := collectVia(t, func(fn RowFunc) error { return scanVia(db.tbl, MethodClustered, nil, nil, q, w, fn) })
				if !sameSlices(want, got) {
					t.Errorf("%s q%d workers %d: clustered (%d rows) != table scan (%d rows)", stage, qi, w, len(got), len(want))
				}
			}
		}
	}
	check("loaded")
	churn(t, db)
	check("churned")
}

// TestClusteredScanCompositePrefix runs the clustered path over a
// two-column clustering key: equality on the leading column, equality
// plus a range on the second, an IN on the leading column (which ends
// the usable prefix), and a range on the leading column alone.
func TestClusteredScanCompositePrefix(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 512)
	sch := table.NewSchema(
		table.Column{Name: "region", Kind: value.String},
		table.Column{Name: "day", Kind: value.Int},
		table.Column{Name: "payload", Kind: value.String},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "north", "south", "west"}
	var rows []value.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, value.Row{
			value.NewString(regions[i%len(regions)]), value.NewInt(int64(i / 200)),
			value.NewString(fmt.Sprintf("row-%d", i)),
		})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		NewQuery(Eq(0, value.NewString("north"))),
		NewQuery(Eq(0, value.NewString("south")), Between(1, value.NewInt(10), value.NewInt(20))),
		NewQuery(In(0, value.NewString("east"), value.NewString("west")), Eq(1, value.NewInt(33))),
		NewQuery(Ge(0, value.NewString("o")), Lt(1, value.NewInt(5))),
	}
	for qi, q := range queries {
		want := collectVia(t, func(fn RowFunc) error { return scanVia(tbl, MethodTableScan, nil, nil, q, 1, fn) })
		if len(want) == 0 {
			t.Fatalf("q%d matched nothing; fixture broken", qi)
		}
		for _, w := range []int{1, 4} {
			got := collectVia(t, func(fn RowFunc) error { return scanVia(tbl, MethodClustered, nil, nil, q, w, fn) })
			if !sameSlices(want, got) {
				t.Errorf("q%d workers %d: clustered (%d rows) != table scan (%d rows)", qi, w, len(got), len(want))
			}
		}
	}
}
