package exec

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/buffer"
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

// TestParallelMatchesSerial checks that every parallel executor returns
// exactly the serial executor's rows, in the same (physical) order, for
// point, IN and range predicates across worker counts.
func TestParallelMatchesSerial(t *testing.T) {
	db := buildTestDB(t, 6000, 42, 0)
	queries := []Query{
		NewQuery(Eq(1, value.NewInt(17))),
		NewQuery(In(1, value.NewInt(3), value.NewInt(25), value.NewInt(44))),
		NewQuery(Between(1, value.NewInt(10), value.NewInt(14))),
		NewQuery(In(1, value.NewInt(7), value.NewInt(31)), Ge(0, value.NewInt(50))),
	}
	for qi, q := range queries {
		serialTS := collectVia(t, func(fn RowFunc) error { return TableScan(db.tbl, q, fn) })
		serialSI := collectVia(t, func(fn RowFunc) error { return SortedIndexScan(db.tbl, db.ix, q, fn) })
		serialCM := collectVia(t, func(fn RowFunc) error { return CMScan(db.tbl, db.cm, q, fn) })
		for _, w := range []int{1, 2, 4, 9} {
			t.Run(fmt.Sprintf("q%d/workers%d", qi, w), func(t *testing.T) {
				gotTS := collectVia(t, func(fn RowFunc) error { return ParallelTableScan(db.tbl, q, w, fn) })
				if !sameSlices(serialTS, gotTS) {
					t.Errorf("table scan: parallel (%d rows) != serial (%d rows)", len(gotTS), len(serialTS))
				}
				gotSI := collectVia(t, func(fn RowFunc) error { return ParallelSortedIndexScan(db.tbl, db.ix, q, w, fn) })
				if !sameSlices(serialSI, gotSI) {
					t.Errorf("sorted index scan: parallel (%d rows) != serial (%d rows)", len(gotSI), len(serialSI))
				}
				gotCM := collectVia(t, func(fn RowFunc) error { return ParallelCMScan(db.tbl, db.cm, q, w, fn) })
				if !sameSlices(serialCM, gotCM) {
					t.Errorf("cm scan: parallel (%d rows) != serial (%d rows)", len(gotCM), len(serialCM))
				}
			})
		}
	}
}

// TestBatchedIndexScanMatchesPipelined checks the batched async probe
// emits exactly the serial pipelined scan's rows in the same (index key)
// order, across worker counts, for point, IN and range probes.
func TestBatchedIndexScanMatchesPipelined(t *testing.T) {
	db := buildTestDB(t, 6000, 21, 0)
	queries := []Query{
		NewQuery(Eq(1, value.NewInt(17))),
		NewQuery(In(1, value.NewInt(3), value.NewInt(25), value.NewInt(44))),
		NewQuery(Between(1, value.NewInt(10), value.NewInt(14))),
		NewQuery(In(1, value.NewInt(7), value.NewInt(31)), Ge(0, value.NewInt(50))),
	}
	for qi, q := range queries {
		serial := collectVia(t, func(fn RowFunc) error { return PipelinedIndexScan(db.tbl, db.ix, q, fn) })
		if qi < 3 && len(serial) == 0 {
			t.Fatalf("q%d matched nothing; fixture broken", qi)
		}
		for _, w := range []int{1, 2, 4, 9} {
			got := collectVia(t, func(fn RowFunc) error { return BatchedIndexScan(db.tbl, db.ix, q, w, fn) })
			if !sameSlices(serial, got) {
				t.Errorf("q%d workers %d: batched (%d rows) != pipelined (%d rows)", qi, w, len(got), len(serial))
			}
		}
	}
}

// TestBatchedIndexScanEarlyStop checks LIMIT-style early stops emit
// exactly a prefix of the serial pipelined result. The IN list fans out
// into multiple probe ranges, so this exercises the batched path (a
// single range would fall back to the serial iterator).
func TestBatchedIndexScanEarlyStop(t *testing.T) {
	db := buildTestDB(t, 4000, 13, 0)
	q := NewQuery(In(1, value.NewInt(5), value.NewInt(9), value.NewInt(14),
		value.NewInt(21), value.NewInt(28), value.NewInt(30)))
	full := collectVia(t, func(fn RowFunc) error { return PipelinedIndexScan(db.tbl, db.ix, q, fn) })
	if len(full) < 10 {
		t.Fatalf("fixture too selective: %d rows", len(full))
	}
	for _, limit := range []int{1, 7} {
		var got []string
		err := BatchedIndexScan(db.tbl, db.ix, q, 4, func(_ heap.RID, row value.Row) bool {
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

// TestProjectionPushdownAcrossMethods checks that a query with Proj set
// returns the same projected + predicated entries as a full query, on
// every access method, serial and parallel, and leaves unreferenced
// entries unmaterialized.
func TestProjectionPushdownAcrossMethods(t *testing.T) {
	db := buildTestDB(t, 3000, 31, 0)
	full := NewQuery(In(1, value.NewInt(5), value.NewInt(19)))
	proj := full
	proj.Proj = []int{2} // payload only; u rides along as the predicate column
	want := collectVia(t, func(fn RowFunc) error { return TableScan(db.tbl, full, fn) })
	if len(want) == 0 {
		t.Fatal("fixture query matched nothing")
	}
	methods := map[string]func(fn RowFunc) error{
		"tablescan":          func(fn RowFunc) error { return TableScan(db.tbl, proj, fn) },
		"pipelined":          func(fn RowFunc) error { return PipelinedIndexScan(db.tbl, db.ix, proj, fn) },
		"sorted":             func(fn RowFunc) error { return SortedIndexScan(db.tbl, db.ix, proj, fn) },
		"cm":                 func(fn RowFunc) error { return CMScan(db.tbl, db.cm, proj, fn) },
		"parallel-tablescan": func(fn RowFunc) error { return ParallelTableScan(db.tbl, proj, 4, fn) },
		"batched-probe":      func(fn RowFunc) error { return BatchedIndexScan(db.tbl, db.ix, proj, 4, fn) },
		"parallel-sorted":    func(fn RowFunc) error { return ParallelSortedIndexScan(db.tbl, db.ix, proj, 4, fn) },
		"parallel-cm":        func(fn RowFunc) error { return ParallelCMScan(db.tbl, db.cm, proj, 4, fn) },
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
// callback stops emission: the rows seen are exactly a prefix of the
// serial result.
func TestParallelEarlyStop(t *testing.T) {
	db := buildTestDB(t, 4000, 7, 0)
	q := NewQuery(Between(1, value.NewInt(5), value.NewInt(30)))
	full := collectVia(t, func(fn RowFunc) error { return TableScan(db.tbl, q, fn) })
	if len(full) < 10 {
		t.Fatalf("fixture too selective: %d rows", len(full))
	}
	const limit = 7
	var got []string
	err := ParallelTableScan(db.tbl, q, 4, func(_ heap.RID, row value.Row) bool {
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

// TestParallelCMScanRejectsUncovered mirrors the serial CMScan contract.
func TestParallelCMScanRejectsUncovered(t *testing.T) {
	db := buildTestDB(t, 1000, 3, 0)
	q := NewQuery(Eq(0, value.NewInt(1))) // predicate on c only, not the CM's u
	err := ParallelCMScan(db.tbl, db.cm, q, 4, func(heap.RID, value.Row) bool { return true })
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

// clusteredPlan is the clustered-index scan of tbl as the planner
// dispatches it: the sorted-scan executor over the clustered index.
func clusteredPlan(db *testDB) Plan {
	return Plan{Method: MethodClustered, Index: db.tbl.Clustered()}
}

// TestClusteredScanMatchesTableScan holds the clustered-index scan to
// the table scan's exact output — same rows, same physical order — for
// Eq/IN/range predicates on the clustering column, serial and at every
// worker count, before and after churn that leaves live versions at the
// heap tail (outside their clustered buckets' page ranges) and dead
// versions in place.
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
			want := collectVia(t, func(fn RowFunc) error { return TableScan(db.tbl, q, fn) })
			if qi < 5 && len(want) == 0 {
				t.Fatalf("%s q%d matched nothing; fixture broken", stage, qi)
			}
			serial := collectVia(t, func(fn RowFunc) error { return clusteredPlan(db).Run(db.tbl, q, fn) })
			if !sameSlices(want, serial) {
				t.Errorf("%s q%d: clustered serial (%d rows) != table scan (%d rows)", stage, qi, len(serial), len(want))
			}
			for _, w := range []int{1, 2, 4, 8} {
				got := collectVia(t, func(fn RowFunc) error { return clusteredPlan(db).RunParallel(db.tbl, q, w, fn) })
				if !sameSlices(want, got) {
					t.Errorf("%s q%d workers %d: clustered (%d rows) != table scan (%d rows)", stage, qi, w, len(got), len(want))
				}
			}
		}
	}
	check("loaded")

	// Churn as one writer statement each: inserts land at the heap
	// tail, updates end a version in place and append its successor,
	// deletes leave dead versions behind.
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
	if err := TableScan(db.tbl, NewQuery(Between(0, value.NewInt(45), value.NewInt(60))), func(rid heap.RID, row value.Row) bool {
		if row[0].I%2 == 0 {
			olds = append(olds, rid)
			moved := row.Clone()
			moved[0] = value.NewInt(row[0].I + 200) // the clustering key itself moves
			news = append(news, moved)
		} else {
			dead = append(dead, rid)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(olds) == 0 || len(dead) == 0 {
		t.Fatal("churn slice empty; fixture broken")
	}
	write(func(tx *table.WriteTxn) error { return tx.UpdateBatch(olds, news) })
	write(func(tx *table.WriteTxn) error { return tx.DeleteBatch(dead) })
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
	db := &testDB{tbl: tbl}
	queries := []Query{
		NewQuery(Eq(0, value.NewString("north"))),
		NewQuery(Eq(0, value.NewString("south")), Between(1, value.NewInt(10), value.NewInt(20))),
		NewQuery(In(0, value.NewString("east"), value.NewString("west")), Eq(1, value.NewInt(33))),
		NewQuery(Ge(0, value.NewString("o")), Lt(1, value.NewInt(5))),
	}
	for qi, q := range queries {
		want := collectVia(t, func(fn RowFunc) error { return TableScan(tbl, q, fn) })
		if len(want) == 0 {
			t.Fatalf("q%d matched nothing; fixture broken", qi)
		}
		for _, w := range []int{1, 4} {
			got := collectVia(t, func(fn RowFunc) error { return clusteredPlan(db).RunParallel(tbl, q, w, fn) })
			if !sameSlices(want, got) {
				t.Errorf("q%d workers %d: clustered (%d rows) != table scan (%d rows)", qi, w, len(got), len(want))
			}
		}
		// The narrow composite probe must plan onto the clustered index
		// (the whole-region queries may rightly prefer a scan here).
		if p := ChoosePlan(tbl, q, NewExactStats()); qi == 1 && p.Method != MethodClustered {
			t.Errorf("q%d planned %v, want the clustered index", qi, p.Method)
		}
	}
}
