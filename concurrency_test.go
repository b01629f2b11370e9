// Concurrency stress tests: readers on every access method race
// inserts, updates, deletes and commits on one table, asserting no lost
// rows (stable rows always all visible) and no phantoms (volatile rows
// are seen zero or one time, never partially applied, never
// duplicated). Run with -race; the suite is sized to finish quickly
// under it.
package repro

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

const (
	stableUs      = 40  // distinct stable u values
	rowsPerU      = 25  // stable rows per u value
	volatileUBase = 500 // volatile rows use u >= volatileUBase
)

// buildStressDB loads a correlated table (c determines u) with a
// secondary index and a CM on u, so all five access paths apply.
func buildStressDB(t testing.TB, workers int) (*DB, *Table) {
	t.Helper()
	db := Open(Config{Workers: workers})
	tbl, err := db.CreateTable(TableSpec{
		Name: "stress",
		Columns: []Column{
			{Name: "c", Kind: Int},
			{Name: "u", Kind: Int},
			{Name: "tag", Kind: String},
		},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 0, stableUs*rowsPerU)
	for u := 0; u < stableUs; u++ {
		for i := 0; i < rowsPerU; i++ {
			// c determines u (hard FD) so the CM is small and selective.
			c := int64(u*rowsPerU + i)
			rows = append(rows, Row{IntVal(c), IntVal(int64(u)), StringVal(fmt.Sprintf("s-%d-%d", u, i))})
		}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("u_idx", "u"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

// stressMethods is every forcible access path; the fault and chaos
// suites loop over it too.
var stressMethods = []AccessMethod{TableScan, SortedIndexScan, PipelinedIndexScan, CMScan, ClusteredIndexScan}

// stressPreds selects the rows carrying u, phrased so the given method
// can drive the query. The clustered-index scan needs a predicate on
// the clustering column, and c determines u: stable rows of u occupy
// c in [u*rowsPerU, (u+1)*rowsPerU), every volatile row (u >=
// volatileUBase) has c >= stableUs*rowsPerU — so the clustered path
// gets that c range beside the u predicate and must return the same
// rows.
func stressPreds(method AccessMethod, u int64) []Pred {
	preds := []Pred{Eq("u", IntVal(u))}
	if method != ClusteredIndexScan {
		return preds
	}
	if u >= volatileUBase {
		return append(preds, Ge("c", IntVal(stableUs*rowsPerU)))
	}
	return append(preds, Between("c", IntVal(u*rowsPerU), IntVal((u+1)*rowsPerU-1)))
}

// TestConcurrentReadersVsWriters races Selects on all five access
// methods against an insert/delete/commit writer. Every read of a
// stable u must see exactly rowsPerU rows, and every read of a volatile
// u must see 0 or 1 rows — nothing lost, nothing phantom.
func TestConcurrentReadersVsWriters(t *testing.T) {
	db, tbl := buildStressDB(t, 4)
	_ = db

	const (
		readers        = 4
		readsPerReader = 60
		writerOps      = 150
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	// Writer: churn volatile rows (insert, commit, delete, commit).
	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for k := 0; k < writerOps; k++ {
			u := int64(volatileUBase + k%7)
			c := int64(stableUs*rowsPerU + k%13)
			if err := tbl.Insert(Row{IntVal(c), IntVal(u), StringVal("v")}); err != nil {
				writerErr <- err
				return
			}
			if k%5 == 0 {
				if err := tbl.Commit(); err != nil {
					writerErr <- err
					return
				}
			}
			if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(u)), Eq("c", IntVal(c))); err != nil {
				writerErr <- err
				return
			}
		}
		if err := tbl.Commit(); err != nil {
			writerErr <- err
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader && !stop.Load(); i++ {
				method := stressMethods[(r+i)%len(stressMethods)]

				// Stable slice: must always be fully visible.
				u := int64((r*7 + i) % stableUs)
				n := 0
				err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: method, Preds: stressPreds(method, u)}, func(row Row) bool {
					if row[1].Int() != u {
						t.Errorf("%v: row with u=%d in result for u=%d", method, row[1].Int(), u)
					}
					n++
					return true
				})
				if err != nil {
					t.Errorf("%v: %v", method, err)
					return
				}
				if n != rowsPerU {
					t.Errorf("%v: stable u=%d returned %d rows, want %d (lost or phantom rows)", method, u, n, rowsPerU)
					return
				}

				// Volatile slice: each (c,u) pair exists 0 or 1 times.
				vu := int64(volatileUBase + i%7)
				seen := map[string]int{}
				err = db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: method, Preds: stressPreds(method, vu)}, func(row Row) bool {
					seen[row[0].String()]++
					return true
				})
				if err != nil {
					t.Errorf("%v volatile: %v", method, err)
					return
				}
				for c, cnt := range seen {
					if cnt > 1 {
						t.Errorf("%v: volatile row c=%s seen %d times (duplicate)", method, c, cnt)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}

	// Quiesced: the table must be exactly the stable rows again.
	if got := tbl.RowCount(); got != int64(stableUs*rowsPerU) {
		t.Fatalf("final row count %d, want %d", got, stableUs*rowsPerU)
	}
}

// TestConcurrentUpdatesVsReaders is the mixed update/delete/scan
// stress: one writer churns — inserting volatile rows, rewriting their
// tags with UPDATE, retagging whole stable slices, deleting the
// volatile rows — while snapshot readers on all five access methods
// assert stable slices stay exactly complete (no lost rows, no
// phantoms, no half-applied update) and volatile rows are never
// duplicated. Run with -race.
func TestConcurrentUpdatesVsReaders(t *testing.T) {
	db, tbl := buildStressDB(t, 4)

	const (
		readers        = 4
		readsPerReader = 50
		writerOps      = 60
	)
	var stop atomic.Bool
	var wg sync.WaitGroup

	wg.Add(1)
	writerErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		fail := func(err error) bool {
			if err != nil {
				writerErr <- err
				return true
			}
			return false
		}
		for k := 0; k < writerOps; k++ {
			vu := int64(volatileUBase + k%5)
			c := int64(stableUs*rowsPerU + k%11)
			if fail(tbl.Insert(Row{IntVal(c), IntVal(vu), StringVal("v0")})) {
				return
			}
			// Rewrite the volatile row in place (same u, new tag).
			if _, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "tag", Val: StringVal("v1")}}, Eq("u", IntVal(vu)), Eq("c", IntVal(c))); fail(err) {
				return
			}
			// Retag an entire stable slice: readers must see the whole
			// slice before or after, never a torn mix losing rows.
			su := int64(k % stableUs)
			if _, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "tag", Val: StringVal(fmt.Sprintf("gen-%d", k))}}, Eq("u", IntVal(su))); fail(err) {
				return
			}
			if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(vu)), Eq("c", IntVal(c))); fail(err) {
				return
			}
			if k%8 == 0 && fail(tbl.Commit()) {
				return
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < readsPerReader && !stop.Load(); i++ {
				method := stressMethods[(r+i)%len(stressMethods)]
				u := int64((r*5 + i) % stableUs)
				n := 0
				err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: method, Preds: stressPreds(method, u)}, func(row Row) bool {
					if row[1].Int() != u {
						t.Errorf("%v: row with u=%d in result for u=%d", method, row[1].Int(), u)
					}
					n++
					return true
				})
				if err != nil {
					t.Errorf("%v: %v", method, err)
					return
				}
				if n != rowsPerU {
					t.Errorf("%v: stable u=%d returned %d rows during update churn, want %d", method, u, n, rowsPerU)
					return
				}

				vu := int64(volatileUBase + i%5)
				seen := map[string]int{}
				if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: method, Preds: stressPreds(method, vu)}, func(row Row) bool {
					seen[row[0].String()]++
					return true
				}); err != nil {
					t.Errorf("%v volatile: %v", method, err)
					return
				}
				for c, cnt := range seen {
					if cnt > 1 {
						t.Errorf("%v: volatile row c=%s seen %d times (duplicate version)", method, c, cnt)
					}
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-writerErr:
		t.Fatalf("writer: %v", err)
	default:
	}

	// Quiesced: exactly the stable rows remain, and a full-slice read on
	// each method agrees.
	if got := tbl.RowCount(); got != int64(stableUs*rowsPerU) {
		t.Fatalf("final row count %d, want %d", got, stableUs*rowsPerU)
	}
	for _, m := range stressMethods {
		n := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Via: m, Preds: stressPreds(m, 1)}))
		if n != rowsPerU {
			t.Fatalf("%v: quiesced u=1 has %d rows, want %d", m, n, rowsPerU)
		}
	}
}

// TestSelectManyDuringWrites (named for the batch door SelectSpec
// replaced) runs rounds of twelve concurrent queries, one per goroutine
// across every forced access method, beside a writer: every result over
// stable values must be complete.
func TestSelectManyDuringWrites(t *testing.T) {
	db, tbl := buildStressDB(t, 8)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for k := 0; k < 120; k++ {
			u := int64(volatileUBase + k%3)
			if err := tbl.Insert(Row{IntVal(int64(stableUs*rowsPerU + k)), IntVal(u), StringVal("v")}); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.DeleteCtx(context.Background(), "stress", Eq("u", IntVal(u))); err != nil {
				t.Error(err)
				return
			}
			if k%10 == 0 {
				if err := tbl.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}()

	for round := 0; round < 15 && !stop.Load(); round++ {
		var batch sync.WaitGroup
		for i := 0; i < 12; i++ {
			via := stressMethods[i%len(stressMethods)]
			spec := QuerySpec{Table: "stress", Via: via, Preds: stressPreds(via, int64((round+i)%stableUs))}
			batch.Add(1)
			go func() {
				defer batch.Done()
				rows, err := selectRows(db, spec)
				if err != nil {
					t.Errorf("spec %d: %v", i, err)
				} else if len(rows) != rowsPerU {
					t.Errorf("spec %d (%v): got %d rows, want %d", i, via, len(rows), rowsPerU)
				}
			}()
		}
		batch.Wait()
	}
	wg.Wait()
}

// TestSelectManyUnknownTable (named for the batch door SelectSpec
// replaced) pins that every statement door naming a missing table
// returns an error, not a panic.
func TestSelectManyUnknownTable(t *testing.T) {
	db, _ := buildStressDB(t, 2)
	if _, err := selectRows(db, QuerySpec{Table: "absent"}); err == nil {
		t.Error("query on unknown table accepted")
	}
	if _, err := db.UpdateCtx(context.Background(), "absent", nil); err == nil {
		t.Error("update on unknown table accepted")
	}
	if _, err := db.DeleteCtx(context.Background(), "absent"); err == nil {
		t.Error("delete on unknown table accepted")
	}
	if _, err := db.ExplainSpec(QuerySpec{Table: "absent"}); err == nil {
		t.Error("explain on unknown table accepted")
	}
}

// TestConcurrentTablesShareEngine runs readers and writers on two
// tables of one DB concurrently: the shared pool, disk and WAL must not
// race, and per-table latches must not interfere across tables.
func TestConcurrentTablesShareEngine(t *testing.T) {
	db := Open(Config{Workers: 4, BufferPoolPages: 128})
	mk := func(name string) *Table {
		tbl, err := db.CreateTable(TableSpec{
			Name: name,
			Columns: []Column{
				{Name: "c", Kind: Int},
				{Name: "u", Kind: Int},
			},
			ClusteredBy: []string{"c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 600)
		for i := range rows {
			rows[i] = Row{IntVal(int64(i)), IntVal(int64(i / 20))}
		}
		if err := tbl.Load(rows); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateCM(name+"_cm", CMColumn{Name: "u"}); err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	a, b := mk("ta"), mk("tb")

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for k := 0; k < 80; k++ {
				if err := a.Insert(Row{IntVal(int64(600 + k)), IntVal(999)}); err != nil {
					t.Error(err)
					return
				}
				if err := a.Commit(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for k := 0; k < 80; k++ {
				n := 0
				err := b.db.SelectSpec(context.Background(), QuerySpec{Table: b.Name(), Via: CMScan, Preds: []Pred{Eq("u", IntVal(7))}}, func(Row) bool { n++; return true })
				if err != nil {
					t.Error(err)
					return
				}
				if n != 20 {
					t.Errorf("table b: got %d rows for u=7, want 20", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestWorkersConfig checks the worker default and override plumbing.
func TestWorkersConfig(t *testing.T) {
	if got := Open(Config{}).Workers(); got < 1 {
		t.Errorf("default workers = %d, want >= 1", got)
	}
	if got := Open(Config{Workers: 3}).Workers(); got != 3 {
		t.Errorf("workers = %d, want 3", got)
	}
}
