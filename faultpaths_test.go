// Error-path invariant tests: after an injected disk fault fails a
// statement on any access method, the engine must be reusable — the
// error is clean (wraps ErrInjected), no buffer frame stays pinned, the
// table latch is free, and follow-up reads and writes succeed with no
// rows lost.
package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/btree"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// buildFaultDB loads a correlated table (c determines u) with a
// secondary index and a CM on u, so all five access paths apply, sized
// to span a few dozen heap pages.
func buildFaultDB(t testing.TB, workers int) (*DB, *Table) {
	t.Helper()
	db := Open(Config{Workers: workers})
	tbl, err := db.CreateTable(TableSpec{
		Name: "ft",
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
	rows := make([]Row, 0, 4000)
	for c := 0; c < 4000; c++ {
		rows = append(rows, Row{IntVal(int64(c)), IntVal(int64(c / 25)), StringVal(fmt.Sprintf("row-%04d", c))})
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

// countVia counts the rows matching u BETWEEN 10 AND 40 via the method.
// The clustered-index scan is driven by the clustering column, and
// u = c/25, so it gets the same rows as a range on c beside the u
// predicate.
func countVia(tbl *Table, method AccessMethod) (int, error) {
	preds := []Pred{Between("u", IntVal(10), IntVal(40))}
	if method == ClusteredIndexScan {
		preds = append(preds, Between("c", IntVal(10*25), IntVal(41*25-1)))
	}
	rows, err := selectRows(tbl.db, QuerySpec{Table: tbl.Name(), Via: method, Preds: preds})
	return len(rows), err
}

// TestFaultPathsPerAccessMethod injects a read fault into a cold scan on
// each access method and asserts the full invariant set: clean error,
// zero pinned frames, free latch (a write goes through), and a correct
// follow-up query.
func TestFaultPathsPerAccessMethod(t *testing.T) {
	const wantRows = 31 * 25 // u in [10,40], 25 rows per u
	for _, workers := range []int{1, 4} {
		db, tbl := buildFaultDB(t, workers)
		for _, method := range stressMethods {
			t.Run(fmt.Sprintf("workers=%d/%s", workers, method), func(t *testing.T) {
				if err := db.ColdCache(); err != nil {
					t.Fatal(err)
				}
				db.SetFaultPlan(&FaultPlan{FailReadN: 2})
				_, err := countVia(tbl, method)
				db.SetFaultPlan(nil)
				if err == nil {
					t.Fatal("scan with an armed fault plan succeeded")
				}
				if !errors.Is(err, ErrInjected) {
					t.Fatalf("scan error %v does not wrap ErrInjected", err)
				}
				if pinned := db.pool.PinnedFrames(); pinned != 0 {
					t.Fatalf("%d frames left pinned after fault", pinned)
				}
				// The latch must be free: a writer statement acquires it
				// exclusively and would hang here if the failed scan leaked
				// its shared hold.
				if err := tbl.Insert(Row{IntVal(999999), IntVal(10), StringVal("probe")}); err != nil {
					t.Fatalf("insert after fault: %v", err)
				}
				if n, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("c", IntVal(999999))); err != nil || n != 1 {
					t.Fatalf("delete after fault: n=%d err=%v", n, err)
				}
				n, err := countVia(tbl, method)
				if err != nil {
					t.Fatalf("follow-up query: %v", err)
				}
				if n != wantRows {
					t.Fatalf("follow-up query saw %d rows, want %d", n, wantRows)
				}
			})
		}
	}
}

// TestMultiRowInsertIsAtomic fails the WAL write of a three-row INSERT's
// second record: the statement fails with the injected fault and none
// of its rows lands, because all three are one writer statement.
func TestMultiRowInsertIsAtomic(t *testing.T) {
	db := Open(Config{PageSize: 1024})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "padded",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "pad", Kind: String}},
		ClusteredBy: []string{"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load([]Row{{IntVal(0), StringVal("seed")}}); err != nil {
		t.Fatal(err)
	}
	// Each row logs a 623-byte record (7 framing bytes, the table name,
	// a 610-byte row). Load logs nothing, so the first record fits the
	// log's first 1 KiB page and the second fills it: that page write is
	// the first disk write after arming, as the pool evicts nothing.
	pad := strings.Repeat("x", 600)
	stmt := fmt.Sprintf("INSERT INTO padded VALUES (1, '%s'), (2, '%s'), (3, '%s')", pad, pad, pad)
	db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
	_, err = db.Exec(stmt)
	db.SetFaultPlan(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("INSERT under a WAL write fault returned %v, want ErrInjected", err)
	}
	if n := tbl.RowCount(); n != 1 {
		t.Fatalf("%d rows after the failed INSERT, want the 1 loaded", n)
	}
	if res, err := db.Exec(stmt); err != nil || res.Affected != 3 {
		t.Fatalf("INSERT after disarming: %v, err %v", res, err)
	}
	if n := tbl.RowCount(); n != 4 {
		t.Fatalf("%d rows after the INSERT, want 4", n)
	}
}

// TestFailedPublishLogsNothing: a Publish whose WAL append fails part way
// leaves none of the statement's records in the log, so a CM recovered
// from a checkpoint taken just before the statement equals the live CM.
// On the Figure 6 fixture a relocating UPDATE of 31 cats logs more than
// one WAL page, and with every page cached that page's write is the
// first disk write after arming.
func TestFailedPublishLogsNothing(t *testing.T) {
	db, tbl := itemsFixture(t, 1)
	inner := tbl.inner
	cm := cmOn(inner, 1)
	var ckpt bytes.Buffer
	inner.LockWrite()
	lsn, err := inner.CheckpointCM(cm, &ckpt)
	inner.UnlockWrite()
	if err != nil {
		t.Fatal(err)
	}
	length := db.log.Len()
	db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
	_, err = db.Exec("UPDATE items SET subcat = 7 WHERE cat BETWEEN 300 AND 330")
	db.SetFaultPlan(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("UPDATE under a WAL write fault returned %v, want ErrInjected", err)
	}
	if got := db.log.Len(); got != length {
		t.Errorf("the failed UPDATE grew the log from %d to %d bytes", length, got)
	}
	spec := cm.Spec()
	spec.Name = "subcat_cm_recovered"
	inner.LockWrite()
	rec, err := inner.RecoverCM(spec, &ckpt, lsn)
	diff := ""
	if err == nil {
		diff = cmEntriesDiff(rec, cm)
	}
	inner.UnlockWrite()
	if err != nil || diff != "" {
		t.Fatalf("recovery from the checkpoint before the failed UPDATE: err=%v, %s", err, diff)
	}
}

// TestWALFaultFailsPublishCleanly arms a write fault so the WAL append
// inside Publish fails, and asserts the writer statement dies cleanly:
// the in-memory table, indexes and CMs keep their pre-statement state,
// and after disarming the same batch applies fine.
func TestWALFaultFailsPublishCleanly(t *testing.T) {
	db, tbl := buildFaultDB(t, 1)
	before, err := countVia(tbl, TableScan)
	if err != nil {
		t.Fatal(err)
	}

	// One WAL page is 8 KiB; a few hundred inserts overflow it, forcing
	// Append to write the filled page to disk mid-Publish — the first
	// disk write after arming, since nothing else flushes here.
	batch := make([]Row, 400)
	for i := range batch {
		batch[i] = Row{IntVal(int64(100000 + i)), IntVal(17), StringVal(fmt.Sprintf("wal-fault-%03d", i))}
	}
	db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
	insertBatch := func() error {
		internal := make([]value.Row, len(batch))
		for i, r := range batch {
			internal[i] = r.internal()
		}
		tx := tbl.inner.BeginWrite()
		if err := tx.InsertBatch(internal); err != nil {
			tx.Abort()
			return err
		}
		return tx.Publish()
	}
	err = insertBatch()
	db.SetFaultPlan(nil)
	if err == nil {
		t.Fatal("publish with an armed WAL write fault succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("publish error %v does not wrap ErrInjected", err)
	}

	// Nothing from the failed statement may be visible.
	n := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Ge("c", IntVal(100000))}}))
	if n != 0 {
		t.Fatalf("failed publish leaked %d rows", n)
	}
	if got, err := countVia(tbl, TableScan); err != nil || got != before {
		t.Fatalf("pre-existing rows after failed publish: n=%d err=%v, want %d", got, err, before)
	}

	// The same batch applies cleanly once the fault is gone.
	if err := insertBatch(); err != nil {
		t.Fatalf("retry after disarm: %v", err)
	}
	n = len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Ge("c", IntVal(100000))}}))
	if n != len(batch) {
		t.Fatalf("retried batch shows %d rows, want %d", n, len(batch))
	}
}

// TestFaultDuringUpdateLeavesTableUnchanged fails an UPDATE with a
// repeating injected fault and asserts full writer-statement atomicity:
// no row changed, and the statement works after disarming. The fault
// repeats (every 3rd access) rather than firing once because a
// single-shot fault can land in the planner's statistics scan, which
// deliberately treats stats as advisory and plans without them — the
// statement itself then succeeds, which is correct fault tolerance but
// not what this test wants to exercise.
func TestFaultDuringUpdateLeavesTableUnchanged(t *testing.T) {
	db, tbl := buildFaultDB(t, 4)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.SetFaultPlan(&FaultPlan{EveryKth: 3})
	_, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "tag", Val: StringVal("mutated")}}, Between("u", IntVal(10), IntVal(40)))
	db.SetFaultPlan(nil)
	if err == nil {
		t.Fatal("update with an armed fault plan succeeded")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("update error %v does not wrap ErrInjected", err)
	}
	n := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("tag", StringVal("mutated"))}}))
	if n != 0 {
		t.Fatalf("failed update mutated %d rows", n)
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames left pinned after update fault", pinned)
	}
	changed, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "tag", Val: StringVal("mutated")}}, Between("u", IntVal(10), IntVal(40)))
	if err != nil {
		t.Fatalf("update after disarm: %v", err)
	}
	if changed != 31*25 {
		t.Fatalf("update after disarm changed %d rows, want %d", changed, 31*25)
	}
}

// faultOnCancel cancels at its polls-th Done poll, as cancelAfter does,
// and arms a one-shot read fault on db's disk at that moment, so the
// fault lands in whatever the cancelled statement does next.
type faultOnCancel struct {
	*cancelAfter
	db *DB
}

func (c faultOnCancel) Done() <-chan struct{} {
	ch := c.cancelAfter.Done()
	if c.polls == 0 {
		c.db.SetFaultPlan(&FaultPlan{FailReadN: 1})
	}
	return ch
}

// TestAbortFaultLeavesNoPhantomRow: an INSERT whose abort meets a read
// fault leaves no row behind. The statement's 300 rows go in batches of
// 128 through a 4-frame pool; its context cancels it at the second batch
// and arms a read fault as it does, so the fault fires in the abort's
// cleanup of the first batch, whose index deletes read evicted pages
// back. The error carries both the cancellation and ErrInjected; the
// table already holds its 2,000 rows, and after one more INSERT, which
// finishes the queued cleanup, every access path and cm-agg's COUNT(*)
// read 2,001 — with the spent fault plan still set and after it clears.
func TestAbortFaultLeavesNoPhantomRow(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4}, 2000)
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i * 13 % 4000)), IntVal(int64(i % 97)), IntVal(5), StringVal("aborted")}.internal()
	}
	// Polls: the statement's liveness check, then one per batch.
	err := tbl.insertRows(faultOnCancel{newCancelAfter(3), db}, rows)
	if !errors.Is(err, context.Canceled) || !errors.Is(err, ErrInjected) {
		t.Fatalf("the cancelled INSERT returned %v, want the cancellation joined with the cleanup's ErrInjected", err)
	}
	if n := db.disk.Stats().InjectedFaults; n != 1 {
		t.Errorf("%d faults fired, want the cleanup's one", n)
	}
	if n := db.pool.PinnedFrames(); n != 0 {
		t.Errorf("%d frames pinned after the abort", n)
	}
	if n := tbl.RowCount(); n != 2000 {
		t.Fatalf("RowCount reads %d after the abort, want 2000", n)
	}
	counts := func(stage string, want int) {
		t.Helper()
		for _, m := range stressMethods {
			got, err := selectRows(db, QuerySpec{Table: "items", Via: m, Preds: []Pred{Ge("subcat", IntVal(0)), Ge("cat", IntVal(0))}})
			if err != nil || len(got) != want {
				t.Errorf("%s: %s returned %d rows (%v), want %d", stage, m, len(got), err, want)
			}
		}
		res, err := db.Exec("SELECT COUNT(*) FROM items")
		if err != nil || res.Rows[0][0].Int() != int64(want) {
			t.Errorf("%s: cm-agg COUNT(*) read %v (%v), want %d", stage, res.Rows, err, want)
		}
		if n := tbl.RowCount(); n != int64(want) {
			t.Errorf("%s: RowCount reads %d, want %d", stage, n, want)
		}
	}
	counts("after the abort", 2000)
	if _, err := db.Exec("INSERT INTO items VALUES (4001, 7, 5, 'after')"); err != nil {
		t.Fatal(err)
	}
	counts("after one more INSERT", 2001)
	db.SetFaultPlan(nil)
	counts("with the fault plan cleared", 2001)
	if info, err := db.ExplainSpec(QuerySpec{Table: "items", Aggs: []Agg{{Func: Count}}}); err != nil || info.Nodes[0].Kind != "cm-agg" {
		t.Errorf("COUNT(*) plans %+v (%v), want cm-agg", info.Nodes, err)
	}
}

// TestInsertsAfterAFailedEviction runs single-row INSERTs through a
// 4-frame pool with a write fault armed at each disk write in turn. A
// fault in the eviction that would make room for a new heap page fails
// that INSERT; it must leave no page behind, so the clean INSERTs after
// it succeed and every row that was acknowledged is there.
func TestInsertsAfterAFailedEviction(t *testing.T) {
	for n := int64(1); n <= 120; n++ {
		db, tbl := itemsTable(t, Config{BufferPoolPages: 4, PageSize: 1024}, 2000)
		rows := tbl.RowCount()
		insert := func(i int) error {
			cat := i * 37 % 4000
			_, err := db.Exec(fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %d, '%s')", cat, cat/8, i, strings.Repeat("y", 150)))
			if err == nil {
				rows++
			}
			return err
		}
		db.SetFaultPlan(&FaultPlan{FailWriteN: n})
		var failed error
		for i := 0; i < 40 && failed == nil; i++ {
			failed = insert(i)
		}
		db.SetFaultPlan(nil)
		if failed != nil && !errors.Is(failed, ErrInjected) {
			t.Fatalf("write %d: INSERT failed with %v, want ErrInjected", n, failed)
		}
		for i := 40; i < 60; i++ {
			if err := insert(i); err != nil {
				t.Fatalf("write %d: clean INSERT %d after the fault (%v): %v", n, i, failed, err)
			}
		}
		if got := tbl.RowCount(); got != rows {
			t.Fatalf("write %d: %d rows, want %d", n, got, rows)
		}
		if p := db.pool.PinnedFrames(); p != 0 {
			t.Fatalf("write %d: %d frames pinned", n, p)
		}
	}
}

// treeKeys lists a B+Tree's keys in order.
func treeKeys(t *testing.T, tree *btree.Tree) [][]byte {
	t.Helper()
	var keys [][]byte
	it, err := tree.SeekGE(nil)
	for ; err == nil && it.Valid(); err = it.Next() {
		keys = append(keys, bytes.Clone(it.Key()))
	}
	if err != nil {
		t.Fatal(err)
	}
	return keys
}

// rebuildDiff holds the table to what a rebuild from its heap leaves:
// the page directory (table.Table.RebuildPageDirectory), each index's
// entries against an index built now over the same columns
// (btree.Build over a scan), and each CM's entries against a CM filled
// from a scan: keys, buckets, counts, sums, and the extremes of every
// pair no retraction has marked dirty — a retracted extreme stays dirty
// (core.CM.PairDirty), so a checkpoint's bytes differ from a rebuild's
// there alone. It describes the first difference ("" when none).
func rebuildDiff(t *testing.T, inner *table.Table) string {
	t.Helper()
	if d := dirDiff(inner); d != "" {
		return "directory: " + d
	}
	for _, ix := range inner.Indexes() {
		live := treeKeys(t, ix.Tree)
		fresh, err := inner.CreateIndex(ix.Name+"_rebuilt", ix.Cols)
		if err != nil {
			return err.Error()
		}
		if want := treeKeys(t, fresh.Tree); !slices.EqualFunc(live, want, bytes.Equal) {
			return fmt.Sprintf("index %s: %d entries, a rebuild has %d", ix.Name, len(live), len(want))
		}
	}
	for _, cm := range inner.CMs() {
		scratch := core.New(cm.Spec())
		if err := inner.Scan(nil, func(_ heap.RID, row value.Row) bool {
			scratch.AddRow(row, inner.ClusterBucketFor(row))
			return true
		}); err != nil {
			return err.Error()
		}
		if d := cmEntriesDiff(cm, scratch); d != "" {
			return fmt.Sprintf("CM %s: %s", cm.Spec().Name, d)
		}
	}
	return ""
}

// TestAbortFaultSweepEqualsRebuild cancels a statement after its first
// 128-row batch — an INSERT, an in-place UPDATE of price, and an UPDATE
// of subcat, which relocates its rows, each over rows spread across the
// heap — and, from a cold pool, fails its abort at read 1, 2, … until an
// abort reads no page more. At every fault point the
// latest state reads as before the statement; once the next writer has
// drained the queued cleanup, the directory, every index and every CM
// equal a rebuild from the heap (rebuildDiff).
func TestAbortFaultSweepEqualsRebuild(t *testing.T) {
	const n = 300
	news := make([]value.Row, n)
	for i := range news {
		news[i] = Row{IntVal(int64(i * 13 % 4000)), IntVal(int64(i % 97)), IntVal(5), StringVal("aborted")}.internal()
	}
	kinds := []struct {
		name string
		run  func(tx *table.WriteTxn, olds *table.Images) error
	}{
		{"insert", func(tx *table.WriteTxn, _ *table.Images) error { return tx.InsertBatch(news) }},
		{"in-place update", func(tx *table.WriteTxn, olds *table.Images) error {
			return tx.UpdateBatch(olds, func(_ int, row value.Row) { row[2] = value.NewInt(1) })
		}},
		{"relocating update", func(tx *table.WriteTxn, olds *table.Images) error {
			return tx.UpdateBatch(olds, func(_ int, row value.Row) { row[1] = value.NewInt(row[1].I + 1) })
		}},
	}
	for _, k := range kinds {
		faults := 0
		for read := int64(1); ; read++ {
			db, tbl := itemsTable(t, Config{BufferPoolPages: 4}, 2000)
			inner := tbl.inner
			before := snapDigest(t, inner, 0)
			olds := spreadImages(t, inner, n)
			tx := inner.BeginWrite()
			tx.SetContext(newCancelAfter(2))
			if err := k.run(tx, olds); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: the statement returned %v, want it cancelled at its second batch", k.name, err)
			}
			coldPool(t, db)
			db.SetFaultPlan(&FaultPlan{FailReadN: read})
			err := tx.Abort()
			db.SetFaultPlan(nil)
			fired := db.disk.Stats().InjectedFaults == 1
			if fired != errors.Is(err, ErrInjected) {
				t.Fatalf("%s, read %d: the abort returned %v with the fault fired %v", k.name, read, err, fired)
			}
			if got := snapDigest(t, inner, 0); got != before {
				t.Fatalf("%s, read %d: the latest state reads %v after the abort, %v before the statement", k.name, read, got, before)
			}
			if p := db.pool.PinnedFrames(); p != 0 {
				t.Fatalf("%s, read %d: %d frames pinned", k.name, read, p)
			}
			tx = inner.BeginWrite()
			if err := tx.Publish(); err != nil {
				t.Fatalf("%s, read %d: the next writer: %v", k.name, read, err)
			}
			if d := rebuildDiff(t, inner); d != "" {
				t.Fatalf("%s, read %d: after the drain: %s", k.name, read, d)
			}
			if !fired {
				break
			}
			faults++
		}
		if faults == 0 {
			t.Errorf("%s: the abort read no page; the sweep tested nothing", k.name)
		}
		t.Logf("%s: %d fault points", k.name, faults)
	}
}

// spreadImages returns the images of n live rows spread evenly over the
// heap, as a writer's read phase captures them.
func spreadImages(t *testing.T, inner *table.Table, n int) *table.Images {
	t.Helper()
	all, _ := liveTableRows(t, inner)
	rids := make([]heap.RID, n)
	for i := range rids {
		rids[i] = all[i*len(all)/n]
	}
	return imagesOf(t, inner, rids)
}

// coldPool writes back and drops every cached page while a writer holds
// the gate that db.ColdCache takes.
func coldPool(t *testing.T, db *DB) {
	t.Helper()
	if err := db.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.pool.Invalidate()
}

// TestPublishFaultAfterTheLogKeepsTheStatement: once the log holds a
// statement, a fault cannot fail it. A relocating UPDATE of subcat on 300
// rows publishes through a cold 4-frame pool with a read fault armed; the
// WAL append reads nothing, so the fault fires in the first delete of the
// old versions' index entries. Publish returns nil and every access path
// reads the update; the deletes wait on the queue, counted in
// table.dead_versions. Once the next writer has drained them the table
// equals a rebuild, and a CM recovered from a checkpoint taken before the
// statement and the log equals the live CM.
func TestPublishFaultAfterTheLogKeepsTheStatement(t *testing.T) {
	const n = 300
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4}, 2000)
	inner := tbl.inner
	cm := cmOn(inner, 1)
	var ckpt bytes.Buffer
	inner.LockWrite()
	lsn, err := inner.CheckpointCM(cm, &ckpt)
	inner.UnlockWrite()
	if err != nil {
		t.Fatal(err)
	}
	subcats := func(rows []Row) (sum int64) {
		for _, r := range rows {
			sum += r[1].Int()
		}
		return sum
	}
	want := subcats(mustSelect(t, db, QuerySpec{Table: "items"})) + n
	olds := spreadImages(t, inner, n)
	tx := inner.BeginWrite()
	if err := tx.UpdateBatch(olds, func(_ int, row value.Row) { row[1] = value.NewInt(row[1].I + 1) }); err != nil {
		t.Fatal(err)
	}
	coldPool(t, db)
	db.SetFaultPlan(&FaultPlan{FailReadN: 1})
	err = tx.Publish()
	db.SetFaultPlan(nil)
	if err != nil {
		t.Fatalf("Publish after its log append returned %v", err)
	}
	if f := db.disk.Stats().InjectedFaults; f != 1 {
		t.Fatalf("%d faults fired, want the index delete's one", f)
	}
	if q := metricValue(t, db, "table.dead_versions"); q != n {
		t.Errorf("table.dead_versions reads %d with the retraction queued, want %d", q, n)
	}
	for _, m := range stressMethods {
		rows, err := selectRows(db, QuerySpec{Table: "items", Via: m, Preds: []Pred{Ge("subcat", IntVal(0)), Ge("cat", IntVal(0))}})
		if err != nil || len(rows) != 2000 || subcats(rows) != want {
			t.Errorf("%s: %d rows, subcats summing to %d (%v); want 2000 rows summing to %d", m, len(rows), subcats(rows), err, want)
		}
	}
	tx = inner.BeginWrite()
	if err := tx.Publish(); err != nil {
		t.Fatalf("the next writer: %v", err)
	}
	if d := rebuildDiff(t, inner); d != "" {
		t.Fatalf("after the drain: %s", d)
	}
	spec := cm.Spec()
	spec.Name = "subcat_cm_recovered"
	inner.LockWrite()
	rec, err := inner.RecoverCM(spec, &ckpt, lsn)
	diff := ""
	if err == nil {
		diff = cmEntriesDiff(rec, cm)
	}
	inner.UnlockWrite()
	if err != nil || diff != "" {
		t.Fatalf("recovery from the checkpoint and the log: err=%v, %s", err, diff)
	}
}

// TestQueuedCleanupFaultShowsInDeadVersions: a cleanup step that fails is
// visible until a writer finishes it. An in-place UPDATE of price on 300
// rows is cancelled after its first 128-row batch, and its abort, from a
// cold 4-frame pool, fails to copy the first pre-image back: the 128
// replaced rows wait on the queue, and table.dead_versions counts them
// while every row still reads as before. The next writer drains the
// queue: the gauge reads 0 again and no frame stays pinned.
func TestQueuedCleanupFaultShowsInDeadVersions(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4}, 2000)
	inner := tbl.inner
	before := snapDigest(t, inner, 0)
	tx := inner.BeginWrite()
	tx.SetContext(newCancelAfter(2))
	if err := tx.UpdateBatch(spreadImages(t, inner, 300), func(_ int, row value.Row) { row[2] = value.NewInt(1) }); !errors.Is(err, context.Canceled) {
		t.Fatalf("the UPDATE returned %v, want it cancelled at its second batch", err)
	}
	coldPool(t, db)
	db.SetFaultPlan(&FaultPlan{FailReadN: 1})
	err := tx.Abort()
	db.SetFaultPlan(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("the abort returned %v, want its cleanup's ErrInjected", err)
	}
	if q := metricValue(t, db, "table.dead_versions"); q != 128 {
		t.Errorf("table.dead_versions reads %d with the cleanup queued, want the first batch's 128", q)
	}
	if got := snapDigest(t, inner, 0); got != before {
		t.Errorf("the latest state reads %v with the cleanup queued, %v before the UPDATE", got, before)
	}
	if _, err := db.Exec("INSERT INTO items VALUES (4001, 7, 5, 'after')"); err != nil {
		t.Fatal(err)
	}
	if q := metricValue(t, db, "table.dead_versions"); q != 0 {
		t.Errorf("table.dead_versions reads %d after the next writer, want 0", q)
	}
	if p := db.pool.PinnedFrames(); p != 0 {
		t.Errorf("%d frames pinned", p)
	}
}
