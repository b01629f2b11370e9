// MVCC snapshot-isolation and UPDATE tests: writer statements must be
// invisible until published (no dirty reads), captured snapshots must
// replay identically under churn (repeatable scans), UPDATE must behave
// identically through SQL and the native facade at any worker count,
// and CM per-entry statistics must stay exact — keeping index-only
// aggregation answers byte-identical — after update/delete/insert churn.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/value"
)

// stressRow builds one row of the stress table's shape for direct
// internal-layer writes.
func stressRow(c, u int64, tag string) value.Row {
	return value.Row{value.NewInt(c), value.NewInt(u), value.NewString(tag)}
}

// countU counts rows with the given u through a facade Select, which
// captures its own read snapshot like every statement.
func countU(t *testing.T, tbl *Table, method AccessMethod, u int64) int {
	t.Helper()
	rows, err := selectRows(tbl.db, QuerySpec{Table: tbl.Name(), Via: method, Preds: stressPreds(method, u)})
	if err != nil {
		t.Fatalf("%v: %v", method, err)
	}
	return len(rows)
}

// TestNoDirtyReads pins statement atomicity: rows inserted by an active
// writer statement are invisible to every access method until Publish,
// visible on every one after, and an aborted statement leaves no trace.
func TestNoDirtyReads(t *testing.T) {
	db, tbl := buildStressDB(t, 2)
	const dirtyU = 900

	tx := tbl.inner.BeginWrite()
	rows := make([]value.Row, 5)
	for i := range rows {
		rows[i] = stressRow(int64(9000+i), dirtyU, "uncommitted")
	}
	if err := tx.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	// Every way to read the rows of one u: each forcible access method,
	// and a query that names its CM.
	counters := map[string]func(u int64) int{
		`CM "u_cm"`: func(u int64) int {
			rows, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: CMScan, CM: "u_cm", Preds: []Pred{Eq("u", IntVal(u))}})
			if err != nil {
				t.Fatalf(`CM "u_cm": %v`, err)
			}
			return len(rows)
		},
	}
	for _, m := range stressMethods {
		counters[m.String()] = func(u int64) int { return countU(t, tbl, m, u) }
	}
	// The statement is applied but unpublished: heap versions, index
	// entries and CM pairs exist, yet no reader snapshot admits them.
	for m, count := range counters {
		if n := count(dirtyU); n != 0 {
			t.Fatalf("%v: dirty read — %d unpublished rows visible", m, n)
		}
	}
	if !tbl.inner.WriterActive() {
		t.Fatal("writer gate not reported active mid-statement")
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	if tbl.inner.WriterActive() {
		t.Fatal("writer gate still active after Publish")
	}
	for m, count := range counters {
		if n := count(dirtyU); n != 5 {
			t.Fatalf("%v: %d rows after Publish, want 5", m, n)
		}
	}

	// Abort: physically unwinds the new versions.
	before := tbl.RowCount()
	tx = tbl.inner.BeginWrite()
	if err := tx.InsertBatch([]value.Row{stressRow(9100, dirtyU+1, "doomed")}); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	for m, count := range counters {
		if n := count(dirtyU + 1); n != 0 {
			t.Fatalf("%v: aborted row visible", m)
		}
	}
	if got := tbl.RowCount(); got != before {
		t.Fatalf("row count %d after abort, want %d", got, before)
	}
}

// TestSnapshotRepeatableScan pins a snapshot, churns the table with
// published writer statements, and replays the scan at the pinned
// snapshot: the old state must come back exactly, while a latest-state
// scan sees the churn. The snapshot outlives every shared latch hold, so
// it must be pinned, or the churn's old versions are reclaimed.
func TestSnapshotRepeatableScan(t *testing.T) {
	db, tbl := buildStressDB(t, 2)
	inner := tbl.inner
	snap, release := inner.PinSnapshot()
	defer release()

	scanU := func(snapAt uint64, u int64) int {
		n := 0
		inner.RLock()
		defer inner.RUnlock()
		all := exec.OrQuery{Disjuncts: []exec.Query{{}}, Snap: snapAt}
		err := exec.SweepTuples(inner, all, exec.WholeHeap(inner), 1, exec.DecodeTo(inner.Schema(), all, func(_ heap.RID, row value.Row) bool {
			if row[1].I == u {
				n++
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	const victimU = 3
	if got := scanU(snap, victimU); got != rowsPerU {
		t.Fatalf("baseline scan: %d rows for u=%d, want %d", got, victimU, rowsPerU)
	}

	// Churn: delete the whole u=3 slice and insert fresh rows carrying
	// the same u, each op its own published statement advancing the clock.
	if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(victimU))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := tbl.Insert(Row{IntVal(int64(9500 + i)), IntVal(victimU), StringVal("new")}); err != nil {
			t.Fatal(err)
		}
	}

	// Latest state: the original slice is gone, only the 4 new rows match.
	if got := scanU(0, victimU); got != 4 {
		t.Fatalf("latest scan: %d rows for u=%d, want 4", got, victimU)
	}
	// The captured snapshot still sees the pre-churn slice — deleted rows
	// keep their bytes readable, inserted rows carry later timestamps.
	if got := scanU(snap, victimU); got != rowsPerU {
		t.Fatalf("repeatable scan broken: %d rows at snapshot, want %d", got, rowsPerU)
	}
}

// allRows collects the full table contents in physical order.
func allRows(t *testing.T, tbl *Table) []Row {
	t.Helper()
	return mustSelect(t, tbl.db, QuerySpec{Table: tbl.Name(), Via: TableScan})
}

// TestUpdateSQLNativeEquivalence runs the same UPDATE through the SQL
// front end and the native facade on twin fixtures: affected counts and
// the complete physical-order table contents must match, including a
// multi-disjunct WHERE and the DB-level wrapper.
func TestUpdateSQLNativeEquivalence(t *testing.T) {
	sqlDB, sqlTbl := cmaggFixture(t, 4, 240)
	natDB, natTbl := cmaggFixture(t, 4, 240)

	// Single-conjunction WHERE through DB.UpdateCtx.
	res, err := sqlDB.Exec("UPDATE items SET qty = 42, city = 'lowell' WHERE cat = 3")
	if err != nil {
		t.Fatal(err)
	}
	sets := []Set{{Col: "qty", Val: IntVal(42)}, {Col: "city", Val: StringVal("lowell")}}
	n, err := natTbl.db.UpdateCtx(context.Background(), natTbl.Name(), sets, Eq("cat", IntVal(3)))
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Affected) != n {
		t.Fatalf("affected: sql %d vs native %d", res.Affected, n)
	}
	if n == 0 {
		t.Fatal("update matched no rows — fixture drifted")
	}
	rowsEqual(t, "after single-conjunct update", allRows(t, sqlTbl), allRows(t, natTbl))

	// Multi-disjunct WHERE: SQL's OR against the compiled anyOf form.
	res, err = sqlDB.Exec("UPDATE items SET wide = 7 WHERE qty = 42 OR cat = 9")
	if err != nil {
		t.Fatal(err)
	}
	n, _, err = natTbl.writeStmt(nil, false, []Set{{Col: "wide", Val: IntVal(7)}},
		[][]Pred{{Eq("qty", IntVal(42))}, {Eq("cat", IntVal(9))}}, runPlain)
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Affected) != n {
		t.Fatalf("OR affected: sql %d vs native %d", res.Affected, n)
	}
	rowsEqual(t, "after OR update", allRows(t, sqlTbl), allRows(t, natTbl))

	// DB-level wrapper resolves the table by name.
	n2, err := natDB.UpdateCtx(context.Background(), "items", []Set{{Col: "price", Val: FloatVal(1.5)}}, Eq("cat", IntVal(0)))
	if err != nil {
		t.Fatal(err)
	}
	res, err = sqlDB.Exec("UPDATE items SET price = 1.5 WHERE cat = 0")
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Affected) != n2 {
		t.Fatalf("wrapper affected: sql %d vs native %d", res.Affected, n2)
	}
	rowsEqual(t, "after wrapper update", allRows(t, sqlTbl), allRows(t, natTbl))
	if _, err := natDB.UpdateCtx(context.Background(), "ghost", sets); err == nil {
		t.Fatal("DB.UpdateCtx on missing table must error")
	}
}

// TestUpdateByteIdentitySerialVsParallel pins the acceptance bar:
// running the identical UPDATE at workers=1 and workers=8 leaves the
// table byte-identical — same affected count, same rows in the same
// physical order.
func TestUpdateByteIdentitySerialVsParallel(t *testing.T) {
	db, serialT := cmaggFixture(t, 1, 600)
	_, parallelT := cmaggFixture(t, 8, 600)

	sets := []Set{{Col: "wide", Val: IntVal(123)}, {Col: "city", Val: StringVal("churned")}}
	// A WHERE on a CM column, then one on the clustering column — which
	// also re-reads versions the first statement moved to the heap tail.
	// (Whichever path the planner takes at this size, the bytes must
	// match; TestWritesPlanTheirReadSide pins the clustered path against
	// the table scan at a size where the planner picks it.)
	for _, preds := range [][]Pred{
		{Between("qty", IntVal(3), IntVal(9))},
		{Between("cat", IntVal(2), IntVal(30)), Ne("qty", IntVal(5))},
	} {
		n1, err := db.UpdateCtx(context.Background(), serialT.Name(), sets, preds...)
		if err != nil {
			t.Fatal(err)
		}
		n8, err := parallelT.db.UpdateCtx(context.Background(), parallelT.Name(), sets, preds...)
		if err != nil {
			t.Fatal(err)
		}
		if n1 != n8 {
			t.Fatalf("affected: serial %d vs workers=8 %d", n1, n8)
		}
		if n1 == 0 {
			t.Fatal("update matched no rows — fixture drifted")
		}
		sets = []Set{{Col: "wide", Val: IntVal(321)}}
	}
	rowsEqual(t, "serial vs parallel contents", allRows(t, parallelT), allRows(t, serialT))
	if got, want := parallelT.RowCount(), serialT.RowCount(); got != want {
		t.Fatalf("row counts diverged: %d vs %d", got, want)
	}
}

// TestUpdateValidation pins the rejection paths: unknown table, unknown
// column, a column assigned twice, and a kind-mismatched literal all
// fail cleanly, through SQL and the native facade alike.
func TestUpdateValidation(t *testing.T) {
	db, tbl := cmaggFixture(t, 2, 64)
	for _, c := range []struct{ sql, wantSub string }{
		{"UPDATE ghost SET qty = 1", "ghost"},
		{"UPDATE items SET nope = 1 WHERE cat = 0", "nope"},
		{"UPDATE items SET qty = 1, qty = 2", "assigned twice"},
		{"UPDATE items SET qty = 'abc'", "qty"},
	} {
		if _, err := db.Exec(c.sql); err == nil {
			t.Errorf("%s: want error", c.sql)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.sql, err, c.wantSub)
		}
	}
	if _, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "nope", Val: IntVal(1)}}); err == nil {
		t.Error("native update with unknown column must error")
	}
	// Nothing above may have changed the table.
	if got := tbl.RowCount(); got != 64 {
		t.Errorf("row count %d after rejected updates, want 64", got)
	}
}

// churnItems applies a mixed update/delete/insert workload to the
// cm-agg fixture, exercising Algorithm 1's retraction + reinsert on
// every structure.
func churnItems(t *testing.T, tbl *Table) {
	t.Helper()
	// Updates: move qty values across CM keys, twice, including a
	// multi-column set that shifts stat carriers.
	if n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "qty", Val: IntVal(8)}}, Eq("qty", IntVal(7))); err != nil || n == 0 {
		t.Fatalf("churn update 1: n=%d err=%v", n, err)
	}
	if n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "qty", Val: IntVal(5)}, {Col: "price", Val: FloatVal(2.25)}}, Between("qty", IntVal(10), IntVal(14))); err != nil || n == 0 {
		t.Fatalf("churn update 2: n=%d err=%v", n, err)
	}
	// Deletes: remove a whole qty slice (boundary values mark MMDirty).
	if n, err := tbl.db.DeleteCtx(context.Background(), tbl.Name(), Eq("qty", IntVal(3))); err != nil || n == 0 {
		t.Fatalf("churn delete: n=%d err=%v", n, err)
	}
	// Inserts: fresh rows, some restoring the deleted key.
	for i := 0; i < 20; i++ {
		row := Row{IntVal(int64(i / 4)), IntVal(int64(3 + i%2)), IntVal(int64(i)),
			FloatVal(0.75), StringVal("fresh")}
		if err := tbl.Insert(row); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEntryStatsExactAfterUpdateChurn is the exactness acceptance: after
// update/delete/insert churn, every cm-agg answer across the
// equivalence query matrix still matches the forced heap sweep, and the
// covered point aggregate still answers with zero reads from cold cache.
func TestEntryStatsExactAfterUpdateChurn(t *testing.T) {
	db, tbl := cmaggFixture(t, 4, 600)
	churnItems(t, tbl)
	if tbl.inner.WriterActive() {
		t.Fatal("writer gate stuck active after churn")
	}

	for si, spec := range cmaggSpecs() {
		_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
		if err != nil {
			t.Fatalf("spec %d reference: %v", si, err)
		}
		_, got, err := db.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %d auto: %v", si, err)
		}
		rowsEqual(t, fmt.Sprintf("post-churn spec %d", si), got, want)
	}

	// The covered point aggregate is still index-only: cm-agg node, zero
	// pages from a cold cache.
	spec := QuerySpec{
		Table: "items",
		Preds: []Pred{Eq("qty", IntVal(8))},
		Aggs:  []Agg{{Func: Count}, {Func: Sum, Col: "qty"}, {Func: Avg, Col: "qty"}},
	}
	info, err := db.ExplainSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) == 0 || info.Nodes[0].Kind != "cm-agg" {
		t.Fatalf("post-churn plan = %+v, want cm-agg", info.Nodes)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, _, err := db.SelectAggregateCtx(context.Background(), spec); err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads; reads != 0 {
		t.Errorf("post-churn index-only aggregate read %d pages, want 0", reads)
	}
}

// recoverTwin builds a CM-less twin of the cm-agg items fixture and
// recovers the checkpointed CM into it under the write bracket.
func recoverTwin(t *testing.T, donor *Table, checkpoint *bytes.Buffer) (*DB, *Table) {
	t.Helper()
	db := Open(Config{Workers: 4})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "qty", Kind: Int},
			{Name: "wide", Kind: Int},
			{Name: "price", Kind: Float},
			{Name: "city", Kind: String},
		},
		ClusteredBy:  []string{"cat"},
		BucketTuples: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := allRows(t, donor)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	dcm := cmOn(donor.inner, 1) // qty is column 1
	if dcm == nil {
		t.Fatal("donor fixture lost its qty CM")
	}
	tbl.inner.LockWrite()
	rec, err := tbl.inner.RecoverCM(dcm.Spec(), checkpoint, 0)
	tbl.inner.UnlockWrite()
	if err != nil {
		t.Fatal(err)
	}
	if !rec.StatsValid() {
		t.Fatal("recovered CM reports invalid statistics — cm-agg would stay disabled")
	}
	if rec.Pairs() != dcm.Pairs() || rec.Keys() != dcm.Keys() {
		t.Fatalf("recovered shape keys=%d pairs=%d, donor keys=%d pairs=%d",
			rec.Keys(), rec.Pairs(), dcm.Keys(), dcm.Pairs())
	}
	return db, tbl
}

// assertCMAggAfterRecovery is the satellite acceptance check: EXPLAIN
// lowers to cm-agg on the recovered CM and the covered aggregate reads
// zero heap pages from a cold cache while matching the heap sweep.
func assertCMAggAfterRecovery(t *testing.T, db *DB) {
	t.Helper()
	spec := QuerySpec{
		Table: "items",
		Preds: []Pred{Eq("qty", IntVal(7))},
		Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "qty"}, {Func: Avg, Col: "qty"},
			{Func: Min, Col: "qty"}, {Func: Max, Col: "city"}},
	}
	info, err := db.ExplainSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Nodes) == 0 || info.Nodes[0].Kind != "cm-agg" {
		t.Fatalf("plan after recovery = %+v, want cm-agg", info.Nodes)
	}
	_, want, err := db.SelectAggregateCtx(context.Background(), withVia(spec, TableScan))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	_, got, err := db.SelectAggregateCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads; reads != 0 {
		t.Errorf("recovered cm-agg read %d pages, want 0 (index-only)", reads)
	}
	rowsEqual(t, "recovered cm-agg vs heap sweep", got, want)
}

// TestCMCheckpointRoundTripPreservesPushdown serializes a live
// stats-carrying CM, recovers it into a CM-less twin table, and proves
// aggregation pushdown survived: the checkpoint carries the
// statistics across the Serialize -> Deserialize round trip.
func TestCMCheckpointRoundTripPreservesPushdown(t *testing.T) {
	_, donor := cmaggFixture(t, 2, 600)
	var ckpt bytes.Buffer
	if _, err := donor.inner.CheckpointCM(cmOn(donor.inner, 1), &ckpt); err != nil {
		t.Fatal(err)
	}
	db, _ := recoverTwin(t, donor, &ckpt)
	assertCMAggAfterRecovery(t, db)
}

// TestCMLegacyCheckpointTriggersStatsRebuild feeds recovery a checkpoint
// written under another stat-column layout (the same CM before it
// carried statistics): deserialization keeps the pair counts, marks the
// stats invalid, and the table layer must rebuild them from the heap, so
// the recovered CM still answers index-only instead of silently losing
// pushdown.
func TestCMLegacyCheckpointTriggersStatsRebuild(t *testing.T) {
	_, donor := cmaggFixture(t, 2, 600)
	spec := cmOn(donor.inner, 1).Spec()
	if len(spec.StatCols) == 0 {
		t.Fatal("donor CM carries no statistics; fixture broken")
	}
	spec.StatCols = nil
	statless := core.New(spec)
	if err := donor.inner.Scan(func(_ heap.RID, row value.Row) bool {
		statless.AddRow(row, donor.inner.ClusterBucketFor(row))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := statless.Serialize(&ckpt); err != nil {
		t.Fatal(err)
	}
	db, _ := recoverTwin(t, donor, &ckpt)
	assertCMAggAfterRecovery(t, db)
}
