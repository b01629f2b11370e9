// Cancellation and statement-deadline tests: context cancellation must
// stop scans within one chunk's worth of pages, statement timeouts must
// fire through Config, SetStatementTimeout and SQL's SET
// statement_timeout, and the outcomes must land in the query.cancelled
// / query.timed_out counters.
package repro

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestSelectCtxCancelStopsWithinChunk (named for the context-taking
// Select door SelectSpec replaced) cancels a full scan from inside its
// row callback, inline and fanned out, and asserts the scan stops
// almost immediately: only a few more pages per worker may be read past
// the cancellation point (every sweep polls its context at heap-page
// granularity; the exact contract — never past the page it is on — is
// pinned without the sampling race by exec's
// TestSweepStopsAtPageBoundary).
func TestSelectCtxCancelStopsWithinChunk(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			db, tbl := buildFaultDB(t, workers)
			if err := db.ColdCache(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var readsAtCancel uint64
			rows := 0
			err := db.SelectSpec(ctx, QuerySpec{Table: tbl.Name()}, func(Row) bool {
				rows++
				if rows == 1 {
					readsAtCancel = db.Stats().Reads
					cancel()
				}
				return true
			})
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled scan returned %v, want context.Canceled", err)
			}
			if delta := db.Stats().Reads - readsAtCancel; delta > uint64(4*workers) {
				t.Fatalf("scan read %d pages past the cancellation point", delta)
			}
			if rows >= 4000 {
				t.Fatalf("scan ran to completion (%d rows) despite cancellation", rows)
			}
			if pinned := db.pool.PinnedFrames(); pinned != 0 {
				t.Fatalf("%d frames left pinned after cancelled scan", pinned)
			}
			if got := db.Metrics("query.cancelled")[0].Value; got < 1 {
				t.Fatalf("query.cancelled = %d, want >= 1", got)
			}
			// The engine is fully reusable afterwards.
			if rows, err := selectRows(db, QuerySpec{Table: tbl.Name()}); err != nil || len(rows) != 4000 {
				t.Fatalf("follow-up scan: n=%d err=%v", len(rows), err)
			}
		})
	}
}

// TestStatementTimeoutConfig opens the DB with a statement deadline so
// tight every query expires, asserts queries fail with
// context.DeadlineExceeded and count into query.timed_out, then lifts
// the deadline at runtime with SetStatementTimeout.
func TestStatementTimeoutConfig(t *testing.T) {
	db := Open(Config{StatementTimeout: time.Nanosecond, Workers: 2})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "tt",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "u", Kind: Int}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 200)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i)), IntVal(int64(i % 10))}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if got := db.StatementTimeout(); got != time.Nanosecond {
		t.Fatalf("StatementTimeout() = %v", got)
	}
	if _, err := selectRows(db, QuerySpec{Table: "tt"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("select under 1ns deadline returned %v, want DeadlineExceeded", err)
	}
	if _, err := db.UpdateCtx(context.Background(), "tt", []Set{{Col: "u", Val: IntVal(1)}}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("update under 1ns deadline returned %v, want DeadlineExceeded", err)
	}
	if got := db.Metrics("query.timed_out")[0].Value; got < 2 {
		t.Fatalf("query.timed_out = %d, want >= 2", got)
	}
	// An INSERT is bounded the same way, and no row of it lands (the
	// follow-up select still counts 200).
	timedOut := db.Metrics("query.timed_out")[0].Value
	if _, err := db.Exec("INSERT INTO tt VALUES (500, 1), (501, 2)"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("insert under 1ns deadline returned %v, want DeadlineExceeded", err)
	}
	if got := db.Metrics("query.timed_out")[0].Value; got != timedOut+1 {
		t.Fatalf("query.timed_out %d -> %d across the insert, want one more", timedOut, got)
	}
	db.SetStatementTimeout(0)
	if rows, err := selectRows(db, QuerySpec{Table: "tt"}); err != nil || len(rows) != 200 {
		t.Fatalf("select after lifting deadline: n=%d err=%v", len(rows), err)
	}
}

// TestSQLSetStatementTimeout drives the deadline through the SQL
// surface: SET statement_timeout arms it, a slow cold scan (real I/O
// waits on) trips it, and SET statement_timeout = 0 disarms it.
func TestSQLSetStatementTimeout(t *testing.T) {
	db := Open(Config{IOWaitScale: 1, Workers: 1}) // full 5.5ms real waits per seek
	var script strings.Builder
	script.WriteString("CREATE TABLE st (c INT, u INT) CLUSTERED BY (c) BUCKET PAGES 1; LOAD INTO st VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			script.WriteString(", ")
		}
		fmt.Fprintf(&script, "(%d, %d)", i, i%10)
	}
	for _, r := range mustScript(t, db, script.String()) {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}

	res, err := db.Exec("SET statement_timeout = 1")
	if err != nil {
		t.Fatal(err)
	}
	if res.Message != "SET statement_timeout = 1" {
		t.Fatalf("SET message = %q", res.Message)
	}
	if got := db.StatementTimeout(); got != time.Millisecond {
		t.Fatalf("timeout after SET = %v, want 1ms", got)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT count(*) FROM st WHERE u = 3"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("slow query under 1ms deadline returned %v, want DeadlineExceeded", err)
	}
	if _, err := db.Exec("SET statement_timeout = 0"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("SELECT count(*) FROM st WHERE u = 3"); err != nil {
		t.Fatalf("query after disarming: %v", err)
	}
	if _, err := db.Exec("SET statement_timeout = -5"); err == nil {
		t.Fatal("negative SET statement_timeout accepted")
	}
	if _, err := db.Exec("SET nonsense = 1"); err == nil {
		t.Fatal("unknown setting accepted")
	}
}

// mustScript runs a script and fails the test on a parse error.
func mustScript(t *testing.T, db *DB, script string) []ScriptResult {
	t.Helper()
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestShowMetricsQueryOutcomes asserts SHOW METRICS LIKE 'query.%'
// surfaces the fault-tolerance counters after a timeout and a
// cancellation have occurred.
func TestShowMetricsQueryOutcomes(t *testing.T) {
	db, tbl := buildFaultDB(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.SelectSpec(ctx, QuerySpec{Table: tbl.Name()}, func(Row) bool { return true }); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled select returned %v", err)
	}
	db.SetStatementTimeout(time.Nanosecond)
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name()}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("select under 1ns deadline returned %v", err)
	}
	db.SetStatementTimeout(0)

	res, err := db.Exec("SHOW METRICS LIKE 'query.%'")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]int64{}
	for _, r := range res.Rows {
		vals[r[0].Str()] = r[1].Int()
	}
	for name, want := range map[string]int64{"query.cancelled": 1, "query.timed_out": 1} {
		if vals[name] < want {
			t.Errorf("%s = %d, want >= %d (rows: %v)", name, vals[name], want, vals)
		}
	}
}

// TestInsertPreCancelled runs an INSERT under an already-cancelled
// context: like any statement it does no work, fails with the context's
// error and counts into query.cancelled.
func TestInsertPreCancelled(t *testing.T) {
	db, tbl := buildFaultDB(t, 1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cancelled := db.Metrics("query.cancelled")[0].Value
	results, err := db.ExecScriptCtx(ctx, "INSERT INTO ft VALUES (999999, 1, 'late')")
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("INSERT under a cancelled context returned %v, want context.Canceled", results[0].Err)
	}
	if got := db.Metrics("query.cancelled")[0].Value; got != cancelled+1 {
		t.Fatalf("query.cancelled %d -> %d across the insert, want one more", cancelled, got)
	}
	if n := tbl.RowCount(); n != 4000 {
		t.Fatalf("%d rows after a cancelled INSERT, want 4000", n)
	}
}

// TestStatementOutcome pins the outcome classifier the slow-query log
// reports.
func TestStatementOutcome(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{nil, "completed"},
		{context.DeadlineExceeded, "timeout"},
		{fmt.Errorf("scan: %w", context.DeadlineExceeded), "timeout"},
		{context.Canceled, "cancelled"},
		{fmt.Errorf("scan: %w", context.Canceled), "cancelled"},
		{errors.New("boom"), "error"},
	}
	for _, c := range cases {
		if got := StatementOutcome(c.err); got != c.want {
			t.Errorf("StatementOutcome(%v) = %q, want %q", c.err, got, c.want)
		}
	}
}

// TestSelectManyCtxPreCancelled (named for the batch door SelectSpec
// replaced) runs every query form under an already-cancelled context: each must fail with the context's error
// having done zero work — no row delivered and no page read, even for
// index-only aggregation — and the engine must stay usable.
func TestSelectManyCtxPreCancelled(t *testing.T) {
	db, _ := buildFaultDB(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	reads := db.Stats().Reads
	specs := []QuerySpec{
		{Table: "ft", Preds: []Pred{Eq("u", IntVal(3))}},
		{Table: "ft", Preds: []Pred{Eq("u", IntVal(4))}},
		{Table: "ft", Via: ClusteredIndexScan, Preds: []Pred{Between("c", IntVal(10), IntVal(500))}},
		{Table: "ft", Aggs: []Agg{{Func: Count}}},
	}
	for i, spec := range specs {
		err := db.SelectSpec(ctx, spec, func(Row) bool {
			t.Errorf("query %d delivered a row under a dead context", i)
			return false
		})
		if !errors.Is(err, context.Canceled) {
			t.Errorf("query %d returned %v, want context.Canceled", i, err)
		}
	}
	if got := db.Stats().Reads; got != reads {
		t.Errorf("dead-context queries read %d pages, want 0", got-reads)
	}
	if rows, err := selectRows(db, QuerySpec{Table: "ft", Preds: []Pred{Eq("u", IntVal(3))}}); err != nil || len(rows) != 25 {
		t.Fatalf("follow-up query: n=%d err=%v", len(rows), err)
	}
}
