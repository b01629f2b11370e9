// Chaos tests: storms of cancelled and deadline-bounded statements
// racing live writers, storms of probabilistically injected disk
// faults, and a writer killed mid-transaction followed by CM recovery.
// After every storm the engine must hold its invariants exactly — no
// lost rows, no leaked pins, no wedged latches, clean errors only.
package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/value"
)

// ctxOutcome reports whether err is an acceptable end state for a
// statement run under a maybe-cancelled context: success or the
// context's own error, never anything else.
func ctxOutcome(err error) bool {
	return err == nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// stormCtx derives a context for one chaos iteration: a third of the
// statements run pre-cancelled, a third under a microsecond-scale
// deadline that may expire mid-flight, a third unbounded.
func stormCtx(rng *rand.Rand) (context.Context, context.CancelFunc) {
	switch rng.Intn(3) {
	case 0:
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		return ctx, func() {}
	case 1:
		return context.WithTimeout(context.Background(), time.Duration(50+rng.Intn(800))*time.Microsecond)
	default:
		return context.Background(), func() {}
	}
}

// TestChaosCancelStorm races readers whose contexts cancel at random
// against writers inserting, updating and deleting volatile rows, some
// of those also under dying contexts. Every statement must end in
// success or its context's error, and afterwards the stable row
// population must be exactly intact on all five access methods.
func TestChaosCancelStorm(t *testing.T) {
	db, tbl := buildFaultDB(t, 4)
	const (
		readers  = 4
		writers  = 2
		iters    = 20
		wantRows = 31 * 25 // u in [10,40], stable rows only
	)
	var wg sync.WaitGroup
	errCh := make(chan error, (readers+writers)*iters)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + gid)))
			for i := 0; i < iters; i++ {
				ctx, cancel := stormCtx(rng)
				n := 0
				err := db.SelectSpec(ctx, QuerySpec{Table: tbl.Name(), Preds: []Pred{Between("u", IntVal(10), IntVal(40))}}, func(Row) bool { n++; return true })
				cancel()
				if err == nil && n != wantRows {
					errCh <- fmt.Errorf("reader %d iter %d: %d rows, want %d", gid, i, n, wantRows)
				}
				if !ctxOutcome(err) {
					errCh <- fmt.Errorf("reader %d iter %d: unexpected error %v", gid, i, err)
				}
			}
		}(g)
	}
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(gid int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + gid)))
			for i := 0; i < iters; i++ {
				c := int64(100000 + gid*1000 + i)
				// The insert runs unbounded and must succeed; the update
				// and delete run under dying contexts and may be cut.
				if err := tbl.Insert(Row{IntVal(c), IntVal(200), StringVal("volatile")}); err != nil {
					errCh <- fmt.Errorf("writer %d iter %d insert: %v", gid, i, err)
					continue
				}
				ctx, cancel := stormCtx(rng)
				_, err := db.UpdateCtx(ctx, tbl.Name(), []Set{{Col: "tag", Val: StringVal("touched")}}, Eq("c", IntVal(c)))
				cancel()
				if !ctxOutcome(err) {
					errCh <- fmt.Errorf("writer %d iter %d update: unexpected error %v", gid, i, err)
				}
				ctx, cancel = stormCtx(rng)
				_, err = db.DeleteCtx(ctx, tbl.Name(), Eq("c", IntVal(c)))
				cancel()
				if !ctxOutcome(err) {
					errCh <- fmt.Errorf("writer %d iter %d delete: unexpected error %v", gid, i, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}

	// The storm is over: stable rows are exactly intact on every access
	// method, nothing is pinned, and cancellations were actually
	// exercised (a third of the contexts were born dead).
	for _, method := range stressMethods {
		if n, err := countVia(tbl, method); err != nil || n != wantRows {
			t.Errorf("%v after storm: n=%d err=%v, want %d", method, n, err, wantRows)
		}
	}
	stable := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Lt("c", IntVal(4000))}}))
	if stable != 4000 {
		t.Errorf("stable rows after storm = %d, want 4000", stable)
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Errorf("%d frames left pinned after storm", pinned)
	}
	if got := db.Metrics("query.cancelled")[0].Value; got < 1 {
		t.Errorf("query.cancelled = %d, want >= 1", got)
	}
}

// TestChaosFaultStorm runs the equivalence suite under a seeded fault
// plan injecting faults on ~1%% of page reads: every query either
// succeeds with the exact answer or fails wrapping ErrInjected — never
// a panic, never a wrong count — and after disarming no row is lost.
func TestChaosFaultStorm(t *testing.T) {
	db, tbl := buildFaultDB(t, 4)
	const wantRows = 31 * 25
	methods := stressMethods
	db.SetFaultPlan(&FaultPlan{ReadProb: 0.01, Seed: 42})
	failures := 0
	for i := 0; i < 40; i++ {
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		n, err := countVia(tbl, methods[i%len(methods)])
		switch {
		case err == nil:
			if n != wantRows {
				t.Fatalf("iter %d (%v): fault-free run returned %d rows, want %d", i, methods[i%len(methods)], n, wantRows)
			}
		case errors.Is(err, ErrInjected):
			failures++
		default:
			t.Fatalf("iter %d (%v): unclean error %v", i, methods[i%len(methods)], err)
		}
		if pinned := db.pool.PinnedFrames(); pinned != 0 {
			t.Fatalf("iter %d: %d frames left pinned", i, pinned)
		}
	}
	db.SetFaultPlan(nil)
	if failures == 0 {
		t.Error("seeded 1% fault plan injected no faults across 40 cold scans")
	}
	if got := db.Metrics("disk.injected_faults")[0].Value; int(got) < failures {
		t.Errorf("disk.injected_faults = %d, want >= %d", got, failures)
	}
	// Disarmed, the table is exactly whole: per-method range counts and
	// the full population, and writes go through.
	for _, method := range methods {
		if n, err := countVia(tbl, method); err != nil || n != wantRows {
			t.Errorf("%v after disarm: n=%d err=%v, want %d", method, n, err, wantRows)
		}
	}
	total := 0
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name()}, func(Row) bool { total++; return true }); err != nil || total != 4000 {
		t.Fatalf("total after disarm: n=%d err=%v, want 4000", total, err)
	}
	if err := tbl.Insert(Row{IntVal(999999), IntVal(1), StringVal("probe")}); err != nil {
		t.Fatalf("insert after storm: %v", err)
	}
	if n, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("c", IntVal(999999))); err != nil || n != 1 {
		t.Fatalf("delete after storm: n=%d err=%v", n, err)
	}
}

// TestWriterKilledMidTxnThenRecovered kills a writer transaction
// between latch bursts (its context cancels mid-InsertBatch), asserts
// the abort leaves no trace, and then rebuilds a CM from the WAL alone:
// the killed transaction must have left the log consistent, so recovery
// matches a CM built live from the surviving rows.
func TestWriterKilledMidTxnThenRecovered(t *testing.T) {
	db := Open(Config{Workers: 2})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "kt",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "u", Kind: Int}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]Row, 500)
	for i := range rows {
		rows[i] = Row{IntVal(int64(i)), IntVal(int64(i / 25))}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	mkBatch := func(lo, n int) []value.Row {
		out := make([]value.Row, n)
		for i := range out {
			out[i] = Row{IntVal(int64(lo + i)), IntVal(77)}.internal()
		}
		return out
	}

	// Checkpoint the CM right after creation: bulk loads are not
	// WAL-logged (replay starts after them), so recovery is checkpoint
	// state plus the log from the checkpoint's LSN.
	if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
		t.Fatal(err)
	}
	live := cmOn(tbl.inner, 1)
	if live == nil {
		t.Fatal("live CM missing")
	}
	var checkpoint bytes.Buffer
	lsn, err := tbl.inner.CheckpointCM(live, &checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	// A committed batch before the kill, so the log beyond the
	// checkpoint holds real work.
	tx := tbl.inner.BeginWrite()
	if err := tx.InsertBatch(mkBatch(1000, 100)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}

	// The kill: cancel the statement's context between latch bursts.
	// The second batch must die on the context, and the abort must
	// erase the first batch's staged rows.
	ctx, cancel := context.WithCancel(context.Background())
	tx = tbl.inner.BeginWrite()
	tx.SetContext(ctx)
	if err := tx.InsertBatch(mkBatch(2000, 100)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := tx.InsertBatch(mkBatch(2100, 100)); !errors.Is(err, context.Canceled) {
		t.Fatalf("insert after kill returned %v, want context.Canceled", err)
	}
	tx.Abort()
	n := 0
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Preds: []Pred{Ge("c", IntVal(2000))}}, func(Row) bool { n++; return true }); err != nil || n != 0 {
		t.Fatalf("killed txn leaked %d rows (err=%v)", n, err)
	}

	// Life goes on after the kill: another committed batch.
	tx = tbl.inner.BeginWrite()
	if err := tx.InsertBatch(mkBatch(3000, 50)); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	total := 0
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name()}, func(Row) bool { total++; return true }); err != nil || total != 650 {
		t.Fatalf("population after kill+commit: n=%d err=%v, want 650", total, err)
	}

	// Recovery: rebuild the CM from the checkpoint plus the log past
	// its LSN and compare shapes with the live CM, which tracked every
	// write as it happened. The killed transaction published nothing,
	// so replay reproduces exactly the live state.
	tbl.inner.LockWrite()
	rec, err := tbl.inner.RecoverCM(live.Spec(), &checkpoint, lsn)
	tbl.inner.UnlockWrite()
	if err != nil {
		t.Fatalf("RecoverCM after killed txn: %v", err)
	}
	if !rec.StatsValid() {
		t.Fatal("recovered CM reports invalid statistics")
	}
	if rec.Keys() != live.Keys() || rec.Pairs() != live.Pairs() {
		t.Fatalf("recovered CM shape keys=%d pairs=%d, live keys=%d pairs=%d",
			rec.Keys(), rec.Pairs(), live.Keys(), live.Pairs())
	}
}
