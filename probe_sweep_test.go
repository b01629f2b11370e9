// Mixed-workload probe tests: hot point lookups racing full-table sweeps
// stay exact and leak no pinned frame; every access method returns the
// same rows at one worker and at eight; and an absent-key CM probe reads
// zero pages from a cold cache — on a fresh CM, through insert/delete/
// update churn, and through a CheckpointCM -> RecoverCM round trip.
package repro

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHotProbesRaceFullSweeps races hot point lookups against repeated
// full-table sweeps on a pool far smaller than the table, under the race
// detector: every probe and every sweep returns exactly its rows, and no
// frame stays pinned afterwards.
func TestHotProbesRaceFullSweeps(t *testing.T) {
	const (
		rows      = 24000
		poolPages = 256
		hotKeys   = 32
	)
	db := Open(Config{Workers: 4, BufferPoolPages: poolPages})
	tbl, err := db.CreateTable(TableSpec{
		Name: "stress",
		Columns: []Column{
			{Name: "c", Kind: Int},
			{Name: "u", Kind: Int},
			{Name: "pad", Kind: String},
		},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("x", 300)
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{IntVal(int64(i)), IntVal(int64(i)), StringVal(pad)}
	}
	if err := tbl.Load(data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		t.Fatal(err)
	}
	if pages := tbl.HeapPages(); pages <= poolPages*2 {
		t.Fatalf("table spans %d pages; need well over the %d-frame pool", pages, poolPages)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	hot := make([]int64, hotKeys)
	for i := range hot {
		hot[i] = int64(i * rows / hotKeys)
	}
	probe := func(key int64) (int, error) {
		n := 0
		err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: PipelinedIndexScan, Preds: []Pred{Eq("u", IntVal(key))}}, func(Row) bool { n++; return true })
		return n, err
	}

	// Four probers doing fixed point-lookup work against a sweeper that
	// keeps scanning until they finish, then sweeps once more. Every
	// result is asserted exact — no lost or phantom rows.
	var probersDone atomic.Bool
	var errMu sync.Mutex
	var firstErr error
	fail := func(err error) {
		errMu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		errMu.Unlock()
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := hot[(seed+i)%len(hot)]
				if n, err := probe(k); err != nil {
					fail(err)
					return
				} else if n != 1 {
					fail(fmt.Errorf("hot probe key=%d saw %d rows, want 1", k, n))
					return
				}
			}
		}(p * 7)
	}
	sweepDone := make(chan struct{})
	go func() {
		defer close(sweepDone)
		sweep := func() bool {
			n := 0
			if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: TableScan}, func(Row) bool { n++; return true }); err != nil {
				fail(err)
				return false
			}
			if n != rows {
				fail(fmt.Errorf("sweep saw %d rows, want %d", n, rows))
				return false
			}
			return true
		}
		for !probersDone.Load() {
			if !sweep() {
				return
			}
		}
		sweep() // one sweep after the last probe
	}()
	wg.Wait()
	probersDone.Store(true)
	<-sweepDone
	errMu.Lock()
	err = firstErr
	errMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if pinned := db.pool.PinnedFrames(); pinned != 0 {
		t.Fatalf("%d frames still pinned after the stress workload", pinned)
	}
}

// equivRows loads the equivalence fixture into a DB with the given
// worker count and returns, per access method and query, the sorted row
// fingerprints.
func equivRows(t *testing.T, workers int) map[string][]string {
	t.Helper()
	const rows = 5000
	db := Open(Config{Workers: workers, BufferPoolPages: 64})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "equiv",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "u", Kind: Int}, {Name: "s", Kind: String}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{IntVal(int64(i)), IntVal(int64(i % 97)), StringVal(fmt.Sprintf("s-%03d", i%53))}
	}
	if err := tbl.Load(data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	methods := map[string]AccessMethod{
		"table": TableScan, "sorted": SortedIndexScan,
		"pipelined": PipelinedIndexScan, "cm": CMScan,
		"clustered": ClusteredIndexScan,
	}
	// Queries on u run through the scan, both index scans and the CM;
	// queries on the clustering column through the scan and the
	// clustered index.
	onU := []string{"table", "sorted", "pipelined", "cm"}
	onC := []string{"table", "clustered"}
	queries := map[string]struct {
		preds []Pred
		via   []string
	}{
		"point":          {[]Pred{Eq("u", IntVal(41))}, onU},
		"in":             {[]Pred{In("u", IntVal(3), IntVal(88), IntVal(500))}, onU},
		"absent-point":   {[]Pred{Eq("u", IntVal(1234))}, onU},
		"range":          {[]Pred{Ge("u", IntVal(90))}, onU},
		"c-point":        {[]Pred{Eq("c", IntVal(41))}, onC},
		"c-in":           {[]Pred{In("c", IntVal(3), IntVal(2500), IntVal(4999)), Ne("u", IntVal(3))}, onC},
		"c-absent-point": {[]Pred{Eq("c", IntVal(123456))}, onC},
		"c-range":        {[]Pred{Between("c", IntVal(1200), IntVal(1900)), Ge("u", IntVal(50))}, onC},
	}
	out := make(map[string][]string)
	for qn, q := range queries {
		for _, mn := range q.via {
			var got []string
			if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: methods[mn], Preds: q.preds}, func(r Row) bool {
				got = append(got, fmt.Sprintf("%v", r))
				return true
			}); err != nil {
				t.Fatalf("%s/%s: %v", mn, qn, err)
			}
			sort.Strings(got)
			out[mn+"/"+qn] = got
		}
	}
	// A CM probe for an absent key is a missed hash lookup: it reads no
	// page, even from a cold cache.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Reads
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: queries["absent-point"].preds}); err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads - before; reads != 0 {
		t.Fatalf("workers=%d: absent-key cm probe read %d pages, want 0", workers, reads)
	}
	return out
}

// TestAccessMethodsAgreeAcrossWorkers checks that the worker count never
// changes result bytes: every access method returns the identical row
// set serial and with workers=8, and every method agrees with the table
// scan.
func TestAccessMethodsAgreeAcrossWorkers(t *testing.T) {
	baseline := equivRows(t, 1)
	for key, rows := range baseline {
		if len(rows) == 0 && key[len(key)-len("absent-point"):] != "absent-point" {
			t.Fatalf("baseline %s returned no rows — fixture broken", key)
		}
		query := key[strings.IndexByte(key, '/')+1:]
		if want := baseline["table/"+query]; strings.Join(rows, "\n") != strings.Join(want, "\n") {
			t.Fatalf("baseline %s: %d rows differ from the table scan's %d", key, len(rows), len(want))
		}
	}
	got := equivRows(t, 8)
	for key, want := range baseline {
		if g := got[key]; strings.Join(g, "\n") != strings.Join(want, "\n") {
			t.Fatalf("workers=8 %s: %d rows differ from the serial run's %d", key, len(g), len(want))
		}
	}
}

// TestBloomChurnAndCheckpointRoundTrip drives insert/delete/update churn
// through a table and checks the index and the CM stay consistent
// (present keys always found) and that a CM probe for a fully-retracted
// or never-present key reads zero pages (a missed hash lookup), then
// round-trips the CM through CheckpointCM -> RecoverCM and asserts the
// recovered CM equals the live one and a negative probe through it still
// reads zero pages from a cold cache. The test and its one case keep the
// names they had when secondary indexes could carry probe blooms; with
// those gone, the ProbeBlooms=false case is the only configuration.
func TestBloomChurnAndCheckpointRoundTrip(t *testing.T) {
	t.Run("ProbeBlooms=false", churnAndCheckpointRoundTrip)
}

func churnAndCheckpointRoundTrip(t *testing.T) {
	const rows = 2000
	db := Open(Config{Workers: 2, BufferPoolPages: 128})
	tbl, err := db.CreateTable(TableSpec{
		Name:        "churn",
		Columns:     []Column{{Name: "c", Kind: Int}, {Name: "u", Kind: Int}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{IntVal(int64(i)), IntVal(int64(i % 40))}
	}
	if err := tbl.Load(data); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
		t.Fatal(err)
	}

	countVia := func(m AccessMethod, u int64) int {
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: m, Preds: []Pred{Eq("u", IntVal(u))}}, func(Row) bool { n++; return true }); err != nil {
			t.Fatalf("count via %v u=%d: %v", m, u, err)
		}
		return n
	}
	countCM := func(u int64) int {
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, CM: "u_cm", Preds: []Pred{Eq("u", IntVal(u))}}, func(Row) bool { n++; return true }); err != nil {
			t.Fatalf("count via cm u=%d: %v", u, err)
		}
		return n
	}
	check := func(stage string) {
		t.Helper()
		for u := int64(0); u < 120; u++ {
			want := countVia(TableScan, u)
			if got := countVia(PipelinedIndexScan, u); got != want {
				t.Fatalf("%s: index probe u=%d saw %d rows, table scan %d", stage, u, got, want)
			}
			if got := countCM(u); got != want {
				t.Fatalf("%s: cm probe u=%d saw %d rows, table scan %d", stage, u, got, want)
			}
		}
	}
	check("after load")

	// Churn: new u values appear, one u value is fully retracted, and
	// updates move rows between u values — the CM follows through
	// Algorithm 1.
	for i := 0; i < 30; i++ {
		if err := tbl.Insert(Row{IntVal(int64(rows + i)), IntVal(int64(100 + i%5))}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(17))); err != nil || n != rows/40 {
		t.Fatalf("delete u=17: n=%d err=%v, want %d", n, err, rows/40)
	}
	if n, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "u", Val: IntVal(77)}}, Eq("u", IntVal(23))); err != nil || n != rows/40 {
		t.Fatalf("update u=23->77: n=%d err=%v, want %d", n, err, rows/40)
	}
	check("after churn")

	// The CM must answer the fully-retracted keys and a never-present key
	// without touching a page; the index must find no row for them.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	for _, absent := range []int64{17, 23, 5000} {
		before := db.Stats().Reads
		if n := countCM(absent); n != 0 {
			t.Fatalf("cm probe for absent u=%d saw %d rows", absent, n)
		}
		if reads := db.Stats().Reads - before; reads != 0 {
			t.Fatalf("absent-key cm probe for u=%d read %d pages, want 0", absent, reads)
		}
		if n := countVia(PipelinedIndexScan, absent); n != 0 {
			t.Fatalf("index probe for absent u=%d saw %d rows", absent, n)
		}
	}

	// Checkpoint, more churn, recover under a new name: checkpoint +
	// log tail must give the live CM back, and a cold negative probe
	// through the recovered CM still reads nothing.
	live := cmOn(tbl.inner, 1)
	if live == nil {
		t.Fatal("live CM missing")
	}
	var checkpoint bytes.Buffer
	lsn, err := tbl.inner.CheckpointCM(live, &checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.Insert(Row{IntVal(int64(rows + 100 + i)), IntVal(int64(200 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(31))); err != nil {
		t.Fatal(err)
	}
	spec := live.Spec()
	spec.Name = "u_cm_rec"
	tbl.inner.LockWrite()
	rec, err := tbl.inner.RecoverCM(spec, &checkpoint, lsn)
	tbl.inner.UnlockWrite()
	if err != nil {
		t.Fatal(err)
	}
	// Serialize is canonical (keys sorted, runs as stored), so equal
	// checkpoints mean Walk-equal CMs: keys, runs, counts, statistics
	// and MMDirty flags.
	var liveBytes, recBytes bytes.Buffer
	if err := live.Serialize(&liveBytes); err != nil {
		t.Fatal(err)
	}
	if err := rec.Serialize(&recBytes); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recBytes.Bytes(), liveBytes.Bytes()) {
		t.Fatalf("recovered CM (%d keys, %d pairs) differs from the live one (%d keys, %d pairs)",
			rec.Keys(), rec.Pairs(), live.Keys(), live.Pairs())
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	countRec := func(u int64) int {
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, CM: "u_cm_rec", Preds: []Pred{Eq("u", IntVal(u))}}, func(Row) bool { n++; return true }); err != nil {
			t.Fatalf("count via recovered cm u=%d: %v", u, err)
		}
		return n
	}
	for u := int64(0); u < 250; u++ {
		want := countVia(TableScan, u)
		if got := countRec(u); got != want {
			t.Fatalf("recovered cm u=%d saw %d rows, table scan %d", u, got, want)
		}
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	readsBefore := db.Stats().Reads
	for _, absent := range []int64{17, 31, 9999} {
		if n := countRec(absent); n != 0 {
			t.Fatalf("recovered cm probe for absent u=%d saw %d rows", absent, n)
		}
	}
	if reads := db.Stats().Reads - readsBefore; reads != 0 {
		t.Fatalf("absent-key probes through recovered CM read %d pages, want 0", reads)
	}
}
