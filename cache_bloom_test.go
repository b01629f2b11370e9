// Mixed-workload cache and bloom-probe tests for the PR-9 layers: the
// W-TinyLFU admission filter must keep a hot point-lookup working set
// resident through concurrent full-table sweeps without changing any
// query result, and absent-key point probes must read zero pages —
// through a secondary index's ProbeBlooms filter, and through a CM with
// or without the knob — through churn and through a CheckpointCM ->
// RecoverCM round trip. Named TestCache*/TestBloom* so
// CI's `-race -count 2 -run 'Cache|Bloom|Sketch'` step exercises them.
package repro

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// stressHotRatio runs the mixed workload — concurrent hot probes racing
// full-table sweeps on a pool far smaller than the table — and returns
// the pool hit ratio of one serial pass over the hot keys afterwards.
// The sweeper always completes one full sweep after the last probe, so
// the final residency reflects the admission policy, not goroutine
// timing: without admission the last sweep flushes the hot set, with
// admission it cannot.
func stressHotRatio(t *testing.T, scanResistant bool) float64 {
	t.Helper()
	const (
		rows      = 24000
		poolPages = 256
		hotKeys   = 32
	)
	db := Open(Config{Workers: 4, BufferPoolPages: poolPages, ScanResistant: scanResistant})
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
	pad := make([]byte, 300)
	for i := range pad {
		pad[i] = 'x'
	}
	data := make([]Row, rows)
	for i := range data {
		data[i] = Row{IntVal(int64(i)), IntVal(int64(i)), StringVal(string(pad))}
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
		err := tbl.SelectVia(PipelinedIndexScan, func(Row) bool { n++; return true },
			Eq("u", IntVal(key)))
		return n, err
	}
	for round := 0; round < 16; round++ {
		for _, k := range hot {
			if n, err := probe(k); err != nil || n != 1 {
				t.Fatalf("warm probe key=%d: n=%d err=%v", k, n, err)
			}
		}
	}

	// The race: four probers doing fixed point-lookup work against a
	// sweeper that keeps scanning until they finish, then sweeps once
	// more. Every result is asserted exact — no lost or phantom rows.
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
			if err := tbl.SelectVia(TableScan, func(Row) bool { n++; return true }); err != nil {
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
		sweep() // guaranteed post-probe sweep: the flush admission must resist
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

	// Residency census: one serial pass over the hot keys, hit ratio
	// from the pool-stat deltas.
	before := db.pool.Stats()
	for _, k := range hot {
		if n, err := probe(k); err != nil || n != 1 {
			t.Fatalf("census probe key=%d: n=%d err=%v", k, n, err)
		}
	}
	after := db.pool.Stats()
	hits := after.Hits - before.Hits
	misses := after.Misses - before.Misses
	if hits+misses == 0 {
		t.Fatal("census probes touched no pages")
	}
	return float64(hits) / float64(hits+misses)
}

// TestCacheScanResistantStress races hot point lookups against repeated
// full-table scans under the race detector: results stay exact, no
// frame leaks, and the admission filter keeps the hot working set's hit
// ratio strictly above the no-admission baseline on the same cold
// 256-page pool.
func TestCacheScanResistantStress(t *testing.T) {
	base := stressHotRatio(t, false)
	adm := stressHotRatio(t, true)
	t.Logf("hot-set hit ratio after sweeps: baseline %.3f, scan-resistant %.3f", base, adm)
	if adm <= base {
		t.Fatalf("scan-resistant hot hit ratio %.3f not above the no-admission baseline %.3f", adm, base)
	}
}

// bloomEquivRows loads the equivalence fixture into a DB with the given
// knobs and returns, per access method and query, the sorted row
// fingerprints.
func bloomEquivRows(t *testing.T, scanResistant, probeBlooms bool, workers int) map[string][]string {
	t.Helper()
	const rows = 5000
	db := Open(Config{Workers: workers, BufferPoolPages: 64,
		ScanResistant: scanResistant, ProbeBlooms: probeBlooms})
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
			if err := tbl.SelectVia(methods[mn], func(r Row) bool {
				got = append(got, fmt.Sprintf("%v", r))
				return true
			}, q.preds...); err != nil {
				t.Fatalf("%s/%s: %v", mn, qn, err)
			}
			sort.Strings(got)
			out[mn+"/"+qn] = got
		}
	}
	// Whatever the knobs, a CM probe for an absent key is a missed hash
	// lookup: it reads no page, even from a cold cache.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	before := db.Stats().Reads
	if err := tbl.SelectVia(CMScan, func(Row) bool { return true }, queries["absent-point"].preds...); err != nil {
		t.Fatal(err)
	}
	if reads := db.Stats().Reads - before; reads != 0 {
		t.Fatalf("scanResistant=%v probeBlooms=%v: absent-key cm probe read %d pages, want 0", scanResistant, probeBlooms, reads)
	}
	return out
}

// TestBloomEquivalenceAccessMethods checks that admission and blooms
// never change result bytes: every access method returns the identical
// row set with each knob on or off, serial and with workers=8, and
// within one configuration every method agrees with the table scan.
func TestBloomEquivalenceAccessMethods(t *testing.T) {
	baseline := bloomEquivRows(t, false, false, 1)
	for key, rows := range baseline {
		if len(rows) == 0 && key[len(key)-len("absent-point"):] != "absent-point" {
			t.Fatalf("baseline %s returned no rows — fixture broken", key)
		}
		query := key[strings.IndexByte(key, '/')+1:]
		if want := baseline["table/"+query]; strings.Join(rows, "\n") != strings.Join(want, "\n") {
			t.Fatalf("baseline %s: %d rows differ from the table scan's %d", key, len(rows), len(want))
		}
	}
	for _, workers := range []int{1, 8} {
		for _, sr := range []bool{false, true} {
			for _, pb := range []bool{false, true} {
				if workers == 1 && !sr && !pb {
					continue
				}
				got := bloomEquivRows(t, sr, pb, workers)
				for key, want := range baseline {
					g := got[key]
					if len(g) != len(want) {
						t.Fatalf("workers=%d scanResistant=%v probeBlooms=%v %s: %d rows, baseline %d",
							workers, sr, pb, key, len(g), len(want))
					}
					for i := range want {
						if g[i] != want[i] {
							t.Fatalf("workers=%d scanResistant=%v probeBlooms=%v %s row %d: %q != baseline %q",
								workers, sr, pb, key, i, g[i], want[i])
						}
					}
				}
			}
		}
	}
}

// TestBloomChurnAndCheckpointRoundTrip drives insert/delete/update
// churn through a table with ProbeBlooms on and off and checks the index
// and the CM stay consistent (present keys always found), that a probe
// for a fully-retracted or never-present key reads zero pages — through
// the CM always (a missed hash lookup; a CM carries no bloom), through
// the index when its bloom is armed — then round-trips the CM through
// CheckpointCM -> RecoverCM and asserts the recovered CM equals the live
// one and a negative probe through it still reads zero pages from a cold
// cache.
func TestBloomChurnAndCheckpointRoundTrip(t *testing.T) {
	for _, blooms := range []bool{true, false} {
		t.Run(fmt.Sprintf("ProbeBlooms=%v", blooms), func(t *testing.T) { bloomChurnAndCheckpointRoundTrip(t, blooms) })
	}
}

func bloomChurnAndCheckpointRoundTrip(t *testing.T, blooms bool) {
	const rows = 2000
	db := Open(Config{Workers: 2, BufferPoolPages: 128, ProbeBlooms: blooms})
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
		if err := tbl.SelectVia(m, func(Row) bool { n++; return true }, Eq("u", IntVal(u))); err != nil {
			t.Fatalf("count via %v u=%d: %v", m, u, err)
		}
		return n
	}
	countCM := func(u int64) int {
		n := 0
		if err := tbl.SelectViaCM("u_cm", func(Row) bool { n++; return true }, Eq("u", IntVal(u))); err != nil {
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
	// Algorithm 1, the index bloom through its retraction hooks.
	for i := 0; i < 30; i++ {
		if err := tbl.Insert(Row{IntVal(int64(rows + i)), IntVal(int64(100 + i%5))}); err != nil {
			t.Fatal(err)
		}
	}
	if n, err := tbl.Delete(Eq("u", IntVal(17))); err != nil || n != rows/40 {
		t.Fatalf("delete u=17: n=%d err=%v, want %d", n, err, rows/40)
	}
	if n, err := tbl.Update([]Set{{Col: "u", Val: IntVal(77)}}, Eq("u", IntVal(23))); err != nil || n != rows/40 {
		t.Fatalf("update u=23->77: n=%d err=%v, want %d", n, err, rows/40)
	}
	check("after churn")

	// The fully-retracted key and a never-present key must now be
	// answered without touching a page: by the CM as it is, by the
	// index when it has a bloom to ask.
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
		if reads := db.Stats().Reads - before; blooms && reads != 0 {
			t.Fatalf("absent-key index probe for u=%d read %d pages through its bloom, want 0", absent, reads)
		}
	}

	// Checkpoint, more churn, recover under a new name: checkpoint +
	// log tail must give the live CM back, and a cold negative probe
	// through the recovered CM still reads nothing.
	live := tbl.inner.CMOn(1)
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
	if _, err := tbl.Delete(Eq("u", IntVal(31))); err != nil {
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
		if err := tbl.SelectViaCM("u_cm_rec", func(Row) bool { n++; return true }, Eq("u", IntVal(u))); err != nil {
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
