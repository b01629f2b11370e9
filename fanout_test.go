// Fan-out tests at the facade: a page sweep fans out over the worker
// pool only when its page set holds enough pages to split or a page
// that is not cached, every surface says which way a statement went
// (NodeActuals.Chunks, EXPLAIN ANALYZE's message, query.sweeps /
// query.sweep_chunks), execution under real I/O waits pays exactly the
// seeks the plan was priced on, and a cached CM point probe costs at four
// workers what it costs at one.
package repro

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// The statements the fan-out tests run. A subcat's rows sit in one
// contiguous run of about five heap pages; the three subcats of the
// IN-list are hundreds of pages apart. (Not subcat 250: see
// cmAndScanTruthCases.)
var (
	pointProbe  = QuerySpec{Table: "items", Cols: []string{"price"}, Preds: []Pred{Eq("subcat", IntVal(251))}}
	threeProbes = QuerySpec{Table: "items", Cols: []string{"price"}, Preds: []Pred{In("subcat", IntVal(3), IntVal(251), IntVal(480))}}
	fullScan    = QuerySpec{Table: "items", Cols: []string{"price"}, Preds: []Pred{Ne("subcat", IntVal(3))}}
)

// TestFanOutIsReported runs a one-run probe, a three-run probe and a
// table scan with the pool warm and cold, at four workers and at one,
// and reads the decision off every surface that reports it.
func TestFanOutIsReported(t *testing.T) {
	for _, workers := range []int{4, 1} {
		db, _ := itemsFixture(t, workers)
		fan := func(n int64) int64 { // chunks at this worker count
			if workers == 1 {
				return 0
			}
			return n
		}
		for _, c := range []struct {
			name       string
			spec       QuerySpec
			warm, cold int64
		}{
			{"one run", pointProbe, 0, 0},
			{"three runs", threeProbes, 0, fan(3)},
			{"table scan", fullScan, fan(16), fan(16)},
		} {
			for _, state := range []string{"warm", "cold"} {
				want := c.warm
				if _, err := db.ExplainAnalyzeSpec(c.spec); err != nil { // plans, and caches the pages
					t.Fatal(err)
				}
				if state == "cold" {
					want = c.cold
					if err := db.ColdCache(); err != nil {
						t.Fatal(err)
					}
				}
				sweeps0, chunks0 := metricValue(t, db, "query.sweeps"), metricValue(t, db, "query.sweep_chunks")
				info, err := db.ExplainAnalyzeSpec(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				if got := info.Nodes[0].Actual.Chunks; got != want {
					t.Errorf("workers %d, %s, pool %s: access node reports %d chunks, want %d", workers, c.name, state, got, want)
				}
				sweeps, chunks := metricValue(t, db, "query.sweeps")-sweeps0, metricValue(t, db, "query.sweep_chunks")-chunks0
				if sweeps != 1 || chunks != want {
					t.Errorf("workers %d, %s, pool %s: query.sweeps +%d, query.sweep_chunks +%d, want +1 and +%d", workers, c.name, state, sweeps, chunks, want)
				}
			}
		}

		// The SQL message names the chunks only when the sweep fanned out.
		for _, c := range []struct {
			sql    string
			chunks bool
		}{
			{"EXPLAIN ANALYZE SELECT price FROM items WHERE subcat = 251", false},
			{"EXPLAIN ANALYZE SELECT price FROM items WHERE subcat <> 3", workers > 1},
		} {
			res, err := db.Exec(c.sql)
			if err != nil {
				t.Fatal(err)
			}
			if got := strings.HasSuffix(res.Message, ", 16 chunks"); got != c.chunks || strings.Contains(res.Message, "chunks") != c.chunks {
				t.Errorf("workers %d: %s: message %q, want chunks reported: %v", workers, c.sql, res.Message, c.chunks)
			}
		}
	}
}

// TestSweepPaysThePricedSeeks: with real I/O waits, four workers and a
// cold pool, a single-run CM point probe is charged exactly one random
// read and a three-run IN-list exactly three — the runs SweepCost priced —
// and every other page of the sweep is a sequential read. (Cut by page
// count, the one-run probe paid a second seek whenever its two halves were
// in flight together.) Counts only; no wall time is asserted.
func TestSweepPaysThePricedSeeks(t *testing.T) {
	db, _ := itemsFixtureOn(t, Config{BufferPoolPages: 128, Workers: 4, IOWaitScale: 4})
	for _, c := range []struct {
		name string
		spec QuerySpec
		runs uint64
	}{
		{"one run", pointProbe, 1},
		{"three runs", threeProbes, 3},
	} {
		if _, err := db.ExplainSpec(c.spec); err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 3; round++ {
			if err := db.ColdCache(); err != nil {
				t.Fatal(err)
			}
			d0 := db.disk.Stats()
			info, err := db.ExplainAnalyzeSpec(c.spec)
			if err != nil {
				t.Fatal(err)
			}
			d1 := db.disk.Stats()
			pages := uint64(info.Nodes[0].Actual.HeapPages)
			if seeks, reads := d1.RandReads-d0.RandReads, d1.Reads-d0.Reads; seeks != c.runs || reads != pages || reads <= c.runs {
				t.Errorf("%s, round %d: %d random reads of %d page reads for %d heap pages; want %d random, the rest sequential",
					c.name, round, seeks, reads, pages, c.runs)
			}
		}
	}
}

// TestInlineProbeStaysInline guards the fast path by count: a cached CM
// point probe through Table.SelectProject allocates at four workers
// exactly what it allocates at one, and starts no goroutine — the count
// sampled inside the row callback is no higher than before the call.
// Metrics add no per-row work either: switched on, the same probe
// (about 120 rows) allocates at most one object more than switched off.
func TestInlineProbeStaysInline(t *testing.T) {
	measure := func(workers int, metrics bool) (allocs float64) {
		db, tbl := itemsFixture(t, workers)
		db.SetMetricsEnabled(metrics)
		rows, during := 0, 0
		probe := func() {
			err := tbl.SelectProject([]string{"price"}, func(Row) bool {
				if rows++; rows == 1 {
					during = runtime.NumGoroutine()
				}
				return true
			}, Eq("subcat", IntVal(251)))
			if err != nil {
				t.Fatal(err)
			}
		}
		probe() // plan once, cache the pages
		rows = 0
		before := runtime.NumGoroutine()
		probe()
		if rows == 0 {
			t.Fatal("the probe matched nothing; fixture broken")
		}
		// (Fewer is an earlier test's goroutine winding down, not this probe.)
		if during > before {
			t.Errorf("workers %d: %d goroutines inside the row callback, %d before the call", workers, during, before)
		}
		return testing.AllocsPerRun(200, probe)
	}
	one, four := measure(1, true), measure(4, true)
	if one != four {
		t.Errorf("a warm point probe allocates %.1f times at Workers: 4 and %.1f at Workers: 1", four, one)
	}
	if off := measure(1, false); one > off+1 {
		t.Errorf("a warm point probe allocates %.1f times with metrics on and %.1f with metrics off, want at most one more", one, off)
	}
}

// TestPointAggregateStaysPoint guards the index-only point aggregate by
// count: `COUNT(*), AVG(price) WHERE subcat = k` resolves its one CM
// entry by direct lookup, so a warm statement allocates a small constant
// number of objects whether the CM holds 500 keys (the benchmark's
// fixture shape) or 5,000 — planning a point aggregate does not scale
// with the CM.
func TestPointAggregateStaysPoint(t *testing.T) {
	for _, keys := range []int{500, 5000} {
		db := Open(Config{BufferPoolPages: 4096})
		tbl, err := db.CreateTable(TableSpec{
			Name:        "items",
			Columns:     []Column{{Name: "cat", Kind: Int}, {Name: "subcat", Kind: Int}, {Name: "price", Kind: Int}},
			ClusteredBy: []string{"cat"},
			BucketPages: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]Row, 8*keys)
		for i := range rows {
			rows[i] = Row{IntVal(int64(i)), IntVal(int64(i / 8)), IntVal(int64(i % 97))}
		}
		if err := tbl.Load(rows); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
			t.Fatal(err)
		}
		spec := QuerySpec{Table: "items", Preds: []Pred{Eq("subcat", IntVal(int64(keys/2)))},
			Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "price"}}}
		info, err := db.ExplainSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		if info.Nodes[0].Kind != "cm-agg" || !strings.Contains(info.Nodes[0].Detail, "1 keys") || !strings.Contains(info.Nodes[0].Detail, "index-only") {
			t.Fatalf("%d keys: planned %s %q, want an index-only cm-agg over 1 key", keys, info.Nodes[0].Kind, info.Nodes[0].Detail)
		}
		run := func() {
			_, got, err := db.SelectAggregateCtx(context.Background(), spec)
			if err != nil || len(got) != 1 || got[0][0].Int() != 8 {
				t.Fatalf("%d keys: aggregate = %v, err %v; want one row counting 8", keys, got, err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(100, run); allocs > 100 {
			t.Errorf("a warm point aggregate over a %d-key CM allocates %.0f objects, want at most 100", keys, allocs)
		}
	}
}
