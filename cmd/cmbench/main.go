// Command cmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cmbench -exp figure3            # one experiment
//	cmbench -exp all                # everything (default)
//	cmbench -exp figure8 -scale 4   # scale row counts up
//
// Output is printed in the paper's table/series layout; elapsed values
// are virtual disk-bound times from the simulated disk (see DESIGN.md).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/buffer"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/load"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

var lazyJSON = flag.String("json", "BENCH_3.json", "output path for the -exp lazy JSON report")
var cmaggJSON = flag.String("cmagg-json", "BENCH_5.json", "output path for the -exp cmagg JSON report")
var mvccJSON = flag.String("mvcc-json", "BENCH_6.json", "output path for the -exp mvcc JSON report")
var obsJSON = flag.String("obs-json", "BENCH_7.json", "output path for the -exp obs JSON report")
var cacheJSON = flag.String("cache-json", "BENCH_9.json", "output path for the -exp cache JSON report")
var wireJSON = flag.String("wire-json", "BENCH_10.json", "output path for the -exp wire JSON report")

func main() {
	exp := flag.String("exp", "all", "experiment: figure1|figure2|figure3|table3|tables45|figure6|figure7|figure8|figure9|figure10|table6|parallel|lazy|agg|cmagg|mvcc|obs|cache|wire|all")
	scale := flag.Int("scale", 1, "row-count multiplier over the bench defaults")
	flag.Parse()

	if err := run(*exp, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

func run(exp string, scale int) error {
	if scale < 1 {
		scale = 1
	}
	all := exp == "all"
	ran := false
	out := os.Stdout

	section := func(name string) {
		fmt.Fprintf(out, "\n===== %s =====\n", name)
	}

	if all || exp == "figure1" {
		section("figure1")
		res, err := experiments.RunFigure1(experiments.Figure1Config{
			TPCH: datagen.TPCHConfig{Orders: 6000 * scale, Suppliers: 500 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure2" {
		section("figure2")
		res, err := experiments.RunFigure2(experiments.Figure2Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 400 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		best := res.Best()
		fmt.Fprintf(out, "best clustering: %s (%d queries >=2x)\n", best.ClusterAttr, best.Speedup2x)
		ran = true
	}
	if all || exp == "figure3" {
		section("figure3")
		res, err := experiments.RunFigure3(experiments.Figure3Config{Orders: 20000 * scale})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "table3" {
		section("table3")
		res, err := experiments.RunTable3(experiments.Table3Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "tables45" || exp == "table4" || exp == "table5" {
		section("tables 4 and 5")
		res, err := experiments.RunAdvisorTables(experiments.AdvisorTablesConfig{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure6" {
		section("figure6")
		res, err := experiments.RunFigure6(experiments.Figure6Config{
			EBay: datagen.EBayConfig{Categories: 600 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure7" {
		section("figure7")
		res, err := experiments.RunFigure7(experiments.Figure7Config{
			EBay: datagen.EBayConfig{Categories: 600 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure8" {
		section("figure8")
		res, err := experiments.RunFigure8(experiments.Figure8Config{
			EBay:       datagen.EBayConfig{Categories: 300 * scale},
			InsertRows: 50000 * scale,
			BatchSize:  5000,
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure9" {
		section("figure9")
		res, err := experiments.RunFigure9(experiments.Figure9Config{
			EBay: datagen.EBayConfig{Categories: 300 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "figure10" {
		section("figure10")
		res, err := experiments.RunFigure10(experiments.Figure10Config{
			EBay: datagen.EBayConfig{Categories: 600 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "table6" {
		section("table6")
		res, err := experiments.RunTable6(experiments.Table6Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200 * scale},
		})
		if err != nil {
			return err
		}
		res.Print(out)
		ran = true
	}
	if all || exp == "parallel" {
		section("parallel scans")
		if err := runParallel(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "lazy" {
		section("lazy materialization")
		if err := runLazy(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "agg" {
		section("streaming aggregation")
		if err := runAgg(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "cmagg" {
		section("CM aggregation pushdown")
		if err := runCMAgg(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "mvcc" {
		section("MVCC snapshot reads under update churn")
		if err := runMVCC(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "obs" {
		section("observability overhead")
		if err := runObs(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "cache" {
		section("scan-resistant caching + bloom probes")
		if err := runCache(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if all || exp == "wire" {
		section("cross-connection coalescing over the wire")
		if err := runWire(scale, out); err != nil {
			return err
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (try %s)", exp,
			strings.Join([]string{"figure1", "figure2", "figure3", "table3", "tables45",
				"figure6", "figure7", "figure8", "figure9", "figure10", "table6", "parallel", "lazy", "agg", "cmagg", "mvcc", "obs", "cache", "wire", "all"}, "|"))
	}
	return nil
}

// metricsSnapshot embeds the engine's headline observability counters
// into a BENCH JSON document, so every stored experiment result carries
// the I/O profile that produced it: pages moved, buffer effectiveness
// and real I/O wait (nonzero only under IOWaitScale).
type metricsSnapshot struct {
	PagesRead      int64   `json:"pages_read"`
	PagesWritten   int64   `json:"pages_written"`
	BufferHits     int64   `json:"buffer_hits"`
	BufferMisses   int64   `json:"buffer_misses"`
	BufferHitRatio float64 `json:"buffer_hit_ratio"`
	IOWaitMs       float64 `json:"io_wait_ms"`
}

// newSnapshot assembles a snapshot from raw counter values.
func newSnapshot(reads, writes, hits, misses, ioWaitNS int64) metricsSnapshot {
	s := metricsSnapshot{
		PagesRead:    reads,
		PagesWritten: writes,
		BufferHits:   hits,
		BufferMisses: misses,
		IOWaitMs:     float64(ioWaitNS) / 1e6,
	}
	if hits+misses > 0 {
		s.BufferHitRatio = float64(hits) / float64(hits+misses)
	}
	return s
}

// snapshotDB reads a snapshot from a database's metrics registry.
func snapshotDB(db *repro.DB) metricsSnapshot {
	vals := make(map[string]int64)
	for _, m := range db.Metrics("") {
		vals[m.Name] = m.Value
	}
	return newSnapshot(vals["disk.reads"], vals["disk.writes"],
		vals["pool.hits"], vals["pool.misses"], vals["disk.io_wait_ns"])
}

// runParallel measures the concurrent read path on a Figure-6-style
// correlated workload: a table clustered on category with a CM over the
// correlated subcategory attribute. Unlike the figure experiments, the
// reported times are host wall-clock milliseconds against a disk
// configured with IOWaitScale, so queries block for (scaled) real I/O
// time and concurrent workers overlap their waits — the regime where
// the parallel executor and SelectMany pay off.
func runParallel(scale int, out *os.File) error {
	const queries = 64
	rows := 100000 * scale

	build := func(workers int) (*repro.DB, *repro.Table, error) {
		// A deliberately small buffer pool keeps the working set
		// disk-resident, and IOWaitScale makes each access block for
		// scaled real time — the disk-bound regime of the paper, where
		// overlapping I/O is what parallelism buys.
		db := repro.Open(repro.Config{Workers: workers, IOWaitScale: 5, BufferPoolPages: 256})
		tbl, err := db.CreateTable(repro.TableSpec{
			Name: "items",
			Columns: []repro.Column{
				{Name: "cat", Kind: repro.Int},
				{Name: "subcat", Kind: repro.Int},
				{Name: "price", Kind: repro.Int},
				{Name: "desc", Kind: repro.String},
			},
			ClusteredBy: []string{"cat"},
			BucketPages: 1, // fine buckets: few CM false positives
		})
		if err != nil {
			return nil, nil, err
		}
		items := datagen.CorrelatedItems(rows)
		data := make([]repro.Row, len(items))
		for i, it := range items {
			data[i] = repro.Row{
				repro.IntVal(it.Cat),
				repro.IntVal(it.Subcat),
				repro.IntVal(it.Price),
				repro.StringVal(it.Desc),
			}
		}
		if err := tbl.Load(data); err != nil {
			return nil, nil, err
		}
		if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
			return nil, nil, err
		}
		return db, tbl, nil
	}

	// Figure-6-style lookups: an IN-list of subcategories scattered
	// across the domain, answered through the CM as many disjoint
	// clustered-bucket runs — the unit of work the executor fans out.
	preds := func(q int) []repro.Pred {
		subcats := datagen.CorrelatedLookup(q, 16)
		vals := make([]repro.Value, len(subcats))
		for i, s := range subcats {
			vals[i] = repro.IntVal(s)
		}
		return []repro.Pred{repro.In("subcat", vals...)}
	}

	fmt.Fprintf(out, "%d rows, %d CM-scan queries, wall-clock times (IOWaitScale 5)\n", rows, queries)
	fmt.Fprintf(out, "%-8s %14s %14s %14s\n", "workers", "1 query [ms]", "batch [ms]", "batch speedup")
	var base time.Duration
	for _, w := range []int{1, 2, 4, 8} {
		db, tbl, err := build(w)
		if err != nil {
			return err
		}
		if err := db.ColdCache(); err != nil {
			return err
		}
		start := time.Now()
		n := 0
		err = tbl.SelectVia(repro.CMScan, func(repro.Row) bool { n++; return true }, preds(0)...)
		if err != nil {
			return err
		}
		single := time.Since(start)

		specs := make([]repro.QuerySpec, queries)
		for q := range specs {
			specs[q] = repro.QuerySpec{Table: "items", Via: repro.CMScan, Preds: preds(q)}
		}
		if err := db.ColdCache(); err != nil {
			return err
		}
		start = time.Now()
		for _, res := range db.SelectMany(specs) {
			if res.Err != nil {
				return res.Err
			}
		}
		batch := time.Since(start)
		if w == 1 {
			base = batch
		}
		fmt.Fprintf(out, "%-8d %14.1f %14.1f %13.2fx\n", w,
			float64(single.Microseconds())/1000,
			float64(batch.Microseconds())/1000,
			float64(base)/float64(batch))
	}
	return nil
}

// lazyVariant is one engine configuration measured by the lazy
// experiment.
type lazyVariant struct {
	Name         string  `json:"name"`
	Millis       float64 `json:"ms"`
	RowsPerSec   float64 `json:"rows_per_s"`
	AllocsPerRow float64 `json:"allocs_per_row"`
	Matches      int     `json:"matches"`
}

// lazyReport is the BENCH_3.json document: the before/after table for
// the lazy materialization engine.
type lazyReport struct {
	Experiment string          `json:"experiment"`
	Rows       int             `json:"rows"`
	Query      string          `json:"query"`
	Variants   []lazyVariant   `json:"variants"`
	Metrics    metricsSnapshot `json:"metrics"`
}

// runLazy measures the row-materialization path on the Figure-6-style
// correlated workload: the pre-engine baseline (DecodeRow every tuple,
// then filter the materialized row) against the compiled tuple filter
// (filter on encoded bytes, materialize survivors) and the compiled
// filter with projection pushdown (survivors decode one column). The
// buffer pool holds the whole table and the disk runs without real
// waits, so the numbers isolate decode CPU and allocation — the
// bottleneck PR 1 found. Results print as a table and are written as
// JSON (BENCH_3.json) for the perf trajectory.
func runLazy(scale int, out *os.File) error {
	rows := 60000 * scale
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 4096)
	sch := table.NewSchema(
		table.Column{Name: "cat", Kind: value.Int},
		table.Column{Name: "subcat", Kind: value.Int},
		table.Column{Name: "price", Kind: value.Int},
		table.Column{Name: "desc", Kind: value.String},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "items", Schema: sch, ClusteredCols: []int{0}, BucketPages: 1})
	if err != nil {
		return err
	}
	items := datagen.CorrelatedItems(rows)
	data := make([]value.Row, len(items))
	for i, it := range items {
		data[i] = value.Row{
			value.NewInt(it.Cat), value.NewInt(it.Subcat),
			value.NewInt(it.Price), value.NewString(it.Desc),
		}
	}
	if err := tbl.Load(data); err != nil {
		return err
	}
	q := exec.NewQuery(exec.Le(2, value.NewInt(5000)))
	proj := q
	proj.Proj = []int{2}

	// decode-all: the pre-lazy engine — materialize every tuple, then
	// filter the row.
	decodeAll := func() (int, error) {
		n := 0
		err := tbl.Scan(func(rid heap.RID, row value.Row) bool {
			if q.Matches(row) {
				n++
			}
			return true
		})
		return n, err
	}
	compiled := func() (int, error) {
		n := 0
		err := exec.TableScan(tbl, q, 1, func(heap.RID, value.Row) bool { n++; return true })
		return n, err
	}
	projected := func() (int, error) {
		n := 0
		err := exec.TableScan(tbl, proj, 1, func(heap.RID, value.Row) bool { n++; return true })
		return n, err
	}

	measure := func(name string, fn func() (int, error)) (lazyVariant, error) {
		if _, err := fn(); err != nil { // warm the pool
			return lazyVariant{}, err
		}
		const reps = 5
		var m1, m2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m1)
		start := time.Now()
		n := 0
		for r := 0; r < reps; r++ {
			var err error
			n, err = fn()
			if err != nil {
				return lazyVariant{}, err
			}
		}
		wall := time.Since(start) / reps
		runtime.ReadMemStats(&m2)
		allocs := float64(m2.Mallocs-m1.Mallocs) / reps
		return lazyVariant{
			Name:         name,
			Millis:       float64(wall.Microseconds()) / 1000,
			RowsPerSec:   float64(rows) / wall.Seconds(),
			AllocsPerRow: allocs / float64(rows),
			Matches:      n,
		}, nil
	}

	report := lazyReport{Experiment: "lazy", Rows: rows, Query: "price <= 5000, project (price)"}
	variants := []struct {
		name string
		fn   func() (int, error)
	}{
		{"decode-all (pre-lazy baseline)", decodeAll},
		{"compiled filter", compiled},
		{"compiled filter + projection", projected},
	}
	fmt.Fprintf(out, "%d rows, warm pool, wall-clock CPU cost of the scan path\n", rows)
	fmt.Fprintf(out, "%-32s %10s %14s %12s\n", "variant", "ms", "rows/s", "allocs/row")
	for _, v := range variants {
		res, err := measure(v.name, v.fn)
		if err != nil {
			return err
		}
		report.Variants = append(report.Variants, res)
		fmt.Fprintf(out, "%-32s %10.2f %14.0f %12.2f\n", res.Name, res.Millis, res.RowsPerSec, res.AllocsPerRow)
	}
	ds, ps := disk.Stats(), pool.Stats()
	report.Metrics = newSnapshot(int64(ds.Reads), int64(ds.Writes),
		int64(ps.Hits), int64(ps.Misses), ds.IOWait.Nanoseconds())
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*lazyJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *lazyJSON)
	return nil
}

// cmaggVariant is one engine configuration measured by the cmagg
// experiment.
type cmaggVariant struct {
	Name      string  `json:"name"`
	Workers   int     `json:"workers"`
	Millis    float64 `json:"ms"`
	PagesRead uint64  `json:"pages_read"`
	Result    string  `json:"result"`
}

// cmaggReport is the BENCH_5.json document: index-only vs heap-sweep
// aggregation on the paper's AVG workload.
type cmaggReport struct {
	Experiment string          `json:"experiment"`
	Rows       int             `json:"rows"`
	Query      string          `json:"query"`
	Variants   []cmaggVariant  `json:"variants"`
	Metrics    metricsSnapshot `json:"metrics"`
}

// runCMAgg measures aggregation pushdown into the CM on the paper's own
// query shape — AVG over a correlated equality predicate — against the
// heap-visiting aggregation, from a cold cache so the disk counters
// show exactly what each plan reads. The index-only plan must read zero
// pages and return the byte-identical result; both are asserted, so the
// CI smoke job fails if the pushdown regresses.
func runCMAgg(scale int, out *os.File) error {
	rows := 100000 * scale

	build := func(workers int) (*repro.DB, error) {
		db := repro.Open(repro.Config{Workers: workers, BufferPoolPages: 256})
		tbl, err := db.CreateTable(repro.TableSpec{
			Name: "items",
			Columns: []repro.Column{
				{Name: "cat", Kind: repro.Int},
				{Name: "subcat", Kind: repro.Int},
				{Name: "price", Kind: repro.Int},
				{Name: "desc", Kind: repro.String},
			},
			ClusteredBy: []string{"cat"},
			BucketPages: 1,
		})
		if err != nil {
			return nil, err
		}
		items := datagen.CorrelatedItems(rows)
		data := make([]repro.Row, len(items))
		for i, it := range items {
			data[i] = repro.Row{
				repro.IntVal(it.Cat),
				repro.IntVal(it.Subcat),
				repro.IntVal(it.Price),
				repro.StringVal(it.Desc),
			}
		}
		if err := tbl.Load(data); err != nil {
			return nil, err
		}
		if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
			return nil, err
		}
		return db, nil
	}

	subcats := datagen.CorrelatedLookup(0, 16)
	vals := make([]repro.Value, len(subcats))
	for i, s := range subcats {
		vals[i] = repro.IntVal(s)
	}
	spec := repro.QuerySpec{
		Table: "items",
		Preds: []repro.Pred{repro.In("subcat", vals...)},
		Aggs:  []repro.Agg{{Func: repro.Count}, {Func: repro.Avg, Col: "price"}},
	}

	report := cmaggReport{Experiment: "cmagg", Rows: rows,
		Query: "SELECT count(*), avg(price) WHERE subcat IN (16 values)"}
	fmt.Fprintf(out, "%d rows, index-only cm-agg vs heap-sweep aggregation, cold cache\n", rows)
	fmt.Fprintf(out, "%-24s %8s %12s %12s\n", "variant", "workers", "ms", "pages read")

	var indexOnlyResult, heapResult string
	var lastDB *repro.DB
	for _, w := range []int{1, 8} {
		db, err := build(w)
		if err != nil {
			return err
		}
		lastDB = db
		measure := func(name string, s repro.QuerySpec) (cmaggVariant, error) {
			if err := db.ColdCache(); err != nil {
				return cmaggVariant{}, err
			}
			db.ResetStats()
			start := time.Now()
			_, rows, err := db.SelectAggregate(s)
			if err != nil {
				return cmaggVariant{}, err
			}
			wall := time.Since(start)
			v := cmaggVariant{
				Name:      name,
				Workers:   w,
				Millis:    float64(wall.Microseconds()) / 1000,
				PagesRead: db.Stats().Reads,
				Result:    fmt.Sprintf("%v", rows[0]),
			}
			fmt.Fprintf(out, "%-24s %8d %12.2f %12d\n", v.Name, v.Workers, v.Millis, v.PagesRead)
			report.Variants = append(report.Variants, v)
			return v, nil
		}
		cm, err := measure("cm-agg (index-only)", spec)
		if err != nil {
			return err
		}
		heap, err := measure("table-scan (heap sweep)", withVia(spec, repro.TableScan))
		if err != nil {
			return err
		}
		// The acceptance assertions: zero pages for the pushdown, pages
		// for the sweep, identical results.
		if cm.PagesRead != 0 {
			return fmt.Errorf("cmagg: index-only plan read %d pages, want 0", cm.PagesRead)
		}
		if heap.PagesRead == 0 {
			return fmt.Errorf("cmagg: heap sweep read 0 pages — counters not engaged")
		}
		if cm.Result != heap.Result {
			return fmt.Errorf("cmagg: results diverge: %s vs %s", cm.Result, heap.Result)
		}
		if w == 1 {
			indexOnlyResult, heapResult = cm.Result, heap.Result
		} else if cm.Result != indexOnlyResult || heap.Result != heapResult {
			return fmt.Errorf("cmagg: results vary with workers")
		}
	}

	// The snapshot carries the final measured run's I/O profile (the
	// 8-worker heap sweep; each measure resets the counters first).
	report.Metrics = snapshotDB(lastDB)
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*cmaggJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *cmaggJSON)
	return nil
}

// withVia copies a spec with a forced access method.
func withVia(spec repro.QuerySpec, via repro.AccessMethod) repro.QuerySpec {
	spec.Via = via
	return spec
}

// mvccReport is the BENCH_6.json document: reader tail latency with and
// without a concurrent UPDATE writer churning the table.
type mvccReport struct {
	Experiment    string          `json:"experiment"`
	Rows          int             `json:"rows"`
	Query         string          `json:"query"`
	BaselineReads int             `json:"baseline_reads"`
	ChurnReads    int             `json:"churn_reads"`
	RowsUpdated   int64           `json:"rows_updated"`
	BaselineP99Ms float64         `json:"baseline_p99_ms"`
	ChurnP99Ms    float64         `json:"churn_p99_ms"`
	P99Ratio      float64         `json:"p99_ratio"`
	Metrics       metricsSnapshot `json:"metrics"`
}

// p99 returns the 99th-percentile of the samples.
func p99(ds []time.Duration) time.Duration {
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[len(sorted)*99/100]
}

// runMVCC measures what snapshot reads buy: reader p99 latency on a
// warm 100k-row table, first alone, then while one writer continuously
// rewrites rows with UPDATE statements covering at least 10% of the
// table. Under MVCC readers never wait for the writer (they read their
// captured snapshot past the writer's in-flight versions), so the churn
// p99 must stay within 1.5x of the quiet baseline — asserted here, so
// the CI job fails if writers start blocking readers again. Results are
// written as JSON (BENCH_6.json) for the perf trajectory.
func runMVCC(scale int, out *os.File) error {
	rows := 100000 * scale
	db := repro.Open(repro.Config{Workers: 4, BufferPoolPages: 4096})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name: "items",
		Columns: []repro.Column{
			{Name: "cat", Kind: repro.Int},
			{Name: "subcat", Kind: repro.Int},
			{Name: "price", Kind: repro.Int},
			{Name: "desc", Kind: repro.String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		return err
	}
	items := datagen.CorrelatedItems(rows)
	data := make([]repro.Row, len(items))
	for i, it := range items {
		data[i] = repro.Row{
			repro.IntVal(it.Cat),
			repro.IntVal(it.Subcat),
			repro.IntVal(it.Price),
			repro.StringVal(it.Desc),
		}
	}
	if err := tbl.Load(data); err != nil {
		return err
	}
	if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
		return err
	}

	// Each read sweeps 64 scattered subcategory slices (~13k rows) so a
	// single read is a substantial statement; the writer's per-statement
	// burst is small against it, which is exactly the regime where
	// blocking (if writers still excluded readers) would show up as a
	// multiple of the baseline rather than noise.
	lookup := func(q int) []repro.Pred {
		subcats := datagen.CorrelatedLookup(q, 64)
		vals := make([]repro.Value, len(subcats))
		for i, s := range subcats {
			vals[i] = repro.IntVal(s)
		}
		return []repro.Pred{repro.In("subcat", vals...)}
	}
	readOnce := func(q int) (time.Duration, error) {
		start := time.Now()
		n := 0
		err := tbl.SelectVia(repro.CMScan, func(repro.Row) bool { n++; return true }, lookup(q)...)
		if err == nil && n == 0 {
			err = fmt.Errorf("mvcc: reader query %d matched no rows", q)
		}
		return time.Since(start), err
	}

	// Warm the pool: latencies below measure the latch/visibility path,
	// not disk.
	for q := 0; q < 8; q++ {
		if _, err := readOnce(q); err != nil {
			return err
		}
	}

	const reads = 400
	baseline := make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		d, err := readOnce(i)
		if err != nil {
			return err
		}
		baseline = append(baseline, d)
	}

	// Churn phase: the writer UPDATEs one clustered category slice
	// (~25 rows) per statement, paced across the whole read window, and
	// keeps going until the readers finish AND at least 10% of the rows
	// have been rewritten. Statements stay small so the workload models
	// an OLTP writer trickling over the table rather than a bulk
	// rewrite monopolizing the (possibly single) CPU — the measurement
	// isolates reader blocking, which is what MVCC removes.
	target := int64(rows / 10)
	var updated atomic.Int64
	var stop atomic.Bool
	writerDone := make(chan error, 1)
	go func() {
		for k := 0; !stop.Load() || updated.Load() < target; k++ {
			cat := int64((k * 13) % datagen.CorrelatedCats)
			n, err := tbl.Update(
				[]repro.Set{{Col: "price", Val: repro.IntVal(int64(k))}},
				repro.Eq("cat", repro.IntVal(cat)))
			if err != nil {
				writerDone <- err
				return
			}
			updated.Add(n)
			if !stop.Load() {
				time.Sleep(5 * time.Millisecond)
			}
		}
		writerDone <- nil
	}()

	churn := make([]time.Duration, 0, reads)
	for i := 0; i < reads; i++ {
		d, err := readOnce(i)
		if err != nil {
			stop.Store(true)
			<-writerDone
			return err
		}
		churn = append(churn, d)
	}
	stop.Store(true)
	if err := <-writerDone; err != nil {
		return err
	}

	report := mvccReport{
		Experiment:    "mvcc",
		Rows:          rows,
		Query:         "SELECT * WHERE subcat IN (64 values) via CM, warm pool",
		BaselineReads: len(baseline),
		ChurnReads:    len(churn),
		RowsUpdated:   updated.Load(),
		BaselineP99Ms: float64(p99(baseline).Microseconds()) / 1000,
		ChurnP99Ms:    float64(p99(churn).Microseconds()) / 1000,
	}
	report.P99Ratio = report.ChurnP99Ms / report.BaselineP99Ms
	report.Metrics = snapshotDB(db)

	fmt.Fprintf(out, "%d rows, %d reads/phase, writer rewrote %d rows (>= 10%% of table)\n",
		rows, reads, report.RowsUpdated)
	fmt.Fprintf(out, "%-28s %14s\n", "phase", "read p99 [ms]")
	fmt.Fprintf(out, "%-28s %14.3f\n", "no writer (baseline)", report.BaselineP99Ms)
	fmt.Fprintf(out, "%-28s %14.3f\n", "update churn", report.ChurnP99Ms)
	fmt.Fprintf(out, "p99 ratio: %.2fx\n", report.P99Ratio)

	if report.RowsUpdated < target {
		return fmt.Errorf("mvcc: writer rewrote %d rows, want >= %d", report.RowsUpdated, target)
	}
	if report.P99Ratio > 1.5 {
		return fmt.Errorf("mvcc: churn p99 %.3fms is %.2fx the %.3fms baseline (cap 1.5x) — writers are blocking readers",
			report.ChurnP99Ms, report.P99Ratio, report.BaselineP99Ms)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*mvccJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *mvccJSON)
	return nil
}

// runAgg measures the streaming-aggregation engine on the paper's own
// query shape — AVG over a correlated predicate (Section 1's
// SELECT AVG(salary) example) — at the Figure-6 workload scale: the
// CM resolves the IN-list to clustered-bucket runs, tuples filter on
// encoded bytes, and survivors fold into per-chunk partial aggregates
// (AVG carried as sum+count) merged at the barrier. Results must be
// byte-identical at every worker count; the table prints the wall-clock
// effect of overlapping the chunk I/O.
func runAgg(scale int, out *os.File) error {
	rows := 100000 * scale

	build := func(workers int) (*repro.DB, error) {
		db := repro.Open(repro.Config{Workers: workers, IOWaitScale: 5, BufferPoolPages: 256})
		tbl, err := db.CreateTable(repro.TableSpec{
			Name: "items",
			Columns: []repro.Column{
				{Name: "cat", Kind: repro.Int},
				{Name: "subcat", Kind: repro.Int},
				{Name: "price", Kind: repro.Int},
				{Name: "desc", Kind: repro.String},
			},
			ClusteredBy: []string{"cat"},
			BucketPages: 1,
		})
		if err != nil {
			return nil, err
		}
		items := datagen.CorrelatedItems(rows)
		data := make([]repro.Row, len(items))
		for i, it := range items {
			data[i] = repro.Row{
				repro.IntVal(it.Cat),
				repro.IntVal(it.Subcat),
				repro.IntVal(it.Price),
				repro.StringVal(it.Desc),
			}
		}
		if err := tbl.Load(data); err != nil {
			return nil, err
		}
		if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
			return nil, err
		}
		return db, nil
	}

	subcats := datagen.CorrelatedLookup(0, 16)
	vals := make([]repro.Value, len(subcats))
	for i, s := range subcats {
		vals[i] = repro.IntVal(s)
	}
	spec := repro.QuerySpec{
		Table:   "items",
		Preds:   []repro.Pred{repro.In("subcat", vals...)},
		Aggs:    []repro.Agg{{Func: repro.Count}, {Func: repro.Avg, Col: "price"}},
		GroupBy: []string{"cat"},
		OrderBy: []repro.Order{{Col: "count(*)", Desc: true}},
	}

	fmt.Fprintf(out, "%d rows, SELECT count(*), avg(price) WHERE subcat IN (16 values) GROUP BY cat (IOWaitScale 5)\n", rows)
	fmt.Fprintf(out, "%-8s %12s %10s %9s\n", "workers", "elapsed [ms]", "groups", "speedup")
	var base time.Duration
	var ref []repro.Row
	for _, w := range []int{1, 2, 4, 8} {
		db, err := build(w)
		if err != nil {
			return err
		}
		if err := db.ColdCache(); err != nil {
			return err
		}
		start := time.Now()
		_, groups, err := db.SelectAggregate(spec)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		if w == 1 {
			base = elapsed
			ref = groups
		} else if len(groups) != len(ref) {
			return fmt.Errorf("agg: %d workers returned %d groups, serial %d", w, len(groups), len(ref))
		} else {
			// The merge contract: byte-identical to serial, AVG included.
			for i := range groups {
				for j := range groups[i] {
					if groups[i][j].String() != ref[i][j].String() {
						return fmt.Errorf("agg: %d workers diverged at group %d col %d: %s != %s",
							w, i, j, groups[i][j], ref[i][j])
					}
				}
			}
		}
		fmt.Fprintf(out, "%-8d %12.1f %10d %8.2fx\n",
			w, float64(elapsed.Microseconds())/1000, len(groups), float64(base)/float64(elapsed))
	}
	return nil
}

// obsReport is the BENCH_7.json document: the price of the
// observability layer on the hottest path the engine has.
type obsReport struct {
	Experiment   string          `json:"experiment"`
	Rows         int             `json:"rows"`
	Query        string          `json:"query"`
	Trials       int             `json:"trials"`
	RepsPerTrial int             `json:"reps_per_trial"`
	MetricsOffMs float64         `json:"metrics_off_ms"`
	MetricsOnMs  float64         `json:"metrics_on_ms"`
	OverheadPct  float64         `json:"overhead_pct"`
	AnalyzeMs    float64         `json:"explain_analyze_ms"`
	Metrics      metricsSnapshot `json:"metrics"`
}

// minOf returns the smallest sample.
func minOf(ds []time.Duration) time.Duration {
	best := ds[0]
	for _, d := range ds[1:] {
		if d < best {
			best = d
		}
	}
	return best
}

// runObs measures what query-path instrumentation costs: a hot,
// pool-resident CM scan timed with metrics disabled and enabled,
// interleaved trial pairs in alternating order (so machine drift hits
// both sides equally) reduced by the per-state minimum — for a pure CPU
// loop the best observed time is the run least disturbed by the
// scheduler, the estimator least sensitive to shared-machine noise.
// The enabled path adds one query-histogram record per statement and
// one atomic flush per scan chunk — per-chunk work is plain local
// ints — so the overhead must stay within 5%, asserted here for the CI
// gate. An EXPLAIN ANALYZE of the same query reports the (deliberately
// unbounded) cost of the always-opt-in deep measurement as sanity
// context.
func runObs(scale int, out *os.File) error {
	rows := 60000 * scale
	db := repro.Open(repro.Config{Workers: 1, BufferPoolPages: 4096})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name: "items",
		Columns: []repro.Column{
			{Name: "cat", Kind: repro.Int},
			{Name: "subcat", Kind: repro.Int},
			{Name: "price", Kind: repro.Int},
			{Name: "desc", Kind: repro.String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		return err
	}
	items := datagen.CorrelatedItems(rows)
	data := make([]repro.Row, len(items))
	for i, it := range items {
		data[i] = repro.Row{
			repro.IntVal(it.Cat),
			repro.IntVal(it.Subcat),
			repro.IntVal(it.Price),
			repro.StringVal(it.Desc),
		}
	}
	if err := tbl.Load(data); err != nil {
		return err
	}
	if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
		return err
	}

	subcats := datagen.CorrelatedLookup(0, 16)
	vals := make([]repro.Value, len(subcats))
	for i, s := range subcats {
		vals[i] = repro.IntVal(s)
	}
	preds := []repro.Pred{repro.In("subcat", vals...)}
	queryOnce := func() (int, error) {
		n := 0
		err := tbl.SelectVia(repro.CMScan, func(repro.Row) bool { n++; return true }, preds...)
		return n, err
	}

	// Warm the pool: the measurement isolates the CPU cost of the scan
	// path, where the per-chunk tally lives.
	matches := 0
	for i := 0; i < 2; i++ {
		if matches, err = queryOnce(); err != nil {
			return err
		}
	}
	if matches == 0 {
		return fmt.Errorf("obs: query matched no rows")
	}

	const trials, reps = 9, 20
	timeTrial := func() (time.Duration, error) {
		start := time.Now()
		for r := 0; r < reps; r++ {
			if _, err := queryOnce(); err != nil {
				return 0, err
			}
		}
		return time.Since(start) / reps, nil
	}
	defer db.SetMetricsEnabled(true)
	var offs, ons []time.Duration
	measure := func(on bool) error {
		db.SetMetricsEnabled(on)
		d, err := timeTrial()
		if err != nil {
			return err
		}
		if on {
			ons = append(ons, d)
		} else {
			offs = append(offs, d)
		}
		return nil
	}
	for t := 0; t < trials; t++ {
		first := t%2 == 0 // alternate which state runs first
		if err := measure(first); err != nil {
			return err
		}
		if err := measure(!first); err != nil {
			return err
		}
	}

	report := obsReport{
		Experiment:   "obs",
		Rows:         rows,
		Query:        "SELECT * WHERE subcat IN (16 values) via CM, warm pool",
		Trials:       trials,
		RepsPerTrial: reps,
		MetricsOffMs: float64(minOf(offs).Microseconds()) / 1000,
		MetricsOnMs:  float64(minOf(ons).Microseconds()) / 1000,
	}
	report.OverheadPct = (report.MetricsOnMs - report.MetricsOffMs) / report.MetricsOffMs * 100

	start := time.Now()
	info, err := db.ExplainAnalyzeSpec(repro.QuerySpec{Table: "items", Via: repro.CMScan, Preds: preds})
	if err != nil {
		return err
	}
	report.AnalyzeMs = float64(time.Since(start).Microseconds()) / 1000
	if info.Analyzed == nil || info.Analyzed.Rows != int64(matches) {
		return fmt.Errorf("obs: EXPLAIN ANALYZE returned %+v, want %d rows", info.Analyzed, matches)
	}
	report.Metrics = snapshotDB(db)

	fmt.Fprintf(out, "%d rows, hot CM scan, best of %d trials x %d reps\n", rows, trials, reps)
	fmt.Fprintf(out, "%-24s %12s\n", "variant", "ms/query")
	fmt.Fprintf(out, "%-24s %12.3f\n", "metrics off", report.MetricsOffMs)
	fmt.Fprintf(out, "%-24s %12.3f\n", "metrics on", report.MetricsOnMs)
	fmt.Fprintf(out, "overhead: %.2f%%  (explain analyze: %.3f ms)\n", report.OverheadPct, report.AnalyzeMs)

	if report.OverheadPct > 5.0 {
		return fmt.Errorf("obs: metrics overhead %.2f%% is past the 5%% budget (off %.3fms, on %.3fms)",
			report.OverheadPct, report.MetricsOffMs, report.MetricsOnMs)
	}

	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*obsJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *obsJSON)
	return nil
}

// cacheReport is the BENCH_9.json document: hot-probe tail latency
// under a concurrent full-table sweep with admission off vs on, plus
// the bloom-probe half (absent-key point probes on a cold cache).
type cacheReport struct {
	Experiment       string          `json:"experiment"`
	Rows             int             `json:"rows"`
	PoolPages        int             `json:"pool_pages"`
	TablePages       int64           `json:"table_pages"`
	HotKeys          int             `json:"hot_keys"`
	Probes           int             `json:"probes"`
	P99NoAdmissionMs float64         `json:"p99_no_admission_ms"`
	P99AdmissionMs   float64         `json:"p99_admission_ms"`
	P99Ratio         float64         `json:"p99_ratio"`
	Admitted         int64           `json:"admitted"`
	Rejected         int64           `json:"rejected"`
	SketchResets     int64           `json:"sketch_resets"`
	IndexBloomSkips  int64           `json:"index_bloom_skips"`
	CMBloomSkips     int64           `json:"cm_bloom_skips"`
	AbsentProbeReads int64           `json:"absent_probe_reads"`
	Metrics          metricsSnapshot `json:"metrics"`
}

// metricVal reads one named metric from a DB's registry snapshot.
func metricVal(db *repro.DB, name string) int64 {
	for _, m := range db.Metrics(name) {
		if m.Name == name {
			return m.Value
		}
	}
	return 0
}

// cacheHotProbes builds a padded table several times larger than the
// buffer pool, warms a small hot set of point-probe pages, then times
// repeated hot probes while a background goroutine sweeps the full
// table continuously. Returns the probe latencies and the pool's
// admission counters. The same deterministic workload runs with
// admission off and on; only Config.ScanResistant differs.
func cacheHotProbes(scanResistant bool, rows, poolPages, hotKeys, probes int) (
	[]time.Duration, int64, int64, int64, int64, *repro.DB, error) {
	db := repro.Open(repro.Config{
		Workers:         4,
		IOWaitScale:     8,
		BufferPoolPages: poolPages,
		ScanResistant:   scanResistant,
	})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name: "padded",
		Columns: []repro.Column{
			{Name: "c", Kind: repro.Int},
			{Name: "u", Kind: repro.Int},
			{Name: "pad", Kind: repro.String},
		},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}
	pad := strings.Repeat("x", 200)
	data := make([]repro.Row, rows)
	for i := range data {
		data[i] = repro.Row{repro.IntVal(int64(i)), repro.IntVal(int64(i)), repro.StringVal(pad)}
	}
	if err := tbl.Load(data); err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}
	if err := db.ColdCache(); err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}

	// The hot set: point probes spread across the heap, repeated until
	// their frequency estimates dwarf any sweep page's single touch.
	hot := make([]int64, hotKeys)
	for i := range hot {
		hot[i] = int64(i * rows / hotKeys)
	}
	probe := func(key int64) (int, error) {
		n := 0
		err := tbl.SelectVia(repro.PipelinedIndexScan, func(repro.Row) bool {
			n++
			return true
		}, repro.Eq("u", repro.IntVal(key)))
		return n, err
	}
	for round := 0; round < 24; round++ {
		for _, k := range hot {
			if n, err := probe(k); err != nil {
				return nil, 0, 0, 0, 0, nil, err
			} else if n != 1 {
				return nil, 0, 0, 0, 0, nil, fmt.Errorf("cache: warm probe for %d saw %d rows, want 1", k, n)
			}
		}
	}

	// Background sweeper: full table scans, back to back, until the
	// timed probes finish. Each sweep touches every heap page — the
	// workload that flushes an unprotected pool.
	var stop atomic.Bool
	done := make(chan error, 1)
	go func() {
		for !stop.Load() {
			n := 0
			if err := tbl.SelectVia(repro.TableScan, func(repro.Row) bool { n++; return true }); err != nil {
				done <- err
				return
			}
			if n != rows {
				done <- fmt.Errorf("cache: sweep saw %d rows, want %d", n, rows)
				return
			}
		}
		done <- nil
	}()

	lat := make([]time.Duration, 0, probes)
	for i := 0; i < probes; i++ {
		k := hot[i%len(hot)]
		start := time.Now()
		n, err := probe(k)
		if err != nil {
			stop.Store(true)
			<-done
			return nil, 0, 0, 0, 0, nil, err
		}
		lat = append(lat, time.Since(start))
		if n != 1 {
			stop.Store(true)
			<-done
			return nil, 0, 0, 0, 0, nil, fmt.Errorf("cache: hot probe for %d saw %d rows, want 1", k, n)
		}
	}
	stop.Store(true)
	if err := <-done; err != nil {
		return nil, 0, 0, 0, 0, nil, err
	}

	admitted := metricVal(db, "pool.admitted")
	rejected := metricVal(db, "pool.rejected")
	resets := metricVal(db, "pool.sketch_resets")
	hits := metricVal(db, "pool.hits")
	return lat, admitted, rejected, resets, hits, db, nil
}

// runCache measures this PR's two cache layers. Admission: p99 latency
// of hot point probes racing a continuous full-table sweep on a pool
// far smaller than the table, with W-TinyLFU off then on — the hot
// working set must survive the sweep, and p99 must improve at least
// 2x (asserted here, so CI fails if scan resistance regresses). Bloom
// probes: with ProbeBlooms, absent-key point probes through an index
// and a CM on a cold cache must read zero pages. Written as JSON
// (BENCH_9.json).
func runCache(scale int, out *os.File) error {
	rows := 16000 * scale
	const (
		poolPages = 256
		hotKeys   = 32
		probes    = 800
	)

	// Table-pages census on a throwaway DB (no waits, no sweeps).
	census := repro.Open(repro.Config{BufferPoolPages: poolPages})
	ctbl, err := census.CreateTable(repro.TableSpec{
		Name:        "padded",
		Columns:     []repro.Column{{Name: "c", Kind: repro.Int}, {Name: "u", Kind: repro.Int}, {Name: "pad", Kind: repro.String}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		return err
	}
	pad := strings.Repeat("x", 200)
	cdata := make([]repro.Row, rows)
	for i := range cdata {
		cdata[i] = repro.Row{repro.IntVal(int64(i)), repro.IntVal(int64(i)), repro.StringVal(pad)}
	}
	if err := ctbl.Load(cdata); err != nil {
		return err
	}
	if err := census.ColdCache(); err != nil {
		return err
	}
	readsBefore := int64(census.Stats().Reads)
	if err := ctbl.Select(func(repro.Row) bool { return true }); err != nil {
		return err
	}
	tablePages := int64(census.Stats().Reads) - readsBefore
	if tablePages <= poolPages {
		return fmt.Errorf("cache: table spans %d pages, need more than the %d-frame pool for the sweep to matter",
			tablePages, poolPages)
	}

	fmt.Fprintf(out, "%d rows over %d heap pages, %d-frame pool, %d hot keys, %d timed probes\n",
		rows, tablePages, poolPages, hotKeys, probes)

	latOff, _, _, _, _, _, err := cacheHotProbes(false, rows, poolPages, hotKeys, probes)
	if err != nil {
		return err
	}
	latOn, admitted, rejected, resets, _, dbOn, err := cacheHotProbes(true, rows, poolPages, hotKeys, probes)
	if err != nil {
		return err
	}
	p99Off := p99(latOff)
	p99On := p99(latOn)
	ratio := float64(p99Off) / float64(p99On)
	fmt.Fprintf(out, "%-28s %14s\n", "variant", "hot p99 [ms]")
	fmt.Fprintf(out, "%-28s %14.3f\n", "no admission", float64(p99Off.Microseconds())/1000)
	fmt.Fprintf(out, "%-28s %14.3f\n", "scan-resistant", float64(p99On.Microseconds())/1000)
	fmt.Fprintf(out, "p99 ratio: %.2fx  (admitted %d, rejected %d, sketch resets %d)\n",
		ratio, admitted, rejected, resets)

	// Bloom half: absent-key point probes on a cold cache read nothing.
	db := repro.Open(repro.Config{BufferPoolPages: poolPages, ProbeBlooms: true})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name:        "probed",
		Columns:     []repro.Column{{Name: "c", Kind: repro.Int}, {Name: "u", Kind: repro.Int}},
		ClusteredBy: []string{"c"},
		BucketPages: 1,
	})
	if err != nil {
		return err
	}
	bdata := make([]repro.Row, rows)
	for i := range bdata {
		bdata[i] = repro.Row{repro.IntVal(int64(i)), repro.IntVal(int64(i % 50))}
	}
	if err := tbl.Load(bdata); err != nil {
		return err
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		return err
	}
	if err := tbl.CreateCM("u_cm", repro.CMColumn{Name: "u"}); err != nil {
		return err
	}
	if err := db.ColdCache(); err != nil {
		return err
	}
	absentReadsBefore := int64(db.Stats().Reads)
	for i := 0; i < 16; i++ {
		absent := repro.IntVal(int64(1000 + i)) // u values are 0..49
		if err := tbl.SelectVia(repro.PipelinedIndexScan, func(repro.Row) bool {
			return true
		}, repro.Eq("u", absent)); err != nil {
			return err
		}
		if err := tbl.SelectViaCM("u_cm", func(repro.Row) bool {
			return true
		}, repro.Eq("u", absent)); err != nil {
			return err
		}
	}
	absentReads := int64(db.Stats().Reads) - absentReadsBefore
	ixSkips := metricVal(db, "index.bloom_skips")
	cmSkips := metricVal(db, "cm.bloom_skips")
	fmt.Fprintf(out, "absent-key probes: %d disk reads, %d index bloom skips, %d cm bloom skips\n",
		absentReads, ixSkips, cmSkips)

	rep := cacheReport{
		Experiment:       "cache",
		Rows:             rows,
		PoolPages:        poolPages,
		TablePages:       tablePages,
		HotKeys:          hotKeys,
		Probes:           probes,
		P99NoAdmissionMs: float64(p99Off.Microseconds()) / 1000,
		P99AdmissionMs:   float64(p99On.Microseconds()) / 1000,
		P99Ratio:         ratio,
		Admitted:         admitted,
		Rejected:         rejected,
		SketchResets:     resets,
		IndexBloomSkips:  ixSkips,
		CMBloomSkips:     cmSkips,
		AbsentProbeReads: absentReads,
		Metrics:          snapshotDB(dbOn),
	}
	f, err := os.Create(*cacheJSON)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *cacheJSON)

	if ratio < 2.0 {
		return fmt.Errorf("cache: scan-resistant p99 %.3fms is only %.2fx better than the %.3fms baseline (need >= 2x)",
			float64(p99On.Microseconds())/1000, ratio, float64(p99Off.Microseconds())/1000)
	}
	if rejected == 0 {
		return fmt.Errorf("cache: admission rejected nothing — the sweep never hit the filter")
	}
	if absentReads != 0 {
		return fmt.Errorf("cache: absent-key probes read %d pages, want 0 (blooms must prune them)", absentReads)
	}
	if ixSkips == 0 || cmSkips == 0 {
		return fmt.Errorf("cache: bloom skip counters idle (index %d, cm %d) — probes bypassed the filters", ixSkips, cmSkips)
	}
	return nil
}

// wireReport is the BENCH_10.json document: cross-connection batch
// coalescing against per-statement execution, measured over real TCP
// connections by the load generator.
type wireReport struct {
	Experiment string      `json:"experiment"`
	Conns      int         `json:"conns"`
	Requests   int         `json:"requests"`
	Mix        load.Mix    `json:"mix"`
	Off        load.Report `json:"off"`
	On         load.Report `json:"on"`
	Speedup    float64     `json:"speedup"`
}

// runWire measures what cross-connection batch coalescing buys on the
// point-probe workload: 64 client connections each issuing tiny
// single-row probes against an I/O-bound server whose statement gate
// sits far below its worker pool. Per-statement execution burns one
// gate slot per probe and leaves the pool idle; the batcher glues
// probes arriving within its 200µs window into one batch that fans out
// pool-wide under a single slot. The aggregate throughput speedup must
// be at least 2x — asserted here, so the CI smoke job fails if
// coalescing regresses. Written as JSON (BENCH_10.json).
func runWire(scale int, out *os.File) error {
	cfg := load.CompareConfig{Conns: 64, Requests: 3000 * scale}
	rep, err := load.RunCompare(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%d conns, %d point probes per leg, identical server shape (gate 4, 16 workers, IOWaitScale 5)\n",
		cfg.Conns, cfg.Requests)
	fmt.Fprintf(out, "%-16s %12s %14s %12s %12s\n", "variant", "req/s", "rows/s", "p50 [ms]", "p99 [ms]")
	for _, leg := range []struct {
		name string
		r    load.Report
	}{{"per-statement", rep.Off}, {"coalesced", rep.On}} {
		fmt.Fprintf(out, "%-16s %12.0f %14.0f %12.3f %12.3f\n", leg.name,
			leg.r.ReqPerSec, leg.r.RowsPerSec,
			float64(leg.r.P50NS)/1e6, float64(leg.r.P99NS)/1e6)
	}
	fmt.Fprintf(out, "speedup: %.2fx\n", rep.Speedup)

	wr := wireReport{
		Experiment: "wire",
		Conns:      cfg.Conns,
		Requests:   cfg.Requests,
		Mix:        load.Mix{Point: 1},
		Off:        rep.Off,
		On:         rep.On,
		Speedup:    rep.Speedup,
	}
	blob, err := json.MarshalIndent(wr, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*wireJSON, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s\n", *wireJSON)

	if rep.Speedup < 2.0 {
		return fmt.Errorf("wire: coalescing speedup %.2fx is below the 2x floor (off %.0f req/s, on %.0f req/s)",
			rep.Speedup, rep.Off.ReqPerSec, rep.On.ReqPerSec)
	}
	return nil
}
