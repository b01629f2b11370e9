// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus ablations of the design choices DESIGN.md calls out
// and micro-benchmarks of the substrates.
//
// Figure/table benchmarks report the experiment's key quantities as
// custom metrics (virtual disk-bound milliseconds, size ratios, update
// rates) so `go test -bench . -benchmem` doubles as the reproduction
// harness. cmd/cmbench prints the same experiments in the paper's
// layout.
package repro

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/advisor"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

func msMetric(b *testing.B, name string, d float64) {
	b.ReportMetric(d, name)
}

func BenchmarkFigure1AccessPatterns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure1(experiments.Figure1Config{
			TPCH: datagen.TPCHConfig{Orders: 6000, Suppliers: 500},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			msMetric(b, "corr_runs", float64(res.Cases[2].Runs))
			msMetric(b, "uncorr_runs", float64(res.Cases[3].Runs))
		}
	}
}

func BenchmarkFigure2ClusteringSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure2(experiments.Figure2Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 400},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			best := res.Best()
			msMetric(b, "best_2x", float64(best.Speedup2x))
			msMetric(b, "best_16x", float64(best.Speedup16x))
		}
	}
}

func BenchmarkFigure3CorrelatedLookup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure3(experiments.Figure3Config{Orders: 20000})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Points[len(res.Points)-1]
			msMetric(b, "corr_ms", float64(last.Correlated.Microseconds())/1000)
			msMetric(b, "uncorr_ms", float64(last.Uncorrelated.Microseconds())/1000)
			msMetric(b, "scan_ms", float64(last.TableScan.Microseconds())/1000)
		}
	}
}

func BenchmarkTable3ClusteredBucketing(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable3(experiments.Table3Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			msMetric(b, "cost_1pg_ms", float64(res.Rows[0].IOCost.Microseconds())/1000)
			msMetric(b, "cost_40pg_ms", float64(res.Rows[len(res.Rows)-1].IOCost.Microseconds())/1000)
		}
	}
}

func BenchmarkTable4BucketingCandidates(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdvisorTables(experiments.AdvisorTablesConfig{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			msMetric(b, "attrs", float64(len(res.Table4)))
		}
	}
}

func BenchmarkTable5AdvisorDesigns(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAdvisorTables(experiments.AdvisorTablesConfig{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(res.Table5) > 0 {
			msMetric(b, "designs", float64(len(res.Table5)))
			msMetric(b, "best_ratio_pct", res.Table5[0].SizeRatio*100)
		}
	}
}

func BenchmarkFigure6CMvsBTree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure6(experiments.Figure6Config{
			EBay: datagen.EBayConfig{Categories: 600},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Points[len(res.Points)-1]
			msMetric(b, "cm_ms", float64(last.CM.Microseconds())/1000)
			msMetric(b, "btree_ms", float64(last.BTree.Microseconds())/1000)
			msMetric(b, "size_ratio", float64(res.TreeBytes)/float64(res.CMBytes))
		}
	}
}

func BenchmarkFigure7BucketLevels(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure7(experiments.Figure7Config{
			EBay: datagen.EBayConfig{Categories: 600},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			first, last := res.Points[0], res.Points[len(res.Points)-1]
			msMetric(b, "size_first_kb", float64(first.CMBytes)/1024)
			msMetric(b, "size_last_kb", float64(last.CMBytes)/1024)
			msMetric(b, "rt_first_ms", float64(first.CM.Microseconds())/1000)
			msMetric(b, "rt_last_ms", float64(last.CM.Microseconds())/1000)
		}
	}
}

func BenchmarkFigure8Maintenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure8(experiments.Figure8Config{
			EBay:       datagen.EBayConfig{Categories: 300},
			InsertRows: 50000,
			BatchSize:  5000,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := res.Points[len(res.Points)-1]
			msMetric(b, "btree_tups_per_s", last.BTreeRate)
			msMetric(b, "cm_tups_per_s", last.CMRate)
			msMetric(b, "rate_ratio", last.CMRate/last.BTreeRate)
		}
	}
}

func BenchmarkFigure9MixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure9(experiments.Figure9Config{
			EBay: datagen.EBayConfig{Categories: 300},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			var bt, cm float64
			for _, bar := range res.Bars {
				if bar.Label == "B+Tree-mix" {
					bt = (bar.Insert + bar.Select).Seconds()
				}
				if bar.Label == "CM-mix" {
					cm = (bar.Insert + bar.Select).Seconds()
				}
			}
			msMetric(b, "btree_mix_s", bt)
			msMetric(b, "cm_mix_s", cm)
		}
	}
}

func BenchmarkFigure10CostModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFigure10(experiments.Figure10Config{
			EBay: datagen.EBayConfig{Categories: 600},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			lo, hi := res.Points[0], res.Points[len(res.Points)-1]
			msMetric(b, "cperu_lo", float64(lo.CPerU))
			msMetric(b, "cperu_hi", float64(hi.CPerU))
			msMetric(b, "measured_hi_ms", float64(hi.Measured.Microseconds())/1000)
			msMetric(b, "model_hi_ms", float64(hi.Model.Microseconds())/1000)
		}
	}
}

func BenchmarkTable6CompositeCM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable6(experiments.Table6Config{
			SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200},
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			for _, row := range res.Rows {
				if row.Index == "CM(ra,dec)" {
					msMetric(b, "composite_ms", float64(row.Runtime.Microseconds())/1000)
				}
				if row.Index == "B+Tree(ra,dec)" {
					msMetric(b, "btree_ms", float64(row.Runtime.Microseconds())/1000)
				}
			}
		}
	}
}

// --- Ablation benches (design choices from DESIGN.md §4) ---

// ablationFixture builds a mid-size correlated table with an index and a
// CM for the access-path ablations.
func ablationFixture(b *testing.B) (*sim.Disk, *buffer.Pool, *table.Table, *table.Index, *core.CM) {
	b.Helper()
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 2048)
	sch := table.NewSchema(
		table.Column{Name: "c", Kind: value.Int},
		table.Column{Name: "u", Kind: value.Int},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([]value.Row, 60000)
	for i := range rows {
		c := int64(rng.Intn(3000))
		rows[i] = value.Row{value.NewInt(c), value.NewInt(c / 10)}
	}
	if err := tbl.Load(rows); err != nil {
		b.Fatal(err)
	}
	ix, err := tbl.CreateIndex("u", []int{1})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "u", UCols: []int{1}})
	if err != nil {
		b.Fatal(err)
	}
	return disk, pool, tbl, ix, cm
}

// BenchmarkAblationSortedVsPipelined quantifies the paper's Section 3.2
// optimization: sorting RIDs before the heap sweep versus per-tuple
// probing.
func BenchmarkAblationSortedVsPipelined(b *testing.B) {
	disk, pool, tbl, ix, _ := ablationFixture(b)
	q := exec.NewQuery(exec.In(1, value.NewInt(50), value.NewInt(120), value.NewInt(200)))
	cold := func() {
		if err := pool.FlushAll(); err != nil {
			b.Fatal(err)
		}
		pool.Invalidate()
		disk.ResetStats()
	}
	var sortedMS, pipeMS float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold()
		if err := exec.SortedIndexScan(tbl, ix, q, 1, func(heap.RID, value.Row) bool { return true }); err != nil {
			b.Fatal(err)
		}
		sortedMS = float64(disk.Elapsed().Microseconds()) / 1000
		cold()
		if err := exec.PipelinedIndexScan(tbl, ix, q, 1, func(heap.RID, value.Row) bool { return true }); err != nil {
			b.Fatal(err)
		}
		pipeMS = float64(disk.Elapsed().Microseconds()) / 1000
	}
	msMetric(b, "sorted_ms", sortedMS)
	msMetric(b, "pipelined_ms", pipeMS)
}

// BenchmarkAblationCounts measures the cost of the co-occurrence counts
// that make CMs deletable: bytes per pair and maintenance throughput.
func BenchmarkAblationCounts(b *testing.B) {
	_, _, _, _, cm := ablationFixture(b)
	withCounts := cm.SizeBytes()
	// A set-only CM would save 4 bytes per pair.
	setOnly := withCounts - 4*cm.Pairs()
	msMetric(b, "with_counts_kb", float64(withCounts)/1024)
	msMetric(b, "set_only_kb", float64(setOnly)/1024)
	row := value.Row{value.NewInt(1), value.NewInt(0)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.AddRow(row, 3)
		if err := cm.RemoveRow(row, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationClusteredBucketing compares per-value clustered
// buckets against page-granularity buckets (Section 6.1.1): directory
// size and CM size shrink, query cost moves little.
func BenchmarkAblationClusteredBucketing(b *testing.B) {
	run := func(bucketTuples, bucketPages int) (cmBytes, dirBytes int64) {
		disk := sim.NewDisk(sim.Config{})
		pool := buffer.NewPool(disk, 2048)
		sch := table.NewSchema(
			table.Column{Name: "c", Kind: value.Int},
			table.Column{Name: "u", Kind: value.Int},
		)
		tbl, err := table.New(pool, nil, table.Config{
			Name: "t", Schema: sch, ClusteredCols: []int{0},
			BucketTuples: bucketTuples, BucketPages: bucketPages,
		})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		rows := make([]value.Row, 40000)
		for i := range rows {
			c := int64(rng.Intn(4000))
			rows[i] = value.Row{value.NewInt(c), value.NewInt(c / 10)}
		}
		if err := tbl.Load(rows); err != nil {
			b.Fatal(err)
		}
		cm, err := tbl.CreateCM(core.Spec{Name: "u", UCols: []int{1}})
		if err != nil {
			b.Fatal(err)
		}
		return cm.SizeBytes(), tbl.DirectorySizeBytes()
	}
	var perValueCM, pagedCM int64
	for i := 0; i < b.N; i++ {
		perValueCM, _ = run(1, 0)
		pagedCM, _ = run(0, 10)
	}
	msMetric(b, "per_value_cm_kb", float64(perValueCM)/1024)
	msMetric(b, "paged_cm_kb", float64(pagedCM)/1024)
}

// BenchmarkAblationBufferPool shows the Figure 8 mechanism directly: the
// same insert stream against B+Trees under shrinking buffer pools.
func BenchmarkAblationBufferPool(b *testing.B) {
	for _, pages := range []int{200, 800, 3200} {
		b.Run(fmt.Sprintf("pool%d", pages), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunFigure8(experiments.Figure8Config{
					EBay:        datagen.EBayConfig{Categories: 150},
					InsertRows:  10000,
					BatchSize:   2000,
					IndexCounts: []int{6},
					PoolPages:   pages,
				})
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					msMetric(b, "btree_s", res.Points[0].BTreeTime.Seconds())
					msMetric(b, "dirty_writes", float64(res.Points[0].BTreeDirty))
				}
			}
		})
	}
}

// BenchmarkAblationAdvisorBounds varies the advisor's bucket-count
// search range (default 2^2..2^16) and reports design counts and search
// cost.
func BenchmarkAblationAdvisorBounds(b *testing.B) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 2048)
	tbl, err := table.New(pool, nil, table.Config{
		Name:          "phototag",
		Schema:        datagen.SDSSSchema(),
		ClusteredCols: []int{datagen.SDSSObjID},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := tbl.Load(datagen.PhotoTag(datagen.SDSSConfig{
		Stripes: 5, FieldsPerStripe: 10, ObjsPerField: 60,
	})); err != nil {
		b.Fatal(err)
	}
	for _, maxLog := range []int{8, 12, 16} {
		b.Run(fmt.Sprintf("max2e%d", maxLog), func(b *testing.B) {
			adv, err := advisorNew(tbl, maxLog)
			if err != nil {
				b.Fatal(err)
			}
			q := exec.NewQuery(
				exec.In(datagen.SDSSFieldID, value.NewInt(105), value.NewInt(120)),
				exec.Le(datagen.SDSSPsfMagG, value.NewFloat(20)),
			)
			b.ResetTimer()
			var n int
			for i := 0; i < b.N; i++ {
				cands, err := adv.AllCandidates(q)
				if err != nil {
					b.Fatal(err)
				}
				n = len(cands)
			}
			msMetric(b, "designs", float64(n))
		})
	}
}

// --- Substrate micro-benchmarks ---

func BenchmarkBTreeInsert(b *testing.B) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 4096)
	tr, err := btree.New(pool)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var val [8]byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keyenc.EncodeValue(value.NewInt(rng.Int63n(1 << 40)))
		binary.LittleEndian.PutUint64(val[:], uint64(i))
		if err := tr.Insert(k, val[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBTreeLookup(b *testing.B) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 4096)
	tr, err := btree.New(pool)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100000
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(keyenc.EncodeValue(value.NewInt(i)), nil); err != nil {
			b.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, ok, err := tr.Get(keyenc.EncodeValue(value.NewInt(rng.Int63n(n))))
		if err != nil || !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkCMAdd(b *testing.B) {
	cm := core.New(core.Spec{Name: "p", UCols: []int{0},
		Bucketers: []core.Bucketer{core.IntWidth{Width: 16}}})
	rng := rand.New(rand.NewSource(3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.AddRow(value.Row{value.NewInt(rng.Int63n(100000))}, int32(rng.Intn(500)))
	}
}

func BenchmarkCMLookup(b *testing.B) {
	cm := core.New(core.Spec{Name: "p", UCols: []int{0}})
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100000; i++ {
		cm.AddRow(value.Row{value.NewInt(int64(i % 5000))}, int32(rng.Intn(500)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cm.Lookup(value.NewInt(int64(i % 5000)))
	}
}

func BenchmarkHeapScan(b *testing.B) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 4096)
	h := heap.NewFile(pool)
	tuple := make([]byte, 100)
	for i := 0; i < 50000; i++ {
		if _, err := h.Append(tuple); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := h.Scan(func(heap.RID, []byte) bool { n++; return true }); err != nil {
			b.Fatal(err)
		}
		if n != 50000 {
			b.Fatal("scan incomplete")
		}
	}
}

// advisorNew builds an advisor with a custom max bucket-count bound.
func advisorNew(tbl *table.Table, maxLog int) (*advisor.Advisor, error) {
	return advisor.New(tbl, advisor.Config{MaxBucketsLog: maxLog, SampleSize: 3000})
}

// --- Parallel scan benchmarks ---
//
// A Figure-6-style correlated workload (table clustered on cat, CM over
// the soft-FD-correlated subcat, IN-list lookups) on a disk configured
// with IOWaitScale, so accesses block for scaled real time and
// concurrent workers overlap their waits. Wall-clock ns/op across the
// workers1/2/4/8 sub-benchmarks is the speedup measurement; the
// fixture's small buffer pool keeps the working set disk-resident.

// parallelFixture builds the shared correlated-items workload
// (datagen.CorrelatedItems) against a DB with the given scan fan-out.
func parallelFixture(b *testing.B, workers int) (*DB, *Table) {
	b.Helper()
	db := Open(Config{Workers: workers, IOWaitScale: 5, BufferPoolPages: 256})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "subcat", Kind: Int},
			{Name: "price", Kind: Int},
			{Name: "desc", Kind: String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	items := datagen.CorrelatedItems(60000)
	rows := make([]Row, len(items))
	for i, it := range items {
		rows[i] = Row{IntVal(it.Cat), IntVal(it.Subcat), IntVal(it.Price), StringVal(it.Desc)}
	}
	if err := tbl.Load(rows); err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		b.Fatal(err)
	}
	if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
		b.Fatal(err)
	}
	return db, tbl
}

// parallelPreds builds the IN-list of scattered subcategories for query q.
func parallelPreds(q int) []Pred {
	subcats := datagen.CorrelatedLookup(q, 16)
	vals := make([]Value, len(subcats))
	for i, s := range subcats {
		vals[i] = IntVal(s)
	}
	return []Pred{In("subcat", vals...)}
}

// BenchmarkParallelCMScan measures one cold CM-scan query at each
// fan-out; ns/op at workers8 vs workers1 is the single-query speedup.
func BenchmarkParallelCMScan(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			db, tbl := parallelFixture(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.ColdCache(); err != nil {
					b.Fatal(err)
				}
				n := 0
				err := tbl.SelectVia(CMScan, func(Row) bool { n++; return true }, parallelPreds(i)...)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no rows")
				}
			}
			// A cold probe of 16 scattered runs is what fan-out is for.
			if chunks := db.scanObs.Chunks.Load(); (chunks > 0) != (w > 1) {
				b.Fatalf("workers %d: the sweeps fanned out into %d chunks", w, chunks)
			}
		})
	}
}

// BenchmarkParallelTableScan measures one cold full-scan query (a
// non-selective range over price, forcing the heap path) at each
// fan-out. The projection pushes down to the scan — the query reads only
// price — so the compiled filter rejects on encoded bytes and survivors
// decode a single fixed-width column: the sweep is I/O-bound, the regime
// where worker fan-out pays (PR 1's fully materializing scan was
// decode-CPU-bound and stayed flat across workers).
func BenchmarkParallelTableScan(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			db, tbl := parallelFixture(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.ColdCache(); err != nil {
					b.Fatal(err)
				}
				n := 0
				err := tbl.SelectProjectVia(TableScan, []string{"price"},
					func(Row) bool { n++; return true },
					Le("price", IntVal(5000)))
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkPipelinedProbe measures one cold IN-list lookup through the
// secondary index via the pipelined path at each fan-out: with workers
// exec.PipelinedIndexScan takes its batched arm — probe ranges fan out,
// RID batches fetch through coalesced page runs — while workers=1 is the
// per-tuple iterator.
func BenchmarkPipelinedProbe(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			db, tbl := parallelFixture(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := db.ColdCache(); err != nil {
					b.Fatal(err)
				}
				n := 0
				err := tbl.SelectVia(PipelinedIndexScan, func(Row) bool { n++; return true },
					parallelPreds(i)...)
				if err != nil {
					b.Fatal(err)
				}
				if n == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkSelectManyCMScan measures a 16-query multi-client batch of
// CM scans at each fan-out — the SelectMany path: fan-out is across
// queries, each query serial inside.
func BenchmarkSelectManyCMScan(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers%d", w), func(b *testing.B) {
			db, _ := parallelFixture(b, w)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				specs := make([]QuerySpec, 16)
				for q := range specs {
					specs[q] = QuerySpec{Table: "items", Via: CMScan, Preds: parallelPreds(i*16 + q)}
				}
				for _, res := range db.SelectMany(specs) {
					if res.Err != nil {
						b.Fatal(res.Err)
					}
					if len(res.Rows) == 0 {
						b.Fatal("no rows")
					}
				}
			}
		})
	}
}
