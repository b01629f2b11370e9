package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/value"
)

// Small scales keep the test suite fast; shape assertions (who wins, by
// what rough factor, monotonicity) are what we check here. The
// TestPaperScale* cases at the end assert the shapes that only hold at
// the scales of the Paper table (ARCHITECTURE.md §7).

func tinyEBay() datagen.EBayConfig {
	return datagen.EBayConfig{Categories: 120, ItemsPerCatMin: 20, ItemsPerCatMax: 40, Seed: 5}
}

func tinySDSS() datagen.SDSSConfig {
	return datagen.SDSSConfig{Stripes: 5, FieldsPerStripe: 10, ObjsPerField: 40, Seed: 5}
}

func TestFigure1CorrelationLocalizesAccess(t *testing.T) {
	res, err := RunFigure1(Figure1Config{
		TPCH:   datagen.TPCHConfig{Orders: 3000, Suppliers: 400, Seed: 3},
		Values: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cases) != 4 {
		t.Fatalf("cases = %d", len(res.Cases))
	}
	// Correlated clusterings produce far fewer contiguous runs.
	suppClustered, suppRandom := res.Cases[0], res.Cases[1]
	shipClustered, shipRandom := res.Cases[2], res.Cases[3]
	if suppClustered.Runs >= suppRandom.Runs {
		t.Errorf("suppkey: clustered runs %d !< random runs %d", suppClustered.Runs, suppRandom.Runs)
	}
	if shipClustered.Runs >= shipRandom.Runs {
		t.Errorf("shipdate: clustered runs %d !< random runs %d", shipClustered.Runs, shipRandom.Runs)
	}
	// The high-correlation case (shipdate/receiptdate) should collapse
	// to a handful of runs.
	if shipClustered.Runs > 25 {
		t.Errorf("shipdate clustered runs = %d, expected a handful", shipClustered.Runs)
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), "receiptdate") {
		t.Error("print output missing case labels")
	}
}

func TestFigure2ClusteringSweep(t *testing.T) {
	res, err := RunFigure2(Figure2Config{
		SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120, Seed: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 39 {
		t.Fatalf("clusterings = %d, want 39", len(res.Rows))
	}
	best := res.Best()
	if best.Speedup2x < 5 {
		t.Errorf("best clustering (%s) accelerates only %d queries", best.ClusterAttr, best.Speedup2x)
	}
	for _, row := range res.Rows {
		if row.Speedup4x > row.Speedup2x || row.Speedup8x > row.Speedup4x || row.Speedup16x > row.Speedup8x {
			t.Fatalf("histogram not monotone for %s: %+v", row.ClusterAttr, row)
		}
		// Clustering on any attribute accelerates at least the query on
		// that attribute itself.
		if row.Speedup2x < 1 {
			t.Errorf("clustering on %s accelerates nothing", row.ClusterAttr)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if !strings.Contains(buf.String(), ">=16x") {
		t.Error("print output malformed")
	}
}

func TestFigure3CorrelatedBeatsUncorrelated(t *testing.T) {
	// At test scale (12k rows) the fixed per-lookup index probe cost is
	// a large share of both clusterings, so the separation the paper
	// shows at n up to 100 is visible here at small n; Paper's scale is
	// where the full sweep separates. See ARCHITECTURE.md §7.
	res, err := RunFigure3(Figure3Config{Orders: 3000, Seed: 1, NPoints: []int{1, 2, 4, 8}})
	if err != nil {
		t.Fatal(err)
	}
	// The scale-robust invariant is the I/O pattern (Figure 1's
	// mechanism): the correlated clustering localizes each lookup, so it
	// reads far fewer pages than the uncorrelated layout, whose bitmap
	// sweep degrades to a near-full read-through. Elapsed-time ordering
	// additionally needs scan >> per-lookup seeks and is checked at
	// bench scale.
	for _, p := range res.Points {
		if p.NLookups >= 2 && p.CorrPages >= p.UncPages {
			t.Errorf("n=%d: correlated pages %d !< uncorrelated %d",
				p.NLookups, p.CorrPages, p.UncPages)
		}
	}
	// The uncorrelated side must sit at or above the scan plateau (the
	// paper's "reaching the cost of a sequential scan" effect).
	last := res.Points[len(res.Points)-1]
	if last.Uncorrelated < last.TableScan/2 {
		t.Errorf("uncorrelated at n=%d (%v) far below scan (%v)", last.NLookups, last.Uncorrelated, last.TableScan)
	}
	// Cost model: monotone in n, capped by the scan cost, and within an
	// order of magnitude of the measurement (exact level agreement is a
	// scale property; the model omits secondary-index probe I/O).
	for i, p := range res.Points {
		if i > 0 && p.Model < res.Points[i-1].Model {
			t.Error("model not monotone in n")
		}
		if p.Model > p.TableScan+time.Millisecond {
			t.Errorf("n=%d: model %v above scan cap %v", p.NLookups, p.Model, p.TableScan)
		}
		ratio := float64(p.Model) / float64(p.Correlated)
		if ratio < 0.1 || ratio > 10 {
			t.Errorf("n=%d: model %v vs measured %v (ratio %.2f)", p.NLookups, p.Model, p.Correlated, ratio)
		}
	}
	// Correlated grows with n (more lookups, more work).
	if res.Points[0].Correlated >= res.Points[len(res.Points)-1].Correlated {
		t.Error("correlated cost not increasing in n")
	}
}

func TestTable3WideningAddsOnlySequentialIO(t *testing.T) {
	res, err := RunTable3(Table3Config{SDSS: tinySDSS(), BucketSizes: []int{1, 5, 10, 20, 40}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].PagesScanned < res.Rows[i-1].PagesScanned {
			t.Errorf("pages scanned decreased at bucket size %d", res.Rows[i].BucketPages)
		}
	}
	first, last := res.Rows[0], res.Rows[len(res.Rows)-1]
	// 40x wider buckets must NOT cost 40x more: the paper's point is the
	// cost grows by sequential reads only (15.34 -> 19.5 ms, ~1.3x).
	if last.IOCost > first.IOCost*3 {
		t.Errorf("40-page buckets cost %v vs %v at 1 page: widening too expensive", last.IOCost, first.IOCost)
	}
}

func TestAdvisorTables(t *testing.T) {
	cfg := AdvisorTablesConfig{SDSS: tinySDSS(), SampleSize: 2000}
	res, err := RunAdvisorTables(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table4) != 4 {
		t.Fatalf("table 4 rows = %d", len(res.Table4))
	}
	// mode is few-valued: identity must be offered (MinLevel 0).
	for _, row := range res.Table4 {
		if row.Column == "mode" && row.MinLevel != 0 {
			t.Error("mode should have a 'none' bucketing")
		}
		if row.Column == "psfMag_g" && row.MaxLevel == 0 {
			t.Error("psfMag_g should have width bucketings")
		}
	}
	if len(res.Table5) == 0 {
		t.Fatal("table 5 empty")
	}
	for i := 1; i < len(res.Table5); i++ {
		if res.Table5[i].Runtime < res.Table5[i-1].Runtime {
			t.Fatal("table 5 not sorted by estimated runtime")
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	out := buf.String()
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "Table 5") {
		t.Error("print output malformed")
	}

	// "Smallest within target wins": with a row's own slowdown as the
	// target, the advisor recommends that row's design.
	adv, sch, err := sx6Advisor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Table5 {
		kept, err := adv.Recommend(sx6Query(), row.SlowdownPct)
		if err != nil {
			t.Fatal(err)
		}
		if got := kept[0].Describe(sch); got != row.Design || kept[0].EstSize != row.SizeBytes {
			t.Errorf("target %+.1f%%: advisor recommends %s (%d bytes), Table 5 prints %s (%d bytes)",
				row.SlowdownPct, got, kept[0].EstSize, row.Design, row.SizeBytes)
		}
	}
}

func TestFigure6CMCompetitiveAndTiny(t *testing.T) {
	res, err := RunFigure6(Figure6Config{EBay: tinyEBay(), BucketTuples: 256})
	if err != nil {
		t.Fatal(err)
	}
	if res.CMBytes*10 > res.TreeBytes {
		t.Errorf("CM %d bytes not ≪ B+Tree %d bytes", res.CMBytes, res.TreeBytes)
	}
	for _, p := range res.Points {
		// CM within a moderate factor of the B+Tree. (The paper sees
		// 1-4s worse on ~10s queries; at test scale fixed seek costs
		// weigh heavier, so allow more headroom — the bench runs the
		// paper-shaped scale.)
		if p.CM > 8*p.BTree {
			t.Errorf("range %d: CM %v vs B+Tree %v", p.RangeDollars, p.CM, p.BTree)
		}
	}
	// Wider ranges match at least as many rows.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].MatchedRows < res.Points[i-1].MatchedRows {
			t.Error("matched rows not monotone in range width")
		}
	}
}

func TestFigure7SizeRuntimeTradeoff(t *testing.T) {
	res, err := RunFigure7(Figure7Config{EBay: tinyEBay(), Levels: []int{4, 6, 8, 10, 12}})
	if err != nil {
		t.Fatal(err)
	}
	// CM size strictly shrinks as buckets widen.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].CMBytes > res.Points[i-1].CMBytes {
			t.Errorf("CM size grew from level %d to %d", res.Points[i-1].Level, res.Points[i].Level)
		}
	}
	// Runtime at the widest bucketing is at least the runtime at the
	// narrowest (the knee effect: wider buckets add false positives).
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.CM < first.CM {
		t.Errorf("runtime improved with much wider buckets: %v -> %v", first.CM, last.CM)
	}
	// Exactness: every level matches the same rows.
	for _, p := range res.Points {
		if p.MatchedRows != first.MatchedRows {
			t.Errorf("level %d matched %d rows, want %d", p.Level, p.MatchedRows, first.MatchedRows)
		}
	}
}

// runForced times the structure a figure names or nothing: a CM name
// the table lacks fails the compile, and a forced sorted scan whose
// first applicable index is another one fails the plan's Uses check.
func TestRunForcedChecksTheNamedStructure(t *testing.T) {
	fx, _, err := buildEBay(tinyEBay(), 256, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fx.tbl.CreateIndex("price2", []int{datagen.EBayPrice}); err != nil {
		t.Fatal(err)
	}
	q := exec.NewQuery(exec.Between(datagen.EBayPrice, value.NewFloat(0), value.NewFloat(1e9)))
	var rows [2]int
	for i, c := range []struct {
		via  exec.Method
		uses string
	}{{exec.MethodCM, fx.cm.Spec().Name}, {exec.MethodSorted, fx.ix.Name}} {
		if err := runForced(fx.tbl, c.via, c.uses, q, func(value.Row) bool { rows[i]++; return true }); err != nil {
			t.Fatalf("forced %v through %q: %v", c.via, c.uses, err)
		}
	}
	if rows[0] == 0 || rows[0] != rows[1] {
		t.Fatalf("CM scan returned %d rows, sorted scan %d", rows[0], rows[1])
	}
	none := func(value.Row) bool { return true }
	if err := runForced(fx.tbl, exec.MethodCM, "nope", q, none); err == nil {
		t.Error("a forced CM scan through an unknown CM ran")
	}
	if err := runForced(fx.tbl, exec.MethodSorted, "price2", q, none); err == nil {
		t.Errorf("a forced sorted scan named price2 ran, but the first index on price is %q", fx.ix.Name)
	}
}

func TestFigure8BTreeMaintenanceDeteriorates(t *testing.T) {
	res, err := RunFigure8(Figure8Config{
		EBay:        tinyEBay(),
		InsertRows:  4000,
		BatchSize:   1000,
		IndexCounts: []int{0, 5, 10},
		PoolPages:   200,
	})
	if err != nil {
		t.Fatal(err)
	}
	p0, p10 := res.Points[0], res.Points[len(res.Points)-1]
	// With no indexes the two sides are near-identical.
	ratio0 := float64(p0.BTreeTime) / float64(p0.CMTime)
	if ratio0 < 0.8 || ratio0 > 1.3 {
		t.Errorf("k=0 ratio = %.2f, expected ~1", ratio0)
	}
	// At 10 indexes B+Trees must be much slower than CMs.
	if p10.BTreeTime < 3*p10.CMTime {
		t.Errorf("k=10: B+Tree %v vs CM %v — expected large gap", p10.BTreeTime, p10.CMTime)
	}
	// B+Tree time grows with index count; CM stays near flat.
	if p10.BTreeTime <= p0.BTreeTime {
		t.Error("B+Tree maintenance did not deteriorate with more indexes")
	}
	if float64(p10.CMTime) > 2.0*float64(p0.CMTime) {
		t.Errorf("CM maintenance not flat: %v -> %v", p0.CMTime, p10.CMTime)
	}
	// The headline: CM sustains a much higher update rate at k=10.
	if p10.CMRate < 3*p10.BTreeRate {
		t.Errorf("update rates: CM %.0f/s vs B+Tree %.0f/s", p10.CMRate, p10.BTreeRate)
	}
	// Dirty-page evictions explain the gap.
	if p10.BTreeDirty == 0 {
		t.Error("no dirty write-backs recorded for 10 B+Trees")
	}
}

func TestFigure9MixedWorkload(t *testing.T) {
	res, err := RunFigure9(Figure9Config{
		EBay:       tinyEBay(),
		Rounds:     4,
		InsertsPer: 800,
		SelectsPer: 10,
		PoolPages:  200,
	})
	if err != nil {
		t.Fatal(err)
	}
	bars := map[string]Figure9Bar{}
	for _, b := range res.Bars {
		bars[b.Label] = b
	}
	btMix, cmMix := bars["B+Tree-mix"], bars["CM-mix"]
	if cmTotal, btTotal := cmMix.Insert+cmMix.Select, btMix.Insert+btMix.Select; btTotal < 2*cmTotal {
		t.Errorf("mixed workload: B+Tree %v vs CM %v — expected >2x gap", btTotal, cmTotal)
	}
	// Inserts cost at least as much in the mixed run as insert-only
	// (selects steal buffer pool space).
	if btMix.Insert < bars["B+Tree"].Insert {
		t.Error("B+Tree mixed inserts cheaper than insert-only")
	}
}

func TestFigure10ModelTracksCPerU(t *testing.T) {
	res, err := RunFigure10(Figure10Config{EBay: tinyEBay(), Values: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) < 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// c_per_u spans a real range (generic vs specific CAT5 names).
	lo, hi := res.Points[0], res.Points[len(res.Points)-1]
	if hi.CPerU < 4*lo.CPerU {
		t.Errorf("c_per_u range too narrow: %d..%d", lo.CPerU, hi.CPerU)
	}
	// Measured runtime increases with c_per_u, and the model does not
	// decrease. (At test scale the model is scan-capped early, so exact
	// level agreement is a paper-scale property, asserted by
	// TestPaperScaleFigure10.)
	if hi.Measured <= lo.Measured {
		t.Error("measured runtime not increasing with c_per_u")
	}
	if hi.Model < lo.Model {
		t.Error("model decreasing with c_per_u")
	}
}

func TestTable6CompositeCMWins(t *testing.T) {
	res, err := RunTable6(Table6Config{SDSS: datagen.SDSSConfig{
		Stripes: 8, FieldsPerStripe: 20, ObjsPerField: 60, Seed: 7,
	}})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table6Row{}
	for _, row := range res.Rows {
		byName[row.Index] = row
	}
	pair := byName["CM(ra,dec)"]
	ra, dec, bt := byName["CM(ra)"], byName["CM(dec)"], byName["B+Tree(ra,dec)"]
	// The composite CM touches the fewest pages: each single coordinate
	// over-covers (ra hits every stripe; dec hits whole stripes), and
	// the composite B+Tree can only use its ra prefix. Runtime ordering
	// versus CM(dec) is a scale property (dec reads few big contiguous
	// regions, cheap per page but many pages) — the invariant here is
	// I/O volume; the bench scale shows the paper's runtime ordering.
	if pair.PagesRead >= ra.PagesRead || pair.PagesRead >= dec.PagesRead {
		t.Errorf("composite CM pages %d not below singles (ra %d, dec %d)",
			pair.PagesRead, ra.PagesRead, dec.PagesRead)
	}
	if pair.PagesRead >= bt.PagesRead {
		t.Errorf("composite CM pages %d not below B+Tree %d", pair.PagesRead, bt.PagesRead)
	}
	if pair.Runtime >= bt.Runtime {
		t.Errorf("composite CM (%v) not faster than composite B+Tree (%v)", pair.Runtime, bt.Runtime)
	}
	if pair.SizeBytes*10 > bt.SizeBytes {
		t.Errorf("composite CM %d bytes not ≪ B+Tree %d bytes", pair.SizeBytes, bt.SizeBytes)
	}
	if pair.Rows == 0 {
		t.Error("query matched no rows; fixture broken")
	}
}

// paperScale runs the named entry of Paper at scale 1 — exactly what
// `cmbench -exp name` prints.
func paperScale[R Result](t *testing.T, name string) R {
	t.Helper()
	if testing.Short() {
		t.Skip("paper scale")
	}
	sel, err := Select(name)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sel[0].Run(1)
	if err != nil {
		t.Fatal(err)
	}
	return res.(R)
}

// TestPaperScaleFigure6 is the paper's headline at the paper's shape: the
// CM answers every price range faster than the secondary B+Tree, from a
// structure a small fraction of its size.
func TestPaperScaleFigure6(t *testing.T) {
	res := paperScale[*Figure6Result](t, "figure6")
	for _, p := range res.Points {
		if p.CM >= p.BTree {
			t.Errorf("range %d: CM %v not faster than B+Tree %v", p.RangeDollars, p.CM, p.BTree)
		}
	}
	if res.TreeBytes < 40*res.CMBytes {
		t.Errorf("B+Tree %d bytes is under 40x the CM's %d", res.TreeBytes, res.CMBytes)
	}
}

// TestPaperScaleFigure10 holds the §4 cost model to the measurement:
// runtime grows with c_per_u and the model is within 5% of it.
//
// Known gap, pinned here: at c_per_u = 2 the two clustered buckets are
// adjacent, so the executor sweeps them as one run (one seek, 5.89 ms)
// while the paper's formula prices c_per_u seeks (11.27 ms).
func TestPaperScaleFigure10(t *testing.T) {
	res := paperScale[*Figure10Result](t, "figure10")
	for i, p := range res.Points {
		if i > 0 && p.Measured < res.Points[i-1].Measured {
			t.Errorf("c_per_u %d: measured %v below %v at c_per_u %d",
				p.CPerU, p.Measured, res.Points[i-1].Measured, res.Points[i-1].CPerU)
		}
		if off := math.Abs(float64(p.Model-p.Measured)) / float64(p.Measured); off > 0.05 && p.CPerU != 2 {
			t.Errorf("c_per_u %d: model %v is %.1f%% off measured %v", p.CPerU, p.Model, 100*off, p.Measured)
		}
	}
}

// TestPaperTable: every name and alias selects exactly its entry, no two
// entries share one, and the unknown-name error lists the table's names.
func TestPaperTable(t *testing.T) {
	seen := map[string]bool{"all": true}
	var names []string
	for _, e := range Paper {
		names = append(names, e.Name)
		for _, n := range append([]string{e.Name}, e.Aliases...) {
			if seen[n] {
				t.Errorf("name %q is taken twice", n)
			}
			seen[n] = true
			if sel, err := Select(n); err != nil || len(sel) != 1 || sel[0].Name != e.Name {
				t.Errorf("Select(%q) = %d entries, %v; want the %s entry alone", n, len(sel), err, e.Name)
			}
		}
	}
	if sel, err := Select("all"); err != nil || len(sel) != len(Paper) {
		t.Errorf("Select(all) = %d entries, %v; want all %d", len(sel), err, len(Paper))
	}
	want := `unknown experiment "bogus" (try ` + strings.Join(names, "|") + "|all)"
	if _, err := Select("bogus"); err == nil || err.Error() != want {
		t.Errorf("Select(bogus) error = %v, want %s", err, want)
	}
}
