package exec

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// testDB builds a table clustered on column "c" with a correlated column
// "u" (u = c/step + noise), a secondary index on u, and a CM on u.
type testDB struct {
	tbl  *table.Table
	ix   *table.Index
	cm   *core.CM
	disk *sim.Disk
	rows []value.Row
}

func buildTestDB(t *testing.T, n int, seed int64, bucketTuples int) *testDB {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 512)
	sch := table.NewSchema(
		table.Column{Name: "c", Kind: value.Int},
		table.Column{Name: "u", Kind: value.Int},
		table.Column{Name: "payload", Kind: value.String},
	)
	tbl, err := table.New(pool, nil, table.Config{
		Name:          "t",
		Schema:        sch,
		ClusteredCols: []int{0},
		BucketTuples:  bucketTuples,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		c := int64(rng.Intn(500))
		u := c/10 + int64(rng.Intn(2)) // soft FD: u mostly determined by c
		rows[i] = value.Row{
			value.NewInt(c),
			value.NewInt(u),
			value.NewString(fmt.Sprintf("row-%d", i)),
		}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	ix, err := tbl.CreateIndex("u", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "u", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	return &testDB{tbl: tbl, ix: ix, cm: cm, disk: d, rows: rows}
}

// runAll executes the query under every access method and returns the
// result multisets keyed by payload.
func (db *testDB) runAll(t *testing.T, q Query) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	collect := func(name string, run func(fn RowFunc) error) {
		var got []string
		if err := run(func(_ heap.RID, row value.Row) bool {
			got = append(got, row[2].S)
			return true
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sort.Strings(got)
		out[name] = got
	}
	collect("tablescan", func(fn RowFunc) error { return scanVia(db.tbl, MethodTableScan, nil, nil, q, 1, fn) })
	collect("pipelined", func(fn RowFunc) error { return scanVia(db.tbl, MethodPipelined, db.ix, nil, q, 1, fn) })
	collect("sorted", func(fn RowFunc) error { return scanVia(db.tbl, MethodSorted, db.ix, nil, q, 1, fn) })
	collect("cm", func(fn RowFunc) error { return scanVia(db.tbl, MethodCM, nil, db.cm, q, 1, fn) })
	return out
}

func assertAllEqual(t *testing.T, results map[string][]string) {
	t.Helper()
	ref := results["tablescan"]
	for name, got := range results {
		if len(got) != len(ref) {
			t.Errorf("%s returned %d rows, tablescan %d", name, len(got), len(ref))
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Errorf("%s result %d = %q, want %q", name, i, got[i], ref[i])
				break
			}
		}
	}
}

func TestAllMethodsAgreeOnEquality(t *testing.T) {
	db := buildTestDB(t, 3000, 1, 0)
	for _, u := range []int64{0, 7, 23, 49, 999} {
		q := NewQuery(Eq(1, value.NewInt(u)))
		assertAllEqual(t, db.runAll(t, q))
	}
}

func TestAllMethodsAgreeOnIn(t *testing.T) {
	db := buildTestDB(t, 3000, 2, 0)
	q := NewQuery(In(1, value.NewInt(3), value.NewInt(17), value.NewInt(40)))
	results := db.runAll(t, q)
	assertAllEqual(t, results)
	if len(results["tablescan"]) == 0 {
		t.Fatal("test query matched nothing; fixture broken")
	}
}

func TestAllMethodsAgreeOnRange(t *testing.T) {
	db := buildTestDB(t, 3000, 3, 0)
	q := NewQuery(Between(1, value.NewInt(10), value.NewInt(14)))
	assertAllEqual(t, db.runAll(t, q))
	// Open-ended ranges too.
	q = NewQuery(Ge(1, value.NewInt(45)))
	assertAllEqual(t, db.runAll(t, q))
	q = NewQuery(Le(1, value.NewInt(3)))
	assertAllEqual(t, db.runAll(t, q))
}

func TestAllMethodsAgreeWithExtraPredicates(t *testing.T) {
	db := buildTestDB(t, 3000, 4, 0)
	// Conjunction with a non-indexed predicate on c.
	q := NewQuery(
		Eq(1, value.NewInt(20)),
		Between(0, value.NewInt(195), value.NewInt(210)),
	)
	assertAllEqual(t, db.runAll(t, q))
}

func TestAllMethodsAgreeAfterInserts(t *testing.T) {
	db := buildTestDB(t, 2000, 5, 0)
	// One writer statement places the rows with their clustered buckets,
	// on pages outside the load's clustered run once a bucket's own page
	// is full; every method must still find them.
	rows := make([]value.Row, 200)
	for i := range rows {
		c := int64(i % 500)
		rows[i] = value.Row{
			value.NewInt(c),
			value.NewInt(c / 10),
			value.NewString(fmt.Sprintf("new-%d", i)),
		}
	}
	tx := db.tbl.BeginWrite()
	if err := tx.InsertBatch(rows); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Eq(1, value.NewInt(11)))
	results := db.runAll(t, q)
	assertAllEqual(t, results)
	found := false
	for _, s := range results["cm"] {
		if len(s) > 3 && s[:4] == "new-" {
			found = true
			break
		}
	}
	if !found {
		t.Error("CM scan missed inserted rows")
	}
}

func TestCMScanFiltersFalsePositives(t *testing.T) {
	// Heavily bucketed CM: lookups cover extra values; results must
	// still be exact.
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 256)
	sch := table.NewSchema(
		table.Column{Name: "c", Kind: value.Int},
		table.Column{Name: "u", Kind: value.Int},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 2000; i++ {
		c := int64(i % 100)
		rows = append(rows, value.Row{value.NewInt(c), value.NewInt(c * 3)})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{
		Name:      "u",
		UCols:     []int{1},
		Bucketers: []core.Bucketer{core.IntWidth{Width: 64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Eq(1, value.NewInt(33)))
	n := 0
	if err := scanVia(tbl, MethodCM, nil, cm, q, 1, func(_ heap.RID, row value.Row) bool {
		if row[1].I != 33 {
			t.Errorf("false positive leaked: u=%d", row[1].I)
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 20 { // c=11 appears 2000/100 = 20 times
		t.Errorf("matched %d rows, want 20", n)
	}
}

func TestCMScanRequiresCoveredPredicate(t *testing.T) {
	db := buildTestDB(t, 100, 6, 0)
	q := NewQuery(Eq(0, value.NewInt(5))) // predicate on c, not u
	if err := scanVia(db.tbl, MethodCM, nil, db.cm, q, 1, func(heap.RID, value.Row) bool { return true }); err == nil {
		t.Error("CM scan without covered predicate should fail")
	}
}

func TestSortedScanIOPattern(t *testing.T) {
	db := buildTestDB(t, 5000, 7, 0)
	db.tbl.Pool().FlushAll()
	db.tbl.Pool().Invalidate()
	db.disk.ResetStats()
	q := NewQuery(Eq(1, value.NewInt(25)))
	if err := scanVia(db.tbl, MethodSorted, db.ix, nil, q, 1, func(heap.RID, value.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	sorted := db.disk.Stats()

	db.tbl.Pool().Invalidate()
	db.disk.ResetStats()
	if err := scanVia(db.tbl, MethodPipelined, db.ix, nil, q, 1, func(heap.RID, value.Row) bool { return true }); err != nil {
		t.Fatal(err)
	}
	pipelined := db.disk.Stats()

	// The sorted scan reads each heap page once; the pipelined scan
	// fetches per tuple and must touch at least as many pages.
	if sorted.Reads > pipelined.Reads {
		t.Errorf("sorted scan reads %d > pipelined %d", sorted.Reads, pipelined.Reads)
	}
}

func TestRewriteWithCMBostonExample(t *testing.T) {
	// Rebuild the Figure 4 people table and check the CM maps
	// city = boston to the clustered buckets of MA and NH only — the
	// rewrite state IN (MA, NH) — and the probe to exactly their pages.
	d := sim.NewDisk(sim.Config{PageSize: 512})
	pool := buffer.NewPool(d, 64)
	sch := table.NewSchema(
		table.Column{Name: "state", Kind: value.String},
		table.Column{Name: "city", Kind: value.String},
	)
	tbl, err := table.New(pool, nil, table.Config{
		Name: "people", Schema: sch, ClusteredCols: []int{0}, BucketTuples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []value.Row{
		{value.NewString("MA"), value.NewString("boston")},
		{value.NewString("MA"), value.NewString("cambridge")},
		{value.NewString("MN"), value.NewString("manchester")},
		{value.NewString("MS"), value.NewString("jackson")},
		{value.NewString("NH"), value.NewString("boston")},
		{value.NewString("OH"), value.NewString("toledo")},
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "city", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Eq(1, value.NewString("boston")))
	buckets, err := cmBuckets(cm, q)
	if err != nil {
		t.Fatal(err)
	}
	var states []string
	for _, b := range buckets {
		vals, err := keyenc.DecodeAll(tbl.Buckets().LowerBound(b))
		if err != nil {
			t.Fatal(err)
		}
		states = append(states, vals[0].S)
	}
	sort.Strings(states)
	if len(states) != 2 || states[0] != "MA" || states[1] != "NH" {
		t.Errorf("rewrite states = %v, want [MA NH]", states)
	}
	probe, err := ProbeCM(tbl, cm, q)
	if err != nil {
		t.Fatal(err)
	}
	if want := bucketPages(tbl, buckets); !slices.Equal(probe.Pages, want) {
		t.Errorf("probe pages = %v, want the MA and NH buckets' %v", probe.Pages, want)
	}
}

func TestPredMatches(t *testing.T) {
	row := value.Row{value.NewInt(5), value.NewString("x")}
	if !Eq(0, value.NewInt(5)).Matches(row) {
		t.Error("Eq failed")
	}
	if Eq(0, value.NewInt(6)).Matches(row) {
		t.Error("Eq false positive")
	}
	if !In(1, value.NewString("y"), value.NewString("x")).Matches(row) {
		t.Error("In failed")
	}
	if !Between(0, value.NewInt(5), value.NewInt(9)).Matches(row) {
		t.Error("Between inclusive lower failed")
	}
	if !Between(0, value.NewInt(1), value.NewInt(5)).Matches(row) {
		t.Error("Between inclusive upper failed")
	}
	if Between(0, value.NewInt(6), value.NewInt(9)).Matches(row) {
		t.Error("Between false positive")
	}
	if !Ge(0, value.NewInt(5)).Matches(row) || Ge(0, value.NewInt(6)).Matches(row) {
		t.Error("Ge wrong")
	}
	if !Le(0, value.NewInt(5)).Matches(row) || Le(0, value.NewInt(4)).Matches(row) {
		t.Error("Le wrong")
	}
}

func TestQueryHelpers(t *testing.T) {
	q := NewQuery(Eq(2, value.NewInt(1)), Between(0, value.NewInt(1), value.NewInt(2)))
	if q.IndexablePredOn(2) == nil || q.IndexablePredOn(5) != nil {
		t.Error("IndexablePredOn wrong")
	}
	cols := q.Cols()
	if len(cols) != 2 || cols[0] != 2 || cols[1] != 0 {
		t.Errorf("Cols = %v", cols)
	}
	if q.String() == "" {
		t.Error("query string empty")
	}
	if Eq(0, value.NewInt(1)).NLookups() != 1 ||
		In(0, value.NewInt(1), value.NewInt(2)).NLookups() != 2 ||
		Ge(0, value.NewInt(1)).NLookups() != 1 {
		t.Error("NLookups wrong")
	}
}

func TestEarlyStopAllMethods(t *testing.T) {
	db := buildTestDB(t, 1000, 8, 0)
	q := NewQuery(Le(1, value.NewInt(100))) // matches everything
	methods := map[string]Method{
		"tablescan": MethodTableScan,
		"pipelined": MethodPipelined,
		"sorted":    MethodSorted,
		"cm":        MethodCM,
	}
	for name, m := range methods {
		n := 0
		if err := scanVia(db.tbl, m, db.ix, db.cm, q, 1, func(heap.RID, value.Row) bool {
			n++
			return n < 10
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if n != 10 {
			t.Errorf("%s visited %d rows after stop", name, n)
		}
	}
}

// TestExactStatsTracksTheTable pins the provider's contract: table
// statistics are read live (heap growth shows in the very next
// estimate), and an index's pair statistics are the ones counted when
// it was built — planning reads no page for them, even from a cold pool.
func TestExactStatsTracksTheTable(t *testing.T) {
	db := buildTestDB(t, 2000, 5, 0)
	sp := NewExactStats()
	built, err := db.tbl.PairStats([]int{1})
	if err != nil {
		t.Fatal(err)
	}
	before := sp.TableStats(db.tbl)
	tx := db.tbl.BeginWrite()
	var grow []value.Row
	for i := 0; i < 2000; i++ {
		grow = append(grow, value.Row{value.NewInt(int64(i % 500)), value.NewInt(int64(i % 50)), value.NewString("grown")})
	}
	if err := tx.InsertBatch(grow); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	after := sp.TableStats(db.tbl)
	if after.TotalTups != before.TotalTups+2000 || after.Pages() <= before.Pages() {
		t.Errorf("table stats frozen: %+v -> %+v after 2000 inserts", before, after)
	}

	if err := db.tbl.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	db.tbl.Pool().Invalidate()
	reads := db.disk.Stats().Reads
	ps, ok := sp.PairStats(db.tbl, []int{1})
	if !ok {
		t.Fatal("pair stats unavailable")
	}
	if got := db.disk.Stats().Reads - reads; got != 0 {
		t.Errorf("pair stats read %d pages, want 0: they are kept on the index", got)
	}
	want := costmodel.PairStats{UTups: built.UTups(), CTups: built.CTups(), CPerU: built.CPerU()}
	if ps != want {
		t.Errorf("pair stats %+v, want the build's count %+v", ps, want)
	}
	if _, ok := sp.PairStats(db.tbl, []int{0, 1}); ok {
		t.Error("pair stats for columns no index has")
	}
}

func TestMethodString(t *testing.T) {
	for _, m := range []Method{MethodTableScan, MethodPipelined, MethodSorted, MethodCM, MethodClustered, Method(9)} {
		if m.String() == "" {
			t.Error("empty method name")
		}
	}
}

func TestCompositeCMScanWithPartialPredicates(t *testing.T) {
	// CM on (u1, u2); query predicates only u1. The resolver must take
	// its walk arm and the scan stay exact.
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 256)
	sch := table.NewSchema(
		table.Column{Name: "c", Kind: value.Int},
		table.Column{Name: "u1", Kind: value.Int},
		table.Column{Name: "u2", Kind: value.Int},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	var rows []value.Row
	for i := 0; i < 2000; i++ {
		c := int64(rng.Intn(200))
		rows = append(rows, value.Row{
			value.NewInt(c), value.NewInt(c / 20), value.NewInt(c % 20),
		})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "u12", UCols: []int{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Eq(1, value.NewInt(4)))
	var got, want int
	if err := scanVia(tbl, MethodCM, nil, cm, q, 1, func(heap.RID, value.Row) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := scanVia(tbl, MethodTableScan, nil, nil, q, 1, func(heap.RID, value.Row) bool { want++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != want || want == 0 {
		t.Errorf("composite partial CM scan = %d rows, table scan = %d", got, want)
	}
}
