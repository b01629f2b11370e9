package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// selectRows collects the rows DB.SelectSpec streams for spec.
func selectRows(db *DB, spec QuerySpec) ([]Row, error) {
	var rows []Row
	err := db.SelectSpec(context.Background(), spec, func(r Row) bool {
		rows = append(rows, r)
		return true
	})
	return rows, err
}

// atWorkers runs fn with the DB's scan fan-out (Config.Workers) set to
// workers, for tests comparing fan-outs over one fixture; nothing else
// may run a statement on the DB meanwhile.
func atWorkers(db *DB, workers int, fn func()) {
	defer func(w int) { db.workers = w }(db.workers)
	db.workers = workers
	fn()
}

// mustSelect is selectRows failing the test on an error.
func mustSelect(t testing.TB, db *DB, spec QuerySpec) []Row {
	t.Helper()
	rows, err := selectRows(db, spec)
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

// demoTable loads the Figure 4 people table through the public API.
func demoTable(t *testing.T) (*DB, *Table) {
	t.Helper()
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "people",
		Columns: []Column{
			{Name: "state", Kind: String},
			{Name: "city", Kind: String},
			{Name: "salary", Kind: Int},
		},
		ClusteredBy:  []string{"state"},
		BucketTuples: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []Row{
		{StringVal("MA"), StringVal("boston"), IntVal(25000)},
		{StringVal("NH"), StringVal("boston"), IntVal(45000)},
		{StringVal("MA"), StringVal("boston"), IntVal(50000)},
		{StringVal("MN"), StringVal("manchester"), IntVal(40000)},
		{StringVal("MA"), StringVal("cambridge"), IntVal(110000)},
		{StringVal("MS"), StringVal("jackson"), IntVal(80000)},
		{StringVal("MA"), StringVal("springfield"), IntVal(90000)},
		{StringVal("NH"), StringVal("manchester"), IntVal(60000)},
		{StringVal("OH"), StringVal("springfield"), IntVal(95000)},
		{StringVal("OH"), StringVal("toledo"), IntVal(70000)},
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	return db, tbl
}

func TestQuickstartFlow(t *testing.T) {
	db, tbl := demoTable(t)
	if err := tbl.CreateCM("city_cm", CMColumn{Name: "city"}); err != nil {
		t.Fatal(err)
	}
	var cities []string
	err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{In("city", StringVal("boston"), StringVal("springfield"))}}, func(r Row) bool {
		cities = append(cities, r[1].Str())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cities) != 5 {
		t.Fatalf("matched %d rows, want 5", len(cities))
	}
	for _, c := range cities {
		if c != "boston" && c != "springfield" {
			t.Errorf("false positive city %q", c)
		}
	}
}

func TestAllValueKinds(t *testing.T) {
	v := IntVal(-3)
	if v.Int() != -3 || v.String() != "-3" {
		t.Error("int value accessors")
	}
	f := FloatVal(2.5)
	if f.Float() != 2.5 {
		t.Error("float accessor")
	}
	s := StringVal("x")
	if s.Str() != "x" {
		t.Error("string accessor")
	}
}

func TestCreateTableValidation(t *testing.T) {
	db := Open(Config{})
	spec := TableSpec{
		Name:        "t",
		Columns:     []Column{{Name: "a", Kind: Int}},
		ClusteredBy: []string{"a"},
	}
	if _, err := db.CreateTable(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable(spec); err == nil {
		t.Error("duplicate table accepted")
	}
	if _, err := db.CreateTable(TableSpec{
		Name:        "u",
		Columns:     []Column{{Name: "a", Kind: Int}},
		ClusteredBy: []string{"zzz"},
	}); err == nil {
		t.Error("unknown clustering column accepted")
	}
	_, err := db.CreateTable(TableSpec{
		Name:        "v",
		Columns:     []Column{{Name: "a", Kind: Int}, {Name: "b", Kind: Kind(7)}},
		ClusteredBy: []string{"a"},
	})
	if err == nil || err.Error() != `repro: column "b" has unknown kind kind(7)` {
		t.Errorf("a column of kind 7: err = %v", err)
	}
	if db.Table("t") == nil || db.Table("nope") != nil {
		t.Error("Table lookup wrong")
	}
}

func TestSelectMethodsAgree(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "data",
		Columns: []Column{
			{Name: "c", Kind: Int},
			{Name: "u", Kind: Int},
		},
		ClusteredBy: []string{"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var rows []Row
	for i := 0; i < 4000; i++ {
		c := int64(rng.Intn(300))
		rows = append(rows, Row{IntVal(c), IntVal(c / 10)})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("u_ix", "u"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
		t.Fatal(err)
	}
	count := func(m AccessMethod, extra ...Pred) int {
		n := 0
		if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: m, Preds: append([]Pred{Between("u", IntVal(5), IntVal(8))}, extra...)}, func(Row) bool { n++; return true }); err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		return n
	}
	want := count(TableScan)
	if want == 0 {
		t.Fatal("query matches nothing")
	}
	for _, m := range []AccessMethod{SortedIndexScan, PipelinedIndexScan, CMScan, Auto} {
		if got := count(m); got != want {
			t.Errorf("%v returned %d rows, want %d", m, got, want)
		}
	}
	// u = c/10, so the same rows are the clustered range c in [50, 89].
	if got := count(ClusteredIndexScan, Between("c", IntVal(50), IntVal(89))); got != want {
		t.Errorf("%v returned %d rows, want %d", ClusteredIndexScan, got, want)
	}
}

func TestInsertDeleteCommit(t *testing.T) {
	db, tbl := demoTable(t)
	if err := tbl.CreateCM("city_cm", CMColumn{Name: "city"}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Insert(Row{StringVal("OH"), StringVal("boston"), IntVal(1)}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}
	if tbl.RowCount() != 11 {
		t.Errorf("rows = %d", tbl.RowCount())
	}
	n, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("city", StringVal("boston")))
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("deleted %d, want 4", n)
	}
	if tbl.RowCount() != 7 {
		t.Errorf("rows after delete = %d", tbl.RowCount())
	}
	// CM no longer finds boston.
	found := len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{Eq("city", StringVal("boston"))}}))
	if found != 0 {
		t.Errorf("boston still found %d times after delete", found)
	}
}

func TestCMInfoAndIndexInfo(t *testing.T) {
	_, tbl := demoTable(t)
	if err := tbl.CreateCM("city_cm", CMColumn{Name: "city"}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("city_ix", "city"); err != nil {
		t.Fatal(err)
	}
	cms := tbl.CMs()
	if len(cms) != 1 || cms[0].Name != "city_cm" {
		t.Fatalf("CMs = %+v", cms)
	}
	if cms[0].Keys != 6 || cms[0].SizeBytes <= 0 {
		t.Errorf("CM info = %+v", cms[0])
	}
	if cms[0].Columns[0] != "city" {
		t.Error("CM columns wrong")
	}
	ixs := tbl.Indexes()
	if len(ixs) != 1 || ixs[0].Entries != 10 || ixs[0].SizeBytes <= 0 {
		t.Fatalf("Indexes = %+v", ixs)
	}
	// The CM is much smaller than the index even at 10 rows? Not
	// necessarily — but it must be within a page while the B+Tree holds
	// a full page minimum.
	if cms[0].SizeBytes >= ixs[0].SizeBytes {
		t.Errorf("CM %d >= index %d bytes", cms[0].SizeBytes, ixs[0].SizeBytes)
	}
}

func TestExplain(t *testing.T) {
	db, tbl := demoTable(t)
	info, err := db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("city", StringVal("boston"))}})
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != TableScan {
		t.Errorf("without access paths plan = %v", info.Method)
	}
	if info.EstimatedCost <= 0 {
		t.Error("cost not positive")
	}
	if err := tbl.CreateCM("city_cm", CMColumn{Name: "city"}); err != nil {
		t.Fatal(err)
	}
	info, err = db.ExplainSpec(QuerySpec{Table: tbl.Name(), Preds: []Pred{Eq("city", StringVal("boston"))}})
	if err != nil {
		t.Fatal(err)
	}
	// At ten rows the scan may still win; the plan must at least be
	// valid and costed.
	if info.Method.String() == "" || info.EstimatedCost <= 0 {
		t.Errorf("explain = %+v", info)
	}
}

func TestStatsAndColdCache(t *testing.T) {
	db, tbl := demoTable(t)
	// Warm scan: everything is still cached from the load, so no I/O.
	db.ResetStats()
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: TableScan}); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Reads != 0 {
		t.Error("warm scan should be served from the buffer pool")
	}
	// Cold scan pays disk reads and advances the virtual clock.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetStats()
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: TableScan}); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Reads == 0 {
		t.Error("cold scan should read from disk")
	}
	if st.Elapsed <= 0 {
		t.Error("no virtual time elapsed")
	}
	if st.PoolMisses == 0 {
		t.Error("cold scan should miss the pool")
	}
}

func TestAdviseAndCreateRecommended(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "data",
		Columns: []Column{
			{Name: "c", Kind: Int},
			{Name: "u", Kind: Int},
			{Name: "w", Kind: Float},
		},
		ClusteredBy: []string{"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var rows []Row
	for i := 0; i < 3000; i++ {
		c := int64(rng.Intn(500))
		rows = append(rows, Row{
			IntVal(c), IntVal(c / 5), FloatVal(float64(c) + rng.Float64()),
		})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	recs, err := tbl.Advise(50, Eq("u", IntVal(42)), Between("w", FloatVal(100), FloatVal(120)))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no recommendations")
	}
	// Sizes ascend.
	for i := 1; i < len(recs); i++ {
		if recs[i].SizeBytes < recs[i-1].SizeBytes {
			t.Fatal("recommendations not sorted by size")
		}
	}
	// A recommendation carries what CreateCM needs to build its design.
	cols := make([]CMColumn, len(recs[0].Columns))
	for i, c := range recs[0].Columns {
		cols[i] = CMColumn{Name: c, Width: recs[0].Widths[i], Prefix: recs[0].Prefixes[i]}
	}
	if err := tbl.CreateCM("advised", cols...); err != nil {
		t.Fatal(err)
	}
	if len(tbl.CMs()) != 1 {
		t.Error("recommended CM not created")
	}
	// The created CM answers queries on its own columns exactly.
	var preds []Pred
	for _, c := range recs[0].Columns {
		switch c {
		case "u":
			preds = append(preds, Eq("u", IntVal(42)))
		case "w":
			preds = append(preds, Between("w", FloatVal(100), FloatVal(120)))
		}
	}
	if len(preds) == 0 {
		t.Fatalf("recommendation covers no training columns: %+v", recs[0])
	}
	var viaCM, viaScan int
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: preds}, func(Row) bool { viaCM++; return true }); err != nil {
		t.Fatal(err)
	}
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: TableScan, Preds: preds}, func(Row) bool { viaScan++; return true }); err != nil {
		t.Fatal(err)
	}
	if viaCM != viaScan || viaScan == 0 {
		t.Errorf("CM scan %d rows vs table scan %d", viaCM, viaScan)
	}
}

func TestDiscoverFDs(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "geo",
		Columns: []Column{
			{Name: "id", Kind: Int},
			{Name: "city", Kind: String},
			{Name: "state", Kind: String},
		},
		ClusteredBy: []string{"id"},
	})
	if err != nil {
		t.Fatal(err)
	}
	states := []string{"MA", "NH", "OH", "MN", "MS"}
	var rows []Row
	for i := 0; i < 2000; i++ {
		s := states[i%len(states)]
		city := fmt.Sprintf("%s-city-%d", s, i%40) // city -> state is hard
		rows = append(rows, Row{IntVal(int64(i)), StringVal(city), StringVal(s)})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	fds, err := tbl.DiscoverFDs(0.9, false, "city", "state")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, fd := range fds {
		if len(fd.Determinant) == 1 && fd.Determinant[0] == "city" && fd.Dependent == "state" {
			found = true
			if fd.Strength < 0.99 {
				t.Errorf("city->state strength = %v", fd.Strength)
			}
		}
	}
	if !found {
		t.Error("city->state not discovered")
	}
}

// TestPairStats reads the paper's Table 2 correlation statistics for
// city against the clustering attribute state off an unbucketed CM on
// city over per-state buckets: D(city) keys, D(city, state) pairs, and
// c_per_u their ratio.
func TestPairStats(t *testing.T) {
	_, tbl := demoTable(t)
	if err := tbl.CreateCM("city_cm", CMColumn{Name: "city"}); err != nil {
		t.Fatal(err)
	}
	info := tbl.CMs()[0]
	if info.Keys != 6 || info.Pairs != 9 {
		t.Errorf("pair stats = %+v", info)
	}
	want := 9.0 / 6.0
	if info.CPerU < want-1e-9 || info.CPerU > want+1e-9 {
		t.Errorf("c_per_u = %v", info.CPerU)
	}
}

func TestErrorPaths(t *testing.T) {
	db, tbl := demoTable(t)
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: SortedIndexScan, Preds: []Pred{Eq("city", StringVal("boston"))}}); err == nil {
		t.Error("index scan without index should fail")
	}
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{Eq("city", StringVal("boston"))}}); err == nil {
		t.Error("CM scan without CM should fail")
	}
	if err := tbl.CreateCM("empty"); err == nil {
		t.Error("CM with no columns accepted")
	}
	if err := tbl.CreateCM("bad", CMColumn{Name: "zzz"}); err == nil {
		t.Error("CM on unknown column accepted")
	}
	if err := tbl.CreateIndex("bad", "zzz"); err == nil {
		t.Error("index on unknown column accepted")
	}
	if _, err := selectRows(db, QuerySpec{Table: tbl.Name(), Via: AccessMethod(42)}); err == nil {
		t.Error("unknown method accepted")
	}
	if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("zzz", IntVal(1))); err == nil {
		t.Error("delete with unknown column accepted")
	}
}

func TestSelectEarlyStop(t *testing.T) {
	db, tbl := demoTable(t)
	n := 0
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name()}, func(Row) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("visited %d rows after stop", n)
	}
}

func TestCMWithExplicitWidth(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "m",
		Columns: []Column{
			{Name: "c", Kind: Int},
			{Name: "temp", Kind: Float},
		},
		ClusteredBy: []string{"c"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var rows []Row
	for i := 0; i < 500; i++ {
		rows = append(rows, Row{IntVal(int64(i % 50)), FloatVal(float64(i%50) + 0.5)})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("temp_cm", CMColumn{Name: "temp", Width: 10}); err != nil {
		t.Fatal(err)
	}
	info := tbl.CMs()[0]
	if info.Keys != 5 { // 50 temps / width 10
		t.Errorf("bucketed CM keys = %d, want 5", info.Keys)
	}
	// Queries through the wide buckets stay exact.
	var got []float64
	if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{Eq("temp", FloatVal(7.5))}}, func(r Row) bool {
		got = append(got, r[1].Float())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Errorf("matched %d rows, want 10", len(got))
	}
	sort.Float64s(got)
	for _, f := range got {
		if f != 7.5 {
			t.Errorf("false positive %v", f)
		}
	}
}

func TestMethodStrings(t *testing.T) {
	for _, m := range []AccessMethod{Auto, TableScan, SortedIndexScan, PipelinedIndexScan, CMScan, ClusteredIndexScan, AccessMethod(77)} {
		if m.String() == "" {
			t.Error("empty method name")
		}
	}
}
