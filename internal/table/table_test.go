package table

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/sim"
	"repro/internal/value"
	"repro/internal/wal"
)

// peopleSchema is the Figure 4 example: (state, city, salary).
func peopleSchema() Schema {
	return NewSchema(
		Column{Name: "state", Kind: value.String},
		Column{Name: "city", Kind: value.String},
		Column{Name: "salary", Kind: value.Int},
	)
}

func peopleRows() []value.Row {
	data := []struct {
		state, city string
		salary      int64
	}{
		{"MA", "boston", 25000},
		{"NH", "boston", 45000},
		{"MA", "boston", 50000},
		{"MN", "manchester", 40000},
		{"MA", "cambridge", 110000},
		{"MS", "jackson", 80000},
		{"MA", "springfield", 90000},
		{"NH", "manchester", 60000},
		{"OH", "springfield", 95000},
		{"OH", "toledo", 70000},
	}
	rows := make([]value.Row, len(data))
	for i, d := range data {
		rows[i] = value.Row{value.NewString(d.state), value.NewString(d.city), value.NewInt(d.salary)}
	}
	return rows
}

func newPeople(t *testing.T) (*Table, *sim.Disk) {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: 512})
	pool := buffer.NewPool(d, 64)
	log := wal.NewLog(d)
	tbl, err := New(pool, log, Config{
		Name:          "people",
		Schema:        peopleSchema(),
		ClusteredCols: []int{0}, // clustered on state
		BucketTuples:  1,        // one bucket per distinct state
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load(peopleRows()); err != nil {
		t.Fatal(err)
	}
	return tbl, d
}

func TestLoadSortsByClusteredKey(t *testing.T) {
	tbl, _ := newPeople(t)
	var states []string
	if err := tbl.Scan(func(rid heap.RID, row value.Row) bool {
		states = append(states, row[0].S)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(states) != 10 {
		t.Fatalf("scanned %d rows", len(states))
	}
	for i := 1; i < len(states); i++ {
		if states[i-1] > states[i] {
			t.Fatalf("heap not clustered: %v", states)
		}
	}
}

func TestLoadTwiceFails(t *testing.T) {
	tbl, _ := newPeople(t)
	if err := tbl.Load(peopleRows()); err == nil {
		t.Error("second Load should fail")
	}
}

// TestClusteredIndexFindsRows resolves a clustering-key value the way
// the clustered index does — its bucket through the bounds, the bucket's
// pages through the page directory — and finds exactly its rows there.
func TestClusteredIndexFindsRows(t *testing.T) {
	tbl, _ := newPeople(t)
	rows := bucketRows(t, tbl, "MA")
	if len(rows) != 4 {
		t.Fatalf("MA rows = %d, want 4", len(rows))
	}
	for _, row := range rows {
		if row[0].S != "MA" {
			t.Errorf("clustered index returned %v", row)
		}
	}
}

// bucketRows returns the live rows on the pages the page directory lists
// for state's clustered bucket whose state is the bucket's, and fails
// the test when a page holds none of them.
func bucketRows(t *testing.T, tbl *Table, state string) []value.Row {
	t.Helper()
	b := tbl.Buckets().Locate(keyenc.EncodeValue(value.NewString(state)))
	pages, _ := tbl.PageDir().Refs(b)
	var rows []value.Row
	for _, page := range pages {
		before := len(rows)
		if err := tbl.Heap().ScanPagesAt(page, page, 0, func(rid heap.RID, tuple []byte) bool {
			row, err := tbl.Schema().DecodeRow(tuple)
			if err != nil {
				t.Fatal(err)
			}
			if tbl.ClusterBucketFor(row) == b {
				rows = append(rows, row)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
		if len(rows) == before {
			t.Errorf("bucket of %s lists page %d, which holds none of its rows", state, page)
		}
	}
	return rows
}

func TestCreateIndexAndScanRange(t *testing.T) {
	tbl, _ := newPeople(t)
	ix, err := tbl.CreateIndex("salary", []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if ix.Tree.Len() != 10 {
		t.Fatalf("index entries = %d", ix.Tree.Len())
	}
	lo := keyenc.EncodeValue(value.NewInt(50000))
	hi := keyenc.EncodeValue(value.NewInt(90000))
	count := 0
	if err := ix.ScanRange(lo, hi, func(rid heap.RID) bool {
		row, err := fetchRow(tbl, rid)
		if err != nil {
			t.Fatal(err)
		}
		if row[2].I < 50000 || row[2].I > 90000 {
			t.Errorf("range scan returned salary %d", row[2].I)
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("range matched %d rows, want 5 (50,60,70,80,90k)", count)
	}
}

func TestCreateCMMatchesFigure4(t *testing.T) {
	tbl, _ := newPeople(t)
	cm, err := tbl.CreateCM(core.Spec{Name: "city", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Keys() != 6 {
		t.Errorf("CM keys = %d, want 6 cities", cm.Keys())
	}
	// Boston co-occurs with MA and NH: with per-value buckets those are
	// two distinct clustered buckets.
	got := cm.Lookup(value.NewString("boston"))
	if len(got) != 2 {
		t.Errorf("boston buckets = %v", got)
	}
	// The buckets must map back to the pages holding MA and NH rows.
	for _, b := range got {
		lo := tbl.Buckets().LowerBound(b)
		vals, err := keyenc.DecodeAll(lo)
		if err != nil {
			t.Fatal(err)
		}
		if s := vals[0].S; s != "MA" && s != "NH" {
			t.Errorf("boston bucket bound = %q", s)
		}
	}
}

func TestInsertMaintainsEverything(t *testing.T) {
	tbl, _ := newPeople(t)
	ix, err := tbl.CreateIndex("city", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "city", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// A Boston in Ohio appears.
	row := value.Row{value.NewString("OH"), value.NewString("boston"), value.NewInt(1)}
	rids, err := insertRows(tbl, row)
	if err != nil {
		t.Fatal(err)
	}
	rid := rids[0]
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}
	// Heap row readable.
	got, err := fetchRow(tbl, rid)
	if err != nil || got == nil || got[1].S != "boston" {
		t.Fatalf("fetch after insert: %v %v", got, err)
	}
	// Secondary index sees it.
	n, boston := 0, keyenc.EncodeValue(value.NewString("boston"))
	if err := ix.ScanRange(boston, boston, func(heap.RID) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("city index boston entries = %d, want 4", n)
	}
	// CM now maps boston to a third bucket (OH's).
	if got := cm.Lookup(value.NewString("boston")); len(got) != 3 {
		t.Errorf("CM boston buckets after insert = %v", got)
	}
	// Clustered index finds the row by state, wherever its bucket's
	// placement put it.
	b := tbl.Buckets().Locate(keyenc.EncodeValue(value.NewString("OH")))
	if pages, _ := tbl.PageDir().Refs(b); !slices.Contains(pages, rid.Page) {
		t.Errorf("clustered index: OH's bucket lists pages %v, not the appended row's %d", pages, rid.Page)
	}
	if n := len(bucketRows(t, tbl, "OH")); n != 3 {
		t.Errorf("clustered index finds %d OH rows, want 3", n)
	}
}

func TestDeleteMaintainsEverything(t *testing.T) {
	tbl, _ := newPeople(t)
	ix, err := tbl.CreateIndex("city", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "city", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Find the single NH boston row and delete it.
	var target heap.RID
	if err := tbl.Scan(func(rid heap.RID, row value.Row) bool {
		if row[0].S == "NH" && row[1].S == "boston" {
			target = rid
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := deleteRows(tbl, target); err != nil {
		t.Fatal(err)
	}
	if row, _ := fetchRow(tbl, target); row != nil {
		t.Error("row still readable after delete")
	}
	n, boston := 0, keyenc.EncodeValue(value.NewString("boston"))
	if err := ix.ScanRange(boston, boston, func(heap.RID) bool {
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Errorf("boston index entries after delete = %d, want 2", n)
	}
	// CM retracts NH from boston's bucket set.
	if got := cm.Lookup(value.NewString("boston")); len(got) != 1 {
		t.Errorf("CM boston buckets after delete = %v", got)
	}
	// Deleting again fails.
	if err := deleteRows(tbl, target); err == nil {
		t.Error("double delete should fail")
	}
}

func TestStats(t *testing.T) {
	tbl, _ := newPeople(t)
	st := tbl.Stats()
	if st.TotalTups != 10 {
		t.Errorf("total tups = %d", st.TotalTups)
	}
	if st.Pages < 1 || st.TupsPerPage <= 0 {
		t.Errorf("stats = %+v", st)
	}
	if st.BTreeHeight < 1 {
		t.Errorf("height = %d", st.BTreeHeight)
	}
}

func TestPairStats(t *testing.T) {
	tbl, _ := newPeople(t)
	pc, err := tbl.PairStats([]int{1}) // city vs state
	if err != nil {
		t.Fatal(err)
	}
	if pc.DU() != 6 {
		t.Errorf("D(city) = %d", pc.DU())
	}
	if pc.DUC() != 9 {
		t.Errorf("D(city,state) = %d", pc.DUC())
	}
	want := 9.0 / 6.0
	if got := pc.CPerU(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("c_per_u = %v", got)
	}
}

func TestSchemaValidation(t *testing.T) {
	tbl, _ := newPeople(t)
	if _, err := insertRows(tbl, value.Row{value.NewInt(1)}); err == nil {
		t.Error("short row accepted")
	}
	good := value.Row{value.NewString("MA"), value.NewString("x"), value.NewInt(2)}
	bad := value.Row{value.NewInt(1), value.NewString("x"), value.NewInt(2)}
	_, err := insertRows(tbl, good, bad)
	if err == nil {
		t.Fatal("mistyped row accepted")
	}
	if !strings.Contains(err.Error(), "row 2") {
		t.Errorf("error %q does not name the rejected row", err)
	}
	if got := tbl.Stats().TotalTups; got != 10 {
		t.Errorf("%d rows after a rejected statement, want 10", got)
	}
}

func TestConfigValidation(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 512})
	pool := buffer.NewPool(d, 16)
	if _, err := New(pool, nil, Config{Name: "x", Schema: peopleSchema()}); err == nil {
		t.Error("missing clustered cols accepted")
	}
	if _, err := New(pool, nil, Config{Name: "x", Schema: peopleSchema(), ClusteredCols: []int{9}}); err == nil {
		t.Error("out-of-range clustered col accepted")
	}
}

func TestIndexAndCMDiscovery(t *testing.T) {
	tbl, _ := newPeople(t)
	if _, err := tbl.CreateIndex("city", []int{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateCM(core.Spec{Name: "citycm", UCols: []int{1}}); err != nil {
		t.Fatal(err)
	}
	if ixs := tbl.Indexes(); len(ixs) != 1 || !slices.Equal(ixs[0].Cols, []int{1}) {
		t.Errorf("Indexes() = %v, want the one index on column 1", ixs)
	}
	if cms := tbl.CMs(); len(cms) != 1 || !slices.Equal(cms[0].Spec().UCols, []int{1}) {
		t.Errorf("CMs() = %v, want the one CM on column 1", cms)
	}
}

func TestLargerTableClusteredCorrelation(t *testing.T) {
	// A larger synthetic check: cluster on A, where B = A/10 is perfectly
	// determined. The CM on B must have c_per_u == number of clustered
	// buckets its 10-value span covers, and lookups must locate exactly
	// the pages holding matching tuples.
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 256)
	sch := NewSchema(
		Column{Name: "a", Kind: value.Int},
		Column{Name: "b", Kind: value.Int},
	)
	tbl, err := New(pool, nil, Config{Name: "t", Schema: sch, ClusteredCols: []int{0}, BucketPages: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var rows []value.Row
	for i := 0; i < 5000; i++ {
		a := int64(rng.Intn(1000))
		rows = append(rows, value.Row{value.NewInt(a), value.NewInt(a / 10)})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.CreateCM(core.Spec{Name: "b", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Every b value maps to few buckets (a-range of 10 values is
	// contiguous in the clustered order).
	if cm.CPerU() > 4 {
		t.Errorf("correlated CM c_per_u = %v, too high", cm.CPerU())
	}
	// Verify completeness: CM lookup of b=42 must cover all rows with
	// b=42 (a in 420..429).
	buckets := cm.Lookup(value.NewInt(42))
	inBuckets := map[int32]bool{}
	for _, b := range buckets {
		inBuckets[b] = true
	}
	if err := tbl.Scan(func(rid heap.RID, row value.Row) bool {
		if row[1].I == 42 && !inBuckets[tbl.ClusterBucketFor(row)] {
			t.Errorf("row a=%d b=42 in bucket %d not covered by CM", row[0].I, tbl.ClusterBucketFor(row))
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	_ = fmt.Sprint(buckets)
}

func TestRowCodecRoundTrip(t *testing.T) {
	sch := peopleSchema()
	row := value.Row{value.NewString("MA"), value.NewString("bo\x00ston"), value.NewInt(-5)}
	enc, err := sch.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sch.DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range row {
		if !row[i].Equal(got[i]) {
			t.Errorf("col %d: %v != %v", i, row[i], got[i])
		}
	}
	// Trailing garbage is rejected.
	if _, err := sch.DecodeRow(append(enc, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
	// Truncation is rejected.
	if _, err := sch.DecodeRow(enc[:len(enc)-1]); err == nil {
		t.Error("truncated row accepted")
	}
}

func TestFloatColumnRoundTrip(t *testing.T) {
	sch := NewSchema(Column{Name: "f", Kind: value.Float})
	enc, err := sch.EncodeRow(value.Row{value.NewFloat(-12.75)})
	if err != nil {
		t.Fatal(err)
	}
	got, err := sch.DecodeRow(enc)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].F != -12.75 {
		t.Errorf("float = %v", got[0].F)
	}
}
