// Build tests: building the Figure 6 fixture (Load, CreateIndex,
// CreateCM) writes the same bytes and pays the same I/O however the
// build is implemented, and each step allocates within a fixed budget.
package repro

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/btree"
	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// buildItems builds the benchmark's fixture: the 60,000-row correlated
// items table with its subcat index and subcat CM.
func buildItems(t testing.TB, db *DB, rows []Row) *Table {
	t.Helper()
	tbl := emptyItems(t, db)
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}); err != nil {
		t.Fatal(err)
	}
	return tbl
}

// diskDigest flushes and drops the cache and returns the sha256 over
// every page of every file on the simulated disk, in file and page
// order. The index's tree is the last file the build creates.
func diskDigest(t *testing.T, db *DB, tbl *Table) string {
	t.Helper()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	tbl.inner.RLock()
	files := tbl.inner.Indexes()[0].Tree.FileID() + 1
	tbl.inner.RUnlock()
	h := sha256.New()
	for f := sim.FileID(0); f < files; f++ {
		for p := range db.disk.NumPages(f) {
			page, _, err := db.disk.ReadPageDeferWait(f, p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(page)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// builtState describes what the build keeps in memory: the heap's page
// and bucket counts, the clustered directory's size, the index's pair
// statistics and the sha256 of the CM's checkpoint.
func builtState(t *testing.T, tbl *Table) string {
	t.Helper()
	in := tbl.inner
	in.RLock()
	defer in.RUnlock()
	p, _ := in.Indexes()[0].Pairs()
	h := sha256.New()
	if err := in.CMs()[0].Serialize(h); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%d pages, %d buckets, directory %d B, pairs %v/%v/%v at %d, cm %s",
		in.Stats().Pages, in.Buckets().NumBuckets(), in.DirectorySizeBytes(),
		p.UTups, p.CTups, p.CPerU, p.At, hex.EncodeToString(h.Sum(nil)))
}

// TestBuildGoldenBytes pins what building the Figure 6 fixture leaves
// behind and what the build pays for it, through a pool that holds the
// whole build and through the benchmark's 128-page cold pool: the page
// bytes of every file once the cache is dropped, the heap, directory,
// pair statistics and CM the build keeps in memory, and the build's disk
// counters. A faster build must write exactly what the slower one did,
// and leave no frame pinned. The counters moved when the index build
// began writing each finished leaf back as it split: from 1,333 writes,
// 1 seek and 109.396 ms at pool 4096, where the leaves now reach the
// disk during the build rather than at the first flush, and from 11
// seeks and 386.228 ms at pool 128, whose clock no longer evicts the
// leaves out of order. They moved again, at pool 4096 only, when the
// index came to be built bottom-up past the pool: from 1,516 writes and
// 134.514 ms, since the build also writes the last leaf and the root,
// which had stayed dirty in the pool. Its pages did not change.
func TestBuildGoldenBytes(t *testing.T) {
	const (
		state = "1334 pages, 1147 buckets, directory 62043 B, pairs 120/15/8 at 60000, " +
			"cm 7e234503370d94dd58fcc8bf8a2655886716bde4645f9ec74d98a19ce3ccdb9d"
		digest = "e90d56931f53b2597682344541f16396402749ac9288d48c13389f3ca5db5c74"
	)
	rows := itemsRows(60000)
	for _, c := range []struct {
		pool                 int
		reads, writes, seeks uint64
		elapsed              time.Duration
	}{
		{4096, 0, 1518, 3, 134670 * time.Microsecond},
		{128, 2668, 1519, 5, 353696 * time.Microsecond},
	} {
		db := Open(Config{BufferPoolPages: c.pool})
		tbl := buildItems(t, db, rows)
		if n := db.PinnedFrames(); n != 0 {
			t.Errorf("pool %d: %d frames pinned after the build", c.pool, n)
		}
		s := db.Stats()
		if s.Reads != c.reads || s.Writes != c.writes || s.Seeks != c.seeks || s.Elapsed != c.elapsed {
			t.Errorf("pool %d: build paid %d reads, %d writes, %d seeks, %v virtual; want %d, %d, %d, %v",
				c.pool, s.Reads, s.Writes, s.Seeks, s.Elapsed, c.reads, c.writes, c.seeks, c.elapsed)
		}
		if got := builtState(t, tbl); got != state {
			t.Errorf("pool %d: build left %s\nwant %s", c.pool, got, state)
		}
		if got := diskDigest(t, db, tbl); got != digest {
			t.Errorf("pool %d: disk sha256 %s, want %s", c.pool, got, digest)
		}
	}
}

// TestBuildKeepsTheIndexOutOfThePool: the Figure 6 build's index takes
// no pool frame. At pool 4096, where the build evicts nothing, none of
// the index's pages is resident afterwards.
func TestBuildKeepsTheIndexOutOfThePool(t *testing.T) {
	db := Open(Config{BufferPoolPages: 4096})
	tbl := buildItems(t, db, itemsRows(60000))
	tbl.inner.RLock()
	tree := tbl.inner.Indexes()[0].Tree
	tbl.inner.RUnlock()
	for p := range tree.PageCount() {
		if db.pool.Resident(tree.FileID(), p) {
			t.Fatalf("index page %d of %d is resident after the build", p, tree.PageCount())
		}
	}
}

// TestBuildAllocs gates the objects and bytes each step of building the
// Figure 6 fixture allocates, at one P as the benchmark builds it, about
// 10 % above what it measures; a -race build (raceBuild) reads its own
// bounds, since its slices.Grow allocates twice. Load: 1,464 objects,
// 16.74 MB — 10.9 MB of it the disk's pages, 2.4 MB the rows staged in
// clustered order (3,877 / 31.6 MB while the facade copied every row,
// each row was checked and sized apart from its encoding and the undo
// log held every row; 5,211 / 42.5 MB while each frame the load filled
// allocated a second page buffer; 14,549 while each page grew a
// per-slot version array for Clip to fold; 194,568 with an encoding, a
// clustering key and a converted row per row). CreateIndex: 334 / 3.79
// MB (686 while it inserted each entry through the pool; 180,887 while
// every row was decoded whole into a fresh row). CreateCM: about 3,150 /
// 0.58 MB (63,147 while its stat columns decoded each row's desc into a
// string; 183,143 before). Under -race: 1,465 / 17.28 MB, 335 / 4.94 MB
// and 3,153 / 0.59 MB.
func TestBuildAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	rows := itemsRows(60000)
	db := Open(Config{})
	tbl := emptyItems(t, db)
	for _, s := range []struct {
		name                string
		run                 func() error
		objs, bytes         uint64
		raceObjs, raceBytes uint64
	}{
		{"Load", func() error { return tbl.Load(rows) }, 1_611, 18_412_000, 1_612, 19_007_000},
		{"CreateIndex", func() error { return tbl.CreateIndex("ix_subcat", "subcat") }, 367, 4_171_000, 368, 5_433_000},
		{"CreateCM", func() error { return tbl.CreateCM("subcat_cm", CMColumn{Name: "subcat"}) }, 3_467, 639_700, 3_468, 648_800},
	} {
		if raceBuild {
			s.objs, s.bytes = s.raceObjs, s.raceBytes
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := s.run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		objs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		t.Logf("%s: %d objects, %d bytes (%.1f MB)", s.name, objs, bytes, float64(bytes)/1e6)
		if objs > s.objs || bytes > s.bytes {
			t.Errorf("%s allocated %d objects and %d bytes, bounds %d and %d", s.name, objs, bytes, s.objs, s.bytes)
		}
	}
}

// BenchmarkFixtureBuild times what the benchmark's set-up times of the
// Figure 6 fixture, less its server: the rows built from 60,000
// correlated items, then CreateTable, Load, CreateIndex and CreateCM on
// point_warm's 4096-page pool. The items are generated once, outside the
// timer, as the benchmark generates them once per run. Compare builds
// from alternated runs at -cpu 1.
func BenchmarkFixtureBuild(b *testing.B) {
	items := datagen.CorrelatedItems(60000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		db := Open(Config{BufferPoolPages: 4096, Workers: runtime.NumCPU()})
		rows := make([]Row, len(items))
		for i, it := range items {
			rows[i] = Row{IntVal(it.Cat), IntVal(it.Subcat), IntVal(it.Price), StringVal(it.Desc)}
		}
		buildItems(b, db, rows)
	}
}

// TestCreateIndexOverAnUnsortedColumn: CREATE INDEX over price, which the
// heap, clustered on cat, holds in no order, sorts its entries only once
// btree.Build has found them unsorted, and holds exactly the entries that
// inserting each live row into an empty tree leaves.
func TestCreateIndexOverAnUnsortedColumn(t *testing.T) {
	db, tbl := itemsTable(t, Config{}, 2000)
	if err := tbl.CreateIndex("ix_price", "price"); err != nil {
		t.Fatal(err)
	}
	inner := tbl.inner
	built := inner.Indexes()[1]
	tree, err := btree.New(db.pool)
	if err != nil {
		t.Fatal(err)
	}
	inserted := &table.Index{Cols: built.Cols, Tree: tree}
	ascending, prev := true, int64(-1)
	if err := inner.Scan(nil, func(rid heap.RID, row value.Row) bool {
		ascending = ascending && row[2].I >= prev
		prev = row[2].I
		err = inserted.Insert(row, rid)
		return err == nil
	}); err != nil {
		t.Fatal(err)
	}
	if ascending {
		t.Fatal("the heap holds price in order; the test needs it unsorted")
	}
	got, want := treeKeys(t, built.Tree), treeKeys(t, inserted.Tree)
	if len(got) != 2000 || !slices.EqualFunc(got, want, bytes.Equal) {
		t.Fatalf("CREATE INDEX on price holds %d entries, %d inserted one by one, and they differ", len(got), len(want))
	}
}
