// Counts golden test: two seeded statement streams over the Figure 6
// fixture — the mixed read/write churn and cold point probes through a
// 128-frame pool — with what each statement class reads, seeks, waits
// and hits in the pool, and what the table holds at the end, printed
// against testdata/counts.golden. Every number is a count or the
// simulated disk's virtual time, so a change that moves one shows as a
// diff of the golden.
package repro

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"repro/internal/datagen"
)

var updateCountsGolden = flag.Bool("update-counts-golden", false, "rewrite testdata/counts.golden from this run")

// countsGoldenPath is the golden TestCountsGolden compares against.
const countsGoldenPath = "testdata/counts.golden"

// classCounts is what one statement class paid over a stream.
type classCounts struct {
	stmts                      int
	reads, seeks, hits, misses uint64
	virtualNS                  int64
}

// runStream executes each statement next(i) yields for i < n, adds what
// it paid to its class and prints the classes in order.
func runStream(t *testing.T, db *DB, out *strings.Builder, classes []string, n int, next func(i int) (class int, stmt string)) {
	t.Helper()
	counts := make([]classCounts, len(classes))
	for i := range n {
		class, stmt := next(i)
		before := db.Stats()
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("statement %d, %s: %v", i, stmt, err)
		}
		after := db.Stats()
		c := &counts[class]
		c.stmts++
		c.reads += after.Reads - before.Reads
		c.seeks += after.Seeks - before.Seeks
		c.hits += after.PoolHits - before.PoolHits
		c.misses += after.PoolMisses - before.PoolMisses
		c.virtualNS += int64(after.Elapsed - before.Elapsed)
	}
	for i, c := range counts {
		fmt.Fprintf(out, "%-6s %5d stmts: %6d reads, %5d seeks, %12d virtual ns, pool %8d hits, %6d misses\n",
			classes[i], c.stmts, c.reads, c.seeks, c.virtualNS, c.hits, c.misses)
	}
}

// writeEndState prints what the table holds after a stream: heap pages,
// MVCC version bytes, WAL bytes, the secondary indexes' and CMs' bytes.
func writeEndState(t *testing.T, db *DB, tbl *Table, out *strings.Builder) {
	t.Helper()
	in := tbl.inner
	in.RLock()
	var indexBytes, cmBytes int64
	for _, ix := range in.Indexes() {
		indexBytes += ix.SizeBytes()
	}
	for _, cm := range in.CMs() {
		cmBytes += cm.SizeBytes()
	}
	pages := in.Heap().NumPages()
	in.RUnlock()
	fmt.Fprintf(out, "end: %d heap pages, table.version_bytes %d, wal.bytes %d, btree.index_bytes %d, cm bytes %d\n",
		pages, metricValue(t, db, "table.version_bytes"), metricValue(t, db, "wal.bytes"), indexBytes, cmBytes)
}

// TestCountsGolden pins the counts of two seeded streams on the Figure 6
// fixture (60,000 items clustered on cat, an index and a CM on subcat),
// each at one worker so every count is deterministic:
//   - churn: 10,000 statements of mixed_rw's 70/15/10/5 point, aggregate,
//     UPDATE and INSERT mix through a pool that holds the table;
//   - cold: through a 128-frame pool, a clustered range over the last
//     tenth of cat from a cold cache — the pages the build left cached,
//     so a page that ColdCache kept shows as a hit — then 2,000 subcat
//     point probes, point_cold's statement, from a cold cache again.
func TestCountsGolden(t *testing.T) {
	var out strings.Builder

	out.WriteString("== churn (pool 4096)\n")
	db, tbl := itemsFixture(t, 1)
	rng := rand.New(rand.NewPCG(45, 70))
	runStream(t, db, &out, []string{"point", "agg", "update", "insert"}, 10_000, func(i int) (int, string) {
		switch r := i % 20; {
		case r < 14:
			return 0, fmt.Sprintf("SELECT price FROM items WHERE subcat = %d", rng.IntN(datagen.CorrelatedSubcats))
		case r < 17:
			return 1, fmt.Sprintf("SELECT COUNT(*), AVG(price) FROM items WHERE subcat = %d", rng.IntN(datagen.CorrelatedSubcats))
		case r < 19:
			return 2, fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", rng.IntN(10_000), rng.IntN(datagen.CorrelatedCats))
		default:
			c := rng.IntN(datagen.CorrelatedCats)
			return 3, fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %d, 'new')", c, c/8, rng.IntN(10_000))
		}
	})
	writeEndState(t, db, tbl, &out)

	out.WriteString("== cold (pool 128, each class after ColdCache)\n")
	db, tbl = itemsFixtureOn(t, Config{BufferPoolPages: 128, Workers: 1})
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	runStream(t, db, &out, []string{"tail"}, 1, func(int) (int, string) {
		return 0, fmt.Sprintf("SELECT cat FROM items WHERE cat >= %d", datagen.CorrelatedCats*9/10)
	})
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	rng = rand.New(rand.NewPCG(55, 128))
	runStream(t, db, &out, []string{"point"}, 2_000, func(int) (int, string) {
		return 0, fmt.Sprintf("SELECT price FROM items WHERE subcat = %d", rng.IntN(datagen.CorrelatedSubcats))
	})
	writeEndState(t, db, tbl, &out)

	if *updateCountsGolden {
		if err := os.WriteFile(countsGoldenPath, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(countsGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("counts differ from %s (rerun with -update-counts-golden to see them):\n%s",
			countsGoldenPath, lineDiff(string(want), out.String()))
	}
}
