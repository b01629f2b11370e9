// Write golden test: a seeded stream of writer statements on the Figure
// 6 fixture leaves the same heap pages, WAL, CM checkpoints, page
// directory, index pages and disk counters however the write path is
// implemented.
package repro

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/sim"
)

// pollCtx is a context that reports itself cancelled from its nth Done
// poll on: the engine polls its statement context at fixed points (plan
// compilation, each swept heap page, each latched write batch), so a
// statement run under it is cancelled at the same point every time.
type pollCtx struct {
	context.Context
	left atomic.Int64
	done chan struct{}
}

func newPollCtx(n int64) *pollCtx {
	c := &pollCtx{Context: context.Background(), done: make(chan struct{})}
	c.left.Store(n)
	return c
}

func (c *pollCtx) Done() <-chan struct{} {
	if c.left.Add(-1) == 0 {
		close(c.done)
	}
	return c.done
}

func (c *pollCtx) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// writeState describes what a write stream leaves: the sha256 of each
// file on the simulated disk (the WAL, the heap, ix_subcat's tree) once
// the log is flushed and the cache dropped, of each CM's checkpoint and
// of the page directory's references, the log's length and record count,
// and the disk counters.
func writeState(t *testing.T, db *DB, tbl *Table) string {
	t.Helper()
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	s := db.Stats()
	in := tbl.inner
	in.RLock()
	defer in.RUnlock()
	var b strings.Builder
	files := map[sim.FileID]string{0: "wal", in.Heap().FileID(): "heap", in.Indexes()[0].Tree.FileID(): "ix_subcat"}
	for f := sim.FileID(0); f < sim.FileID(len(files)); f++ {
		h := sha256.New()
		for p := range db.disk.NumPages(f) {
			page, _, err := db.disk.ReadPageDeferWait(f, p)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(page)
		}
		fmt.Fprintf(&b, "%s %d pages %s\n", files[f], db.disk.NumPages(f), hex.EncodeToString(h.Sum(nil))[:16])
	}
	for _, cm := range in.CMs() {
		h := sha256.New()
		if err := cm.Serialize(h); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "cm %s %s\n", cm.Spec().Name, hex.EncodeToString(h.Sum(nil))[:16])
	}
	h := sha256.New()
	dir := in.PageDir()
	for cb := int32(0); cb < int32(in.Buckets().NumBuckets()); cb++ {
		pages, counts := dir.Refs(cb)
		fmt.Fprintln(h, cb, pages, counts)
	}
	fmt.Fprintf(&b, "directory %s\n", hex.EncodeToString(h.Sum(nil))[:16])
	fmt.Fprintf(&b, "wal %d B, %d records; %d rows; disk %d reads, %d writes, %d seeks, %v",
		db.log.Len(), db.log.Appends(), tbl.RowCount(), s.Reads, s.Writes, s.Seeks, s.Elapsed)
	return b.String()
}

// TestWriteGoldenBytes runs a seeded stream of writer statements on the
// Figure 6 fixture (with a second CM, on desc's first four bytes) and
// pins what it leaves behind: in-place UPDATEs of price, UPDATEs that
// move rows to another cat (clustering column), change subcat (indexed)
// or give desc another length, DELETEs, multi-row INSERTs, a commit
// every few statements, an UPDATE cancelled between two of its latched
// write batches and an UPDATE whose Publish fails on a WAL page write.
// A faster write path must write exactly what the slower one did. The
// failed Publish logs none of its records; while the log kept the 41 it
// had appended before the failing page write, the stream left 117 WAL
// pages (e7e4d7b0d033826e), 950,369 B and 5,040 records, and 2,011 disk
// writes in 2.454264 s. The disk line moved once more, from 2,010 writes,
// 423 seeks and 2.454186 s, when the index build began writing each
// finished leaf back as it split: the build now writes the index's
// leaves once, and a leaf the stream dirties again is written a second
// time at the stream's next flush. It moved again, from 0 reads, 2,141
// writes, 417 seeks and 2.431872 s, when the index came to be built past
// the pool: the build leaves none of its pages cached, so the stream
// reads each index page it maintains from disk the first time (133
// reads, with the seeks they start), and the build itself also writes
// the last leaf and the root, which had stayed dirty in the pool. No
// page's bytes moved. The WAL digest moved (from e5378bebe78b652d) when
// the log came to append into the pages the disk lends instead of one
// reused page image: its last page past the end of the log now reads
// zero, not the leftover bytes of the page before it.
func TestWriteGoldenBytes(t *testing.T) {
	const want = `wal 116 pages f53b1c193d5c52f4
heap 1340 pages 2cac283301748e7c
ix_subcat 294 pages eff49fecd2664e52
cm subcat_cm 3488485628b99f33
cm desc_cm c4a37ce5dbbdedbb
directory 73d023a51a889f01
wal 942661 B, 4999 records; 60018 rows; disk 133 reads, 2143 writes, 555 seeks, 3.190638s`
	db := Open(Config{Workers: 1})
	tbl := buildItems(t, db, itemsRows(60000))
	if err := tbl.CreateCM("desc_cm", CMColumn{Name: "desc", Prefix: 4}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(44))
	update := func(sets []Set, preds ...Pred) {
		t.Helper()
		if _, err := db.UpdateCtx(ctx, "items", sets, preds...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 240; i++ {
		cat := int64(rng.Intn(4000))
		switch op := rng.Intn(10); {
		case op < 4:
			update([]Set{{Col: "price", Val: IntVal(int64(rng.Intn(10000)))}}, Eq("cat", IntVal(cat)))
		case op == 4:
			update([]Set{{Col: "cat", Val: IntVal(int64(rng.Intn(4000)))}},
				Eq("cat", IntVal(cat)), Lt("price", IntVal(3000)))
		case op == 5:
			update([]Set{{Col: "subcat", Val: IntVal(int64(rng.Intn(500)))}}, Eq("cat", IntVal(cat)))
		case op == 6:
			desc := strings.Repeat(string(rune('a'+rng.Intn(26))), 100+rng.Intn(100))
			update([]Set{{Col: "desc", Val: StringVal(desc)}}, Eq("subcat", IntVal(cat/8)), Lt("price", IntVal(2000)))
		case op == 7:
			if _, err := db.DeleteCtx(ctx, "items", Eq("cat", IntVal(cat)), Gt("price", IntVal(7000))); err != nil {
				t.Fatal(err)
			}
		default:
			vals := make([]string, 1+rng.Intn(4))
			for j := range vals {
				c := rng.Intn(4000)
				vals[j] = fmt.Sprintf("(%d, %d, %d, '%s')", c, c/8, rng.Intn(10000), strings.Repeat("y", 140+rng.Intn(20)))
			}
			if _, err := db.Exec("INSERT INTO items VALUES " + strings.Join(vals, ", ")); err != nil {
				t.Fatal(err)
			}
		}
		if i%10 == 9 {
			if err := tbl.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		switch i {
		case 100:
			// 473 rows, four latched write batches: uncancelled, the
			// statement polls its context 17 times, the last four
			// before each batch, so the 15th poll cancels it with the
			// first batch applied.
			_, err := db.UpdateCtx(newPollCtx(15), "items", []Set{{Col: "price", Val: IntVal(1)}},
				Between("cat", IntVal(200), IntVal(230)))
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("cancelled UPDATE returned %v, want context.Canceled", err)
			}
		case 200:
			// Enough records to fill a WAL page: its write is the first
			// disk write after arming, as the pool evicts nothing.
			db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
			_, err := db.UpdateCtx(ctx, "items", []Set{{Col: "price", Val: IntVal(2)}},
				Between("cat", IntVal(300), IntVal(330)))
			db.SetFaultPlan(nil)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("UPDATE under a WAL write fault returned %v, want ErrInjected", err)
			}
		}
	}
	if got := writeState(t, db, tbl); got != want {
		t.Errorf("write stream left\n%s\nwant\n%s", got, want)
	}
}
