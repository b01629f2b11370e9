package table

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/value"
	"repro/internal/wal"
)

// dirRow builds a (k, u, pad) row: clustered on k, u = k/4 is the soft
// functional dependency the CM rides, pad fills the 512-byte pages so a
// few hundred rows span dozens of them.
func dirRow(k int64, tag string) value.Row {
	return value.Row{value.NewInt(k), value.NewInt(k / 4), value.NewString(fmt.Sprintf("%-40s", tag))}
}

// newDirTable creates the property test's table on its own disk: ten
// tuples per clustered bucket, a pool large enough that nothing is
// evicted (so an armed write fault hits the WAL, not a dirty page).
func newDirTable(t *testing.T) (*Table, *sim.Disk) {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: 512})
	tbl, err := New(buffer.NewPool(d, 4096), wal.NewLog(d), Config{
		Name: "dir",
		Schema: NewSchema(
			Column{Name: "k", Kind: value.Int},
			Column{Name: "u", Kind: value.Int},
			Column{Name: "pad", Kind: value.String},
		),
		ClusteredCols: []int{0},
		BucketTuples:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, d
}

// pageDirDiff holds the live page directory to the from-scratch rebuild
// — pages and reference counts, every bucket either side knows — and
// describes the first difference ("" when there is none). The caller
// holds the latch whenever a writer may be running.
func pageDirDiff(tbl *Table) string {
	want, err := tbl.RebuildPageDirectory()
	if err != nil {
		return "rebuild: " + err.Error()
	}
	got := tbl.PageDir()
	for b := int32(0); int(b) < max(len(got.buckets), len(want.buckets)); b++ {
		gp, gc := got.Refs(b)
		wp, wc := want.Refs(b)
		if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
			return fmt.Sprintf("bucket %d: directory has pages %v counts %v, the heap has pages %v counts %v",
				b, gp, gc, wp, wc)
		}
	}
	return ""
}

// checkPageDir fails the test when the directory differs from the
// rebuild.
func checkPageDir(t *testing.T, tbl *Table, stage string) {
	t.Helper()
	if diff := pageDirDiff(tbl); diff != "" {
		t.Fatalf("%s: %s", stage, diff)
	}
}

// liveRows lists the table's live rows in physical order.
func liveRows(t *testing.T, tbl *Table) (rids []heap.RID, rows []value.Row) {
	t.Helper()
	err := tbl.Scan(nil, func(rid heap.RID, row value.Row) bool {
		rids = append(rids, rid)
		rows = append(rows, row.Clone())
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return rids, rows
}

// TestPageDirectoryEqualsRebuildThroughChurn is the directory's
// property test: after every statement of a generated stream — batched
// inserts, updates (some moving the clustering key), deletes, aborted
// and cancelled statements, publishes failing on an injected WAL fault —
// and while statements are applied but unpublished, every bucket's pages
// and counts equal a directory rebuilt from the heap. Odd
// seeds never bulk-load (everything lives in bucket 0); even seeds load
// first and later insert keys below the first bound.
func TestPageDirectoryEqualsRebuildThroughChurn(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			tbl, disk := newDirTable(t)
			loaded := seed%2 == 0
			if loaded {
				rows := make([]value.Row, 600)
				for i := range rows {
					rows[i] = dirRow(int64(1000+rng.Intn(300)), "load")
				}
				if err := tbl.Load(rows); err != nil {
					t.Fatal(err)
				}
				checkPageDir(t, tbl, "after Load")
				if nb := tbl.Buckets().NumBuckets(); nb < 20 || len(tbl.PageDir().buckets) != nb {
					t.Fatalf("Load left %d buckets in the bounds, %d in the page directory", nb, len(tbl.PageDir().buckets))
				}
			}
			loadedPages := tbl.Heap().NumPages()
			if _, err := tbl.CreateIndex("ix_u", []int{1}); err != nil {
				t.Fatal(err)
			}
			if _, err := tbl.CreateCM(core.Spec{Name: "cm_u", UCols: []int{1}}); err != nil {
				t.Fatal(err)
			}

			// newRows draws n rows; every fourth statement reaches below the
			// loaded key range (bucket 0 by Locate's clamp).
			newRows := func(n int, low bool) []value.Row {
				out := make([]value.Row, n)
				for i := range out {
					k := int64(1000 + rng.Intn(300))
					if low {
						k = int64(rng.Intn(900))
					}
					out[i] = dirRow(k, "new")
				}
				return out
			}
			// apply runs one statement's batches on tx: a multi-chunk insert,
			// an update of a random slice (half the rows change their key),
			// a delete of another.
			apply := func(tx *WriteTxn, step int) error {
				if err := tx.InsertBatch(newRows(1+rng.Intn(2*writeBatchRows), step%4 == 0)); err != nil {
					return err
				}
				checkPageDir(t, tbl, fmt.Sprintf("step %d mid-statement, after InsertBatch", step))
				rids, rows := liveRows(t, tbl)
				if len(rids) < 40 {
					return nil
				}
				at := rng.Intn(len(rids) - 30)
				news := make([]value.Row, 20)
				for i := range news {
					news[i] = rows[at+i].Clone()
					if i%2 == 0 {
						news[i][0] = value.NewInt(int64(1000 + rng.Intn(300)))
						news[i][1] = value.NewInt(news[i][0].I / 4)
					}
				}
				if err := updateRows(tx, rids[at:at+20], news); err != nil {
					return err
				}
				checkPageDir(t, tbl, fmt.Sprintf("step %d mid-statement, after UpdateBatch", step))
				return endRows(tx, rids[at+20:at+30])
			}

			for step := 0; step < 40; step++ {
				stage := fmt.Sprintf("step %d", step)
				tx := tbl.BeginWrite()
				switch step % 5 {
				case 0, 1: // publish
					if err := apply(tx, step); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if err := tx.Publish(); err != nil {
						t.Fatalf("%s: publish: %v", stage, err)
					}
				case 2: // abort
					if err := apply(tx, step); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					if err := tx.Abort(); err != nil {
						t.Fatalf("%s: abort: %v", stage, err)
					}
					stage += " (aborted)"
				case 3: // cancelled between two batches
					ctx, cancel := context.WithCancel(context.Background())
					tx.SetContext(ctx)
					if err := tx.InsertBatch(newRows(writeBatchRows+5, false)); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					cancel()
					if err := tx.InsertBatch(newRows(10, true)); !errors.Is(err, context.Canceled) {
						t.Fatalf("%s: batch under a cancelled context returned %v", stage, err)
					}
					tx.Abort()
					stage += " (cancelled)"
				case 4: // publish fails on the first WAL page write
					if err := apply(tx, step); err != nil {
						t.Fatalf("%s: %v", stage, err)
					}
					disk.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
					err := tx.Publish()
					disk.SetFaultPlan(nil)
					if !errors.Is(err, sim.ErrInjected) {
						t.Fatalf("%s: publish under a write fault returned %v", stage, err)
					}
					stage += " (publish failed)"
				}
				checkPageDir(t, tbl, stage)
			}

			// The stream must have exercised what it claims to.
			tail := int64(0)
			for b := int32(0); int(b) < len(tbl.PageDir().buckets); b++ {
				pages, _ := tbl.PageDir().Refs(b)
				if len(pages) > 0 {
					tail = max(tail, pages[len(pages)-1])
				}
			}
			if tail < loadedPages+100 {
				t.Errorf("no bucket holds tail versions (last directory page %d, the load ended at %d)", tail, loadedPages)
			}
			if pages, _ := tbl.PageDir().Refs(0); len(pages) < 2 {
				t.Errorf("bucket 0 holds pages %v; keys below the first bound never landed in it", pages)
			}
		})
	}
}

// TestPageDirectoryBetweenWriterBatches runs readers beside an in-flight
// writer: each reader takes the latch shared — so it lands between two
// of the writer's latched batches — and holds the directory to the
// rebuild there. Under -race this is also the proof that the directory,
// and the cleanup queue DeadVersions reads, move only under the
// exclusive latch.
func TestPageDirectoryBetweenWriterBatches(t *testing.T) {
	tbl, _ := newDirTable(t)
	rows := make([]value.Row, 800)
	for i := range rows {
		rows[i] = dirRow(int64(i/2), "load")
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.CreateCM(core.Spec{Name: "cm_u", UCols: []int{1}}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var checks [2]int
	for r := range checks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tbl.RLock()
				diff := pageDirDiff(tbl)
				_ = tbl.DeadVersions() // reads the cleanup queue beside the writer
				tbl.RUnlock()
				if diff != "" {
					t.Errorf("reader between writer batches: %s", diff)
					return
				}
				checks[r]++
			}
		}()
	}

	rng := rand.New(rand.NewSource(7))
	for stmt := 0; stmt < 12; stmt++ {
		tbl.RLock()
		rids, old := liveRows(t, tbl)
		tbl.RUnlock()
		at := rng.Intn(len(rids) - 3*writeBatchRows)
		news := make([]value.Row, 3*writeBatchRows)
		for i := range news {
			news[i] = old[at+i].Clone()
			news[i][0] = value.NewInt(int64(rng.Intn(400)))
			news[i][1] = value.NewInt(news[i][0].I / 4)
		}
		tx := tbl.BeginWrite()
		if err := updateRows(tx, rids[at:at+len(news)], news); err != nil {
			t.Fatal(err)
		}
		if stmt%3 == 2 {
			tx.Abort()
		} else if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if checks[0] == 0 || checks[1] == 0 {
		t.Errorf("readers completed %v checks; the test never looked between batches", checks)
	}
	checkPageDir(t, tbl, "after the writer")
}

// TestPageDirectoryLoadAbort fails a bulk load, and an index build, on
// an injected fault at each disk write they make in turn: a heap page's
// write-back, an eviction, and a page of an index's bottom-up build. A
// failed Load must take every row back out of the heap and the directory
// and leave the index created before it with no entries, and can then be
// run again; a failed CreateIndex must add no index. Neither may leave a
// frame pinned, nor a page the disk did not hold before it: a failed Load
// truncates the heap back to the pages it had, a failed index build gives
// its file's pages back, and so does a new heap page that got no frame.
func TestPageDirectoryLoadAbort(t *testing.T) {
	rows := make([]value.Row, 600)
	for i := range rows {
		rows[i] = dirRow(int64(i), "load")
		// Out of key order, so the index build sorts its entries.
		rows[i][1] = value.NewInt(int64(i * 7 % 97))
	}
	newTable := func() (*Table, *sim.Disk) {
		d := sim.NewDisk(sim.Config{PageSize: 512})
		// A pool far smaller than the load: its write-backs and evictions
		// write dirty pages.
		tbl, err := New(buffer.NewPool(d, 16), wal.NewLog(d), Config{
			Name:          "dir",
			Schema:        NewSchema(Column{Name: "k", Kind: value.Int}, Column{Name: "u", Kind: value.Int}, Column{Name: "pad", Kind: value.String}),
			ClusteredCols: []int{0},
			BucketTuples:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		return tbl, d
	}
	createIndex := func(tbl *Table) error {
		_, err := tbl.CreateIndex("ix_u", []int{1})
		return err
	}
	load := func(tbl *Table) error { return tbl.Load(rows) }
	for _, c := range []struct {
		name       string
		setup, run func(*Table) error
		check      func(*Table, int64)
	}{
		{"Load", createIndex, load, func(tbl *Table, n int64) {
			ix := tbl.Indexes()[0]
			if got, entries := tbl.Heap().TupleCount(), ix.Tree.Len(); got != 0 || entries != 0 {
				t.Fatalf("write %d: the failed Load left %d heap tuples and %d index entries", n, got, entries)
			}
			if it, err := ix.Tree.SeekFirst(); err != nil || it.Valid() {
				t.Fatalf("write %d: the index yields an entry after the failed Load (%v)", n, err)
			}
			checkPageDir(t, tbl, "after the failed Load")
			for b := int32(0); int(b) < len(tbl.PageDir().buckets); b++ {
				if pages, _ := tbl.PageDir().Refs(b); len(pages) != 0 {
					t.Fatalf("write %d: bucket %d still holds pages %v after the load unwound", n, b, pages)
				}
			}
			if err := tbl.Load(rows); err != nil || ix.Tree.Len() != int64(len(rows)) {
				t.Fatalf("write %d: Load after the failed one: %v, %d index entries", n, err, ix.Tree.Len())
			}
		}},
		{"CreateIndex", load, createIndex, func(tbl *Table, n int64) {
			if ixs := len(tbl.Indexes()); ixs != 0 {
				t.Fatalf("write %d: the failed CreateIndex left %d indexes", n, ixs)
			}
		}},
	} {
		tbl, d := newTable()
		if err := c.setup(tbl); err != nil {
			t.Fatal(err)
		}
		before := d.Stats().Writes
		if err := c.run(tbl); err != nil {
			t.Fatal(err)
		}
		writes := int64(d.Stats().Writes - before)
		for n := int64(1); n <= writes; n++ {
			tbl, d := newTable()
			if err := c.setup(tbl); err != nil {
				t.Fatal(err)
			}
			store, heapPages := d.StoreBytes(), tbl.Heap().NumPages()
			d.SetFaultPlan(&sim.FaultPlan{FailWriteN: n})
			err := c.run(tbl)
			d.SetFaultPlan(nil)
			if !errors.Is(err, sim.ErrInjected) {
				t.Fatalf("%s, write %d of %d: returned %v under a write fault", c.name, n, writes, err)
			}
			if grown, heap := d.StoreBytes()-store, (tbl.Heap().NumPages()-heapPages)*int64(d.PageSize()); grown != heap || heap != 0 {
				t.Fatalf("%s, write %d: the store grew by %d bytes, its heap pages by %d", c.name, n, grown, heap)
			}
			if p := tbl.Pool().PinnedFrames(); p != 0 {
				t.Fatalf("%s, write %d: %d frames still pinned after the failure", c.name, n, p)
			}
			c.check(tbl, n)
		}
		t.Logf("%s: a fault at each of its %d writes", c.name, writes)
	}
}

// TestDirectorySizeIsCompact pins the layout's cost on a bulk-loaded
// table: bounds and page lists together stay under 64 bytes per
// clustered bucket.
func TestDirectorySizeIsCompact(t *testing.T) {
	tbl, _ := newDirTable(t)
	rows := make([]value.Row, 3000)
	for i := range rows {
		rows[i] = dirRow(int64(i/3), "load")
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	nb := int64(tbl.Buckets().NumBuckets())
	if got := tbl.DirectorySizeBytes(); nb < 100 || got <= tbl.Buckets().DirectorySizeBytes() || got > 64*nb {
		t.Errorf("directory is %d bytes for %d buckets (%d per bucket), want at most 64 each",
			got, nb, got/max(nb, 1))
	}
}

// TestLoadKeepsAReplacedTreeAFrameHolds: Load gives the empty tree it
// replaces back to the disk only when no pool frame holds one of its
// pages. Here an entry inserted and deleted before the load left the
// empty tree's root dirty in the pool, so the tree keeps its page and
// the flush that writes that frame back still finds it.
func TestLoadKeepsAReplacedTreeAFrameHolds(t *testing.T) {
	tbl, d := newDirTable(t)
	ix, err := tbl.CreateIndex("ix_u", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	empty := ix.Tree
	row, rid := dirRow(1, "gone"), heap.RID{Page: 0, Slot: 0}
	if err := ix.Insert(row, rid); err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Delete(row, rid); err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = dirRow(int64(i), "load")
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if n := d.NumPages(empty.FileID()); n != 1 {
		t.Fatalf("the replaced tree's file has %d pages, want the 1 a frame holds", n)
	}
	if err := tbl.Pool().FlushAll(); err != nil {
		t.Fatalf("flushing the pool after the load: %v", err)
	}
}

// TestAbortFaultStaysQueuedUntilTheNextWriter: an abort whose cleanup
// meets a read fault — from Publish's abort and from Abort — says so in
// the statement's error, and the table already reads as before the
// statement: no live row. What read pages waits on the queue, counted in DeadVersions, and the next
// writer's BeginWrite finishes it: the index holds no entry again, and
// the directory equals its rebuild from the heap. The
// table sits on a 4-frame pool, so the cleanup of 300 inserted rows
// reads evicted index pages back, and a one-shot read fault armed just
// before the abort fires inside it. For Publish the log lives on a
// second disk whose first page write fails, so the only fault on the
// table's disk is the cleanup's.
func TestAbortFaultStaysQueuedUntilTheNextWriter(t *testing.T) {
	rows := make([]value.Row, 300)
	for i := range rows {
		rows[i] = dirRow(int64(i*7919%300), "abort")
	}
	for _, publish := range []bool{true, false} {
		d, logDisk := sim.NewDisk(sim.Config{PageSize: 512}), sim.NewDisk(sim.Config{PageSize: 512})
		tbl, err := New(buffer.NewPool(d, 4), wal.NewLog(logDisk), Config{
			Name:          "dir",
			Schema:        NewSchema(Column{Name: "k", Kind: value.Int}, Column{Name: "u", Kind: value.Int}, Column{Name: "pad", Kind: value.String}),
			ClusteredCols: []int{0},
			BucketTuples:  10,
		})
		if err != nil {
			t.Fatal(err)
		}
		ix, err := tbl.CreateIndex("ix_u", []int{1})
		if err != nil {
			t.Fatal(err)
		}
		tx := tbl.BeginWrite()
		if err := tx.InsertBatch(rows); err != nil {
			t.Fatal(err)
		}
		d.SetFaultPlan(&sim.FaultPlan{FailReadN: 1})
		if publish {
			logDisk.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
			err = tx.Publish()
		} else {
			err = tx.Abort()
		}
		d.SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) || !strings.Contains(fmt.Sprint(err), "abort") {
			t.Errorf("publish %v: the statement's error %v does not carry the cleanup's fault", publish, err)
		}
		if n := d.Stats().InjectedFaults; n != 1 {
			t.Errorf("publish %v: %d faults fired on the table's disk, want the cleanup's one", publish, n)
		}
		if n := tbl.Pool().PinnedFrames(); n != 0 {
			t.Errorf("publish %v: %d frames pinned after the abort", publish, n)
		}
		if n, dead := tbl.Heap().TupleCount(), tbl.DeadVersions(); n != 0 || dead != int64(len(rows)) {
			t.Errorf("publish %v: %d live rows and %d dead versions after the abort, want 0 and the %d queued", publish, n, dead, len(rows))
		}
		tx = tbl.BeginWrite()
		if err := tx.InsertBatch(nil); err != nil {
			t.Fatalf("publish %v: the next writer's drain: %v", publish, err)
		}
		if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
		if n, q := ix.Tree.Len(), len(tbl.retired); n != 0 || q != 0 {
			t.Errorf("publish %v: after the next writer the index holds %d entries and %d statements are queued", publish, n, q)
		}
		checkPageDir(t, tbl, fmt.Sprintf("publish %v, the cleanup drained", publish))
	}
}
