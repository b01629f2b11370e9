package table

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
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
	err := tbl.Scan(func(rid heap.RID, row value.Row) bool {
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
				if err := tx.UpdateBatch(rids[at:at+20], news); err != nil {
					return err
				}
				checkPageDir(t, tbl, fmt.Sprintf("step %d mid-statement, after UpdateBatch", step))
				return tx.DeleteBatch(rids[at+20 : at+30])
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
					tx.Abort()
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
// rebuild there. Under -race this is also the proof that the directory
// moves only under the exclusive latch.
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
		if err := tx.UpdateBatch(rids[at:at+len(news)], news); err != nil {
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

// TestPageDirectoryLoadAbort fails a bulk load half way on an injected
// fault: the unwind must take every page back out of the directory and
// leave no frame pinned.
func TestPageDirectoryLoadAbort(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 512})
	// A pool far smaller than the load: the load's write-backs and
	// evictions write dirty pages, and the 40th such write fails.
	tbl, err := New(buffer.NewPool(d, 16), wal.NewLog(d), Config{
		Name:          "dir",
		Schema:        NewSchema(Column{Name: "k", Kind: value.Int}, Column{Name: "u", Kind: value.Int}, Column{Name: "pad", Kind: value.String}),
		ClusteredCols: []int{0},
		BucketTuples:  10,
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]value.Row, 600)
	for i := range rows {
		rows[i] = dirRow(int64(i), "load")
	}
	d.SetFaultPlan(&sim.FaultPlan{FailWriteN: 40})
	err = tbl.Load(rows)
	d.SetFaultPlan(nil)
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("Load under a write fault returned %v", err)
	}
	if n := tbl.Pool().PinnedFrames(); n != 0 {
		t.Errorf("%d frames still pinned after the failed Load", n)
	}
	checkPageDir(t, tbl, "after the failed Load")
	for b := int32(0); int(b) < len(tbl.PageDir().buckets); b++ {
		if pages, _ := tbl.PageDir().Refs(b); len(pages) != 0 {
			t.Fatalf("bucket %d still holds pages %v after the load unwound", b, pages)
		}
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
