// In-place UPDATE tests: an UPDATE whose rows stay in their clustered
// buckets, keep their lengths and change no indexed column overwrites
// them in their slots, so the heap, the page directory and the secondary
// indexes stay as Load left them, while a pinned snapshot keeps reading
// the overwritten versions through every access method until it is
// released.
package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// TestPayloadUpdateKeepsHeapClustered runs a few hundred one-cat price
// UPDATEs on the Figure 6 fixture (ix_subcat and the subcat CM). No row
// moves: the heap keeps its pages, every clustered bucket the page list
// Load gave it, ix_subcat its size, and a warm CM probe of the updated
// subcats examines as many tuples per row as before.
func TestPayloadUpdateKeepsHeapClustered(t *testing.T) {
	db, tbl := itemsFixture(t, 2)
	inner := tbl.inner
	// The updates and the probes share subcats 0 to 9 (cats 0 to 79).
	const subcats = 10
	type dirRefs struct {
		pages  []int64
		counts []uint32
	}
	refs := func() []dirRefs {
		inner.RLock()
		defer inner.RUnlock()
		dir := inner.PageDir()
		out := make([]dirRefs, inner.Buckets().NumBuckets())
		for b := range out {
			pages, counts := dir.Refs(int32(b))
			out[b] = dirRefs{slices.Clone(pages), slices.Clone(counts)}
		}
		return out
	}
	// examinedPerRow runs the CM probe of every updated subcat twice and
	// returns the second, warm pass's tuples examined per row returned.
	examinedPerRow := func() float64 {
		var rows int
		var examined int64
		for pass := 0; pass < 2; pass++ {
			before := metricValue(t, db, "query.tuples_examined")
			rows = 0
			for k := int64(0); k < subcats; k++ {
				rows += len(mustSelect(t, db, QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{Eq("subcat", IntVal(k))}}))
			}
			examined = metricValue(t, db, "query.tuples_examined") - before
		}
		return float64(examined) / float64(rows)
	}

	pages, dir, ixBytes, perRow := tbl.HeapPages(), refs(), tbl.Indexes()[0].SizeBytes, examinedPerRow()
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 300; i++ {
		sql := fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", rng.Intn(10000), rng.Intn(8*subcats))
		if _, err := db.Exec(sql); err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
	}

	if got := tbl.HeapPages(); got != pages {
		t.Errorf("the heap went from %d to %d pages", pages, got)
	}
	after := refs()
	if len(after) != len(dir) {
		t.Fatalf("the directory went from %d to %d buckets", len(dir), len(after))
	}
	for b := range dir {
		if !slices.Equal(after[b].pages, dir[b].pages) || !slices.Equal(after[b].counts, dir[b].counts) {
			t.Errorf("bucket %d: pages %v counts %v after the updates, %v %v after Load",
				b, after[b].pages, after[b].counts, dir[b].pages, dir[b].counts)
		}
	}
	if got := tbl.Indexes()[0].SizeBytes; got != ixBytes {
		t.Errorf("ix_subcat went from %d to %d bytes", ixBytes, got)
	}
	if got := examinedPerRow(); got != perRow {
		t.Errorf("a warm CM probe examines %.3f tuples per row, %.3f before the updates", got, perRow)
	}
}

// heapBytes returns the table's heap pages, byte for byte, concatenated.
func heapBytes(t *testing.T, inner *table.Table) []byte {
	t.Helper()
	inner.RLock()
	defer inner.RUnlock()
	h, pool := inner.Heap(), inner.Pool()
	var out []byte
	for p := int64(0); p < h.NumPages(); p++ {
		fr, err := pool.Get(h.FileID(), p)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fr.Data...)
		pool.Unpin(fr, false)
	}
	return out
}

// readAt returns, rendered and sorted, the rows of q that access method
// m finds at q's snapshot: the table scan sweeps the heap, the CM and
// clustered scans the pages their probes resolve, the sorted index scan
// the pages of ix's matching entries, and the pipelined one views each
// entry's RID.
func readAt(t *testing.T, inner *table.Table, m AccessMethod, ix *table.Index, q exec.Query) []string {
	t.Helper()
	inner.RLock()
	defer inner.RUnlock()
	var rows []value.Row
	oq := exec.OrQuery{Disjuncts: []exec.Query{q}, Snap: q.Snap}
	emit := exec.DecodeTo(inner.Schema(), oq, func(_ heap.RID, row value.Row) bool {
		rows = append(rows, row.Clone())
		return true
	})
	var err error
	var pages []int64
	switch m {
	case TableScan:
		err = exec.SweepTuples(inner, oq, exec.WholeHeap(inner), 1, emit)
	case PipelinedIndexScan:
		err = exec.PipelinedTuples(inner, ix, q, emit)
	case SortedIndexScan:
		if pages, err = exec.IndexPages(ix, q, 1); err == nil {
			err = exec.SweepTuples(inner, oq, exec.PageList(pages), 1, emit)
		}
	case CMScan:
		var probe exec.Probe
		if probe, err = exec.ProbeCM(inner, cmOn(inner, 1), q); err == nil {
			err = exec.SweepTuples(inner, oq, exec.PageList(probe.Pages), 1, emit)
		}
	case ClusteredIndexScan:
		probe, ok := exec.ProbeClustered(inner, q)
		if !ok {
			t.Fatal("the clustered probe does not cover the query")
		}
		err = exec.SweepTuples(inner, oq, exec.PageList(probe.Pages), 1, emit)
	}
	if err != nil {
		t.Fatalf("%v: %v", m, err)
	}
	return rowStrings(rows)
}

// TestPinnedSnapshotReadsPreImages pins a snapshot and then fails two
// in-place UPDATEs — one cancelled between its batches, one whose
// Publish meets a WAL fault — and publishes a third. The failures leave
// the heap pages byte for byte as they were and no pre-image behind.
// After the publish, every access method still returns the pre-UPDATE
// rows at the pinned snapshot and the updated ones at the latest state.
// Once the pin is released, the next exclusive hold drops every
// pre-image.
func TestPinnedSnapshotReadsPreImages(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4096, Workers: 2}, 6000)
	inner := tbl.inner
	h := inner.Heap()
	ix := inner.Indexes()[0] // ix_subcat, itemsTable's one secondary index
	// Subcats 12 to 17 are cats 96 to 143: the same rows, whichever
	// column an access method predicates.
	bySubcat := exec.NewQuery(exec.Between(1, value.NewInt(12), value.NewInt(17)))
	byCat := exec.NewQuery(exec.Between(0, value.NewInt(96), value.NewInt(143)))
	methods := []struct {
		m AccessMethod
		q exec.Query
	}{
		{TableScan, byCat}, {ClusteredIndexScan, byCat},
		{CMScan, bySubcat}, {SortedIndexScan, bySubcat}, {PipelinedIndexScan, bySubcat},
	}
	// readAll reads the rows through every method at snap; all must agree.
	readAll := func(stage string, snap uint64) []string {
		t.Helper()
		var want []string
		for i, c := range methods {
			c.q.Snap = snap
			got := readAt(t, inner, c.m, ix, c.q)
			if i == 0 {
				want = got
			} else if !slices.Equal(got, want) {
				t.Fatalf("%s, snapshot %d: %v returned %d rows, %v %d", stage, snap, c.m, len(got), methods[0].m, len(want))
			}
		}
		return want
	}

	snap, release := inner.PinSnapshot()
	defer release()
	baseline, pageBytes := readAll("baseline", snap), heapBytes(t, inner)
	if len(baseline) == 0 {
		t.Fatal("the fixture has no rows in subcats 12 to 17")
	}
	unchanged := func(stage string) {
		t.Helper()
		if !bytes.Equal(heapBytes(t, inner), pageBytes) {
			t.Errorf("%s: the heap pages changed", stage)
		}
		inner.RLock()
		pre := h.PreImages()
		inner.RUnlock()
		if pre != 0 {
			t.Errorf("%s: %d pre-images remain", stage, pre)
		}
		if got := readAll(stage, 0); !slices.Equal(got, baseline) {
			t.Errorf("%s: the latest state lost the baseline rows", stage)
		}
	}

	// Cancelled after its first batch: every row is a price change that
	// stays in its slot, so the unwind puts the old bytes back.
	inner.RLock()
	rids, rows := liveTableRows(t, inner)
	inner.RUnlock()
	if len(rids) <= 128 {
		t.Fatalf("%d rows fit one batch; the cancellation needs more", len(rids))
	}
	news := make([]value.Row, len(rows))
	for i, r := range rows {
		news[i] = value.Row{r[0], r[1], value.NewInt(-1), r[3]}
	}
	tx := inner.BeginWrite()
	tx.SetContext(newCancelAfter(2))
	if err := tx.UpdateBatch(rids, news); !errors.Is(err, context.Canceled) {
		t.Fatalf("an update under a cancelling context returned %v", err)
	}
	tx.Abort()
	unchanged("cancelled update")

	db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
	_, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(-2)}}, Between("cat", IntVal(0), IntVal(datagen.CorrelatedCats)))
	db.SetFaultPlan(nil)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("an update under a WAL fault returned %v", err)
	}
	unchanged("publish failed")

	n, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(-3)}}, Between("subcat", IntVal(12), IntVal(17)))
	if err != nil || int(n) != len(baseline) {
		t.Fatalf("update n=%d err=%v, want %d rows", n, err, len(baseline))
	}
	inner.RLock()
	pre := h.PreImages()
	inner.RUnlock()
	if pre != len(baseline) {
		t.Errorf("%d pre-images for %d rows updated in place", pre, len(baseline))
	}
	if got := readAll("published, at the pin", snap); !slices.Equal(got, baseline) {
		t.Errorf("the pinned snapshot reads %d rows that differ from the baseline's %d", len(got), len(baseline))
	}
	for _, r := range mustSelect(t, db, QuerySpec{Table: tbl.Name(), Preds: []Pred{Between("subcat", IntVal(12), IntVal(17))}}) {
		if r[2].Int() != -3 {
			t.Fatalf("latest row %v missed the update", r)
		}
	}
	if got := readAll("published, latest", 0); len(got) != len(baseline) {
		t.Errorf("the latest state has %d rows, want %d", len(got), len(baseline))
	}

	release()
	if err := tbl.Insert(Row{IntVal(5), IntVal(0), IntVal(1), StringVal("next")}); err != nil {
		t.Fatal(err)
	}
	inner.RLock()
	pre = h.PreImages()
	inner.RUnlock()
	if pre != 0 {
		t.Errorf("%d pre-images remain after the pin was released and a writer ran", pre)
	}
}
