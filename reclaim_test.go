// Heap reclamation tests: a published statement's old row versions are
// reclaimed in place and its new versions placed with their clustered
// bucket, while every access method stays exact, a pinned snapshot keeps
// what it saw, and the heap stays bounded under churn.
package repro

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// dirDiff holds the live page directory to a rebuild from the heap and
// describes the first difference ("" when there is none).
// Caller holds the latch.
func dirDiff(inner *table.Table) string {
	want, err := inner.RebuildPageDirectory()
	if err != nil {
		return "rebuild: " + err.Error()
	}
	got := inner.PageDir()
	for b := int32(0); int(b) <= inner.Buckets().NumBuckets(); b++ { // Locate's range, plus the empty bounds' bucket 0
		gp, gc := got.Refs(b)
		wp, wc := want.Refs(b)
		if !slices.Equal(gp, wp) || !slices.Equal(gc, wc) {
			return fmt.Sprintf("bucket %d: directory has pages %v counts %v, the heap has pages %v counts %v", b, gp, gc, wp, wc)
		}
	}
	return ""
}

// cmEntries lists a CM's entries by key.
func cmEntries(cm *core.CM) map[string]core.Entry {
	m := map[string]core.Entry{}
	_ = cm.Walk(func(e core.Entry, _ []value.Value) bool { m[e.Key] = e; return true })
	return m
}

// cmEntriesDiff compares two CMs entry by entry — keys, bucket runs,
// counts and sums, and the extremes wherever neither side has marked
// them dirty — and describes the first difference ("" when none).
func cmEntriesDiff(got, want *core.CM) string {
	g, w := cmEntries(got), cmEntries(want)
	if len(g) != len(w) || got.Pairs() != want.Pairs() {
		return fmt.Sprintf("%d keys %d pairs, want %d keys %d pairs", len(g), got.Pairs(), len(w), want.Pairs())
	}
	for k, we := range w {
		ge, ok := g[k]
		if !ok || !slices.Equal(ge.Buckets, we.Buckets) {
			return fmt.Sprintf("key %x: buckets %v, want %v", k, ge.Buckets, we.Buckets)
		}
		for i, ws := range we.Slots {
			gs := ge.Slots[i]
			if gc, wc := got.PairCount(gs), want.PairCount(ws); gc != wc {
				return fmt.Sprintf("key %x bucket %d: count %d, want %d", k, we.Buckets[i], gc, wc)
			}
			dirty := got.PairDirty(gs) || want.PairDirty(ws)
			for c := range want.Spec().StatCols {
				gi, gf, glo, ghi := got.PairStat(gs, c)
				wi, wf, wlo, whi := want.PairStat(ws, c)
				if gi != wi || gf != wf {
					return fmt.Sprintf("key %x bucket %d col %d: sums %d %v, want %d %v", k, we.Buckets[i], c, gi, gf, wi, wf)
				}
				if !dirty && (glo.Compare(wlo) != 0 || ghi.Compare(whi) != 0) {
					return fmt.Sprintf("key %x bucket %d col %d: extremes %v..%v, want %v..%v",
						k, we.Buckets[i], c, glo, ghi, wlo, whi)
				}
			}
		}
	}
	return ""
}

// cmDiff holds a live CM to one built from scratch over the live rows.
// Caller holds the latch.
func cmDiff(inner *table.Table, live *core.CM) string {
	scratch := core.New(live.Spec())
	if err := inner.Scan(func(_ heap.RID, row value.Row) bool {
		scratch.AddRow(row, inner.ClusterBucketFor(row))
		return true
	}); err != nil {
		return "scan: " + err.Error()
	}
	return cmEntriesDiff(live, scratch)
}

// rowStrings renders rows for multiset comparison, sorted.
func rowStrings(rows []value.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprint(r)
	}
	slices.Sort(out)
	return out
}

// liveTableRows returns the table's live rows. Caller holds the latch.
func liveTableRows(t *testing.T, inner *table.Table) (rids []heap.RID, rows []value.Row) {
	t.Helper()
	if err := inner.Scan(func(rid heap.RID, row value.Row) bool {
		rids = append(rids, rid)
		rows = append(rows, row.Clone())
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return rids, rows
}

// snapDigest returns how many tuples the heap holds at snap and a hash
// of their bytes in RID order. It takes the shared latch.
func snapDigest(t *testing.T, inner *table.Table, snap uint64) [2]uint64 {
	inner.RLock()
	defer inner.RUnlock()
	h := inner.Heap()
	d := fnv.New64a()
	var n uint64
	if err := h.ScanPagesAt(0, h.NumPages()-1, snap, func(_ heap.RID, tuple []byte) bool {
		n++
		d.Write(tuple)
		return true
	}); err != nil {
		t.Error(err)
	}
	return [2]uint64{n, d.Sum64()}
}

// cancelAfter is a context that reports cancellation from its polls-th
// poll of Done on: a writer statement polls once per batch, so it dies
// part way through a multi-batch UpdateBatch.
type cancelAfter struct {
	context.Context
	polls int
	done  chan struct{}
}

func newCancelAfter(polls int) *cancelAfter {
	return &cancelAfter{Context: context.Background(), polls: polls, done: make(chan struct{})}
}

func (c *cancelAfter) Done() <-chan struct{} {
	if c.polls--; c.polls == 0 {
		close(c.done)
	}
	return c.done
}

func (c *cancelAfter) Err() error {
	select {
	case <-c.done:
		return context.Canceled
	default:
		return nil
	}
}

// updatePass updates every row's price to p, one statement per range of
// span clustering keys.
func updatePass(t *testing.T, tbl *Table, p int64, span int) {
	t.Helper()
	for lo := 0; lo < datagen.CorrelatedCats; lo += span {
		if _, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(p)}}, Between("cat", IntVal(int64(lo)), IntVal(int64(lo+span-1)))); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReclaimChurnInvariants drives a generated statement stream over the
// correlated items — payload UPDATEs, which overwrite their rows in
// place, and key-moving ones, which relocate them, INSERTs, DELETEs,
// statements cancelled part way through their batches, publishes failed
// by an injected WAL fault, and multi-row SQL INSERTs — with readers
// running beside it, each holding a pinned snapshot that must read the
// same tuples across every writer statement. After every statement the
// page directory equals its
// rebuild from the heap, the CM equals one built from scratch,
// and the rows equal a plain-row model; at the end a CM recovered from a
// checkpoint plus the log equals the live one. The old versions' index
// entries and CM pairs left at Publish, so reclamation, which touches
// only heap slots and pre-images, must keep all of that exact: both
// reclamation paths run, dead slots from the relocations and deletes and
// pre-images from the payload UPDATEs, some queued behind a reader's pin.
func TestReclaimChurnInvariants(t *testing.T) {
	_, tbl := itemsTable(t, Config{BufferPoolPages: 4096, Workers: 2}, 6000)
	inner := tbl.inner
	cm := cmOn(inner, 1)
	db := tbl.db

	// Load still appends at the tail: RIDs ascend with the clustered key.
	_, loaded := liveTableRows(t, inner)
	for i := 1; i < len(loaded); i++ {
		if loaded[i][0].I < loaded[i-1][0].I {
			t.Fatalf("row %d (cat %d) follows cat %d: Load did not append in clustered order", i, loaded[i][0].I, loaded[i-1][0].I)
		}
	}
	model := rowStrings(loaded)

	var ckpt bytes.Buffer
	var lsn int64
	checkpoint := func() {
		t.Helper()
		ckpt.Reset()
		inner.LockWrite()
		var err error
		lsn, err = inner.CheckpointCM(cm, &ckpt)
		inner.UnlockWrite()
		if err != nil {
			t.Fatal(err)
		}
	}
	checkpoint()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A pinned snapshot reads the same tuples before and
				// after whatever the writer publishes in between.
				snap, release := inner.PinSnapshot()
				before := snapDigest(t, inner, snap)
				k := int64(rng.Intn(datagen.CorrelatedSubcats))
				if err := tbl.db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: CMScan, Preds: []Pred{Eq("subcat", IntVal(k))}}, func(row Row) bool {
					if row[1].Int() != k {
						t.Errorf("cm-scan for subcat %d returned %v", k, row)
					}
					return true
				}); err != nil {
					t.Errorf("reader: %v", err)
					release()
					return
				}
				after := snapDigest(t, inner, snap)
				release()
				if after != before {
					t.Errorf("snapshot %d pinned across writer statements read %v, then %v", snap, before, after)
					return
				}
				inner.RLock()
				diff := dirDiff(inner)
				inner.RUnlock()
				if diff != "" {
					t.Errorf("reader between writer batches: %s", diff)
					return
				}
			}
		}(int64(r))
	}
	defer func() { close(stop); wg.Wait() }()

	// apply edits the model's rows with cat in [lo, hi]; nil drops them.
	apply := func(lo, hi int64, edit func(value.Row) value.Row) int {
		inner.RLock()
		_, rows := liveTableRows(t, inner)
		inner.RUnlock()
		var out []value.Row
		n := 0
		for _, r := range rows {
			if r[0].I >= lo && r[0].I <= hi {
				n++
				if r = edit(r); r == nil {
					continue
				}
			}
			out = append(out, r)
		}
		model = rowStrings(out)
		return n
	}
	rng := rand.New(rand.NewSource(27))
	cats := int64(datagen.CorrelatedCats)
	for step := 0; step < 120; step++ {
		lo := rng.Int63n(cats - 200)
		hi := lo + 5 + rng.Int63n(25)
		stage := fmt.Sprintf("step %d", step)
		switch step % 10 {
		case 0, 1, 2: // payload UPDATE
			p := rng.Int63n(10000)
			want := apply(lo, hi, func(r value.Row) value.Row { r[2] = value.NewInt(p); return r })
			n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(p)}}, Between("cat", IntVal(lo), IntVal(hi)))
			if err != nil || int(n) != want {
				t.Fatalf("%s: update n=%d err=%v, want %d rows", stage, n, err, want)
			}
		case 3: // UPDATE moving rows to another clustered bucket
			to := rng.Int63n(cats)
			want := apply(lo, lo+3, func(r value.Row) value.Row {
				r[0], r[1] = value.NewInt(to), value.NewInt(to/8)
				return r
			})
			n, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "cat", Val: IntVal(to)}, {Col: "subcat", Val: IntVal(to / 8)}}, Between("cat", IntVal(lo), IntVal(lo+3)))
			if err != nil || int(n) != want {
				t.Fatalf("%s: moving update n=%d err=%v, want %d rows", stage, n, err, want)
			}
		case 4, 5: // INSERT
			c := rng.Int63n(cats)
			row := Row{IntVal(c), IntVal(c / 8), IntVal(rng.Int63n(10000)), StringVal("new")}
			if err := tbl.Insert(row); err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			model = slices.Insert(model, 0, fmt.Sprint(row.internal()))
			slices.Sort(model)
		case 6: // DELETE
			want := apply(lo, lo+3, func(value.Row) value.Row { return nil })
			if n, err := tbl.db.DeleteCtx(context.Background(), tbl.Name(), Between("cat", IntVal(lo), IntVal(lo+3))); err != nil || n != int64(want) {
				t.Fatalf("%s: delete n=%d err=%v, want %d rows", stage, n, err, want)
			}
		case 7: // an UPDATE cancelled after its first batch
			tx := inner.BeginWrite()
			tx.SetContext(newCancelAfter(2))
			inner.RLock()
			rids, rows := liveTableRows(t, inner)
			inner.RUnlock()
			var olds []heap.RID
			var news []value.Row
			for i, r := range rows {
				if r[0].I >= lo && r[0].I < lo+200 {
					olds = append(olds, rids[i])
					news = append(news, value.Row{r[0], r[1], value.NewInt(-1), r[3]})
				}
			}
			if err := tx.UpdateBatch(olds, news); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: update of %d rows under a cancelling context returned %v", stage, len(olds), err)
			}
			tx.Abort()
			stage += " (cancelled)"
		case 8: // the publish fails on an injected WAL write fault
			db.SetFaultPlan(&FaultPlan{FailWriteN: 1})
			_, err := tbl.db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(-2)}}, Between("cat", IntVal(lo), IntVal(lo+60)))
			db.SetFaultPlan(nil)
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("%s: update under a WAL fault returned %v", stage, err)
			}
			stage += " (publish failed)"
		case 9: // multi-row SQL INSERT, one writer statement
			var vals []string
			for i := 0; i < 3; i++ {
				c, p := rng.Int63n(cats), rng.Int63n(10000)
				vals = append(vals, fmt.Sprintf("(%d, %d, %d, 'sql')", c, c/8, p))
				row := value.Row{value.NewInt(c), value.NewInt(c / 8), value.NewInt(p), value.NewString("sql")}
				model = append(model, fmt.Sprint(row))
			}
			slices.Sort(model)
			if res, err := db.Exec("INSERT INTO items VALUES " + strings.Join(vals, ", ")); err != nil || res.Affected != 3 {
				t.Fatalf("%s: multi-row insert %v, err %v", stage, res, err)
			}
		}
		inner.RLock()
		diff := dirDiff(inner)
		if diff == "" {
			diff = cmDiff(inner, cm)
		}
		_, rows := liveTableRows(t, inner)
		inner.RUnlock()
		if diff != "" {
			t.Fatalf("%s: %s", stage, diff)
		}
		if got := rowStrings(rows); !slices.Equal(got, model) {
			t.Fatalf("%s: %d rows, the model has %d", stage, len(got), len(model))
		}
		if step%10 == 8 {
			// The failed publish's WAL records before the fault stay in
			// the log; a fresh checkpoint is where replay starts.
			checkpoint()
		}
	}

	inner.RLock()
	reclaimed := inner.Heap().ReclaimedVersions()
	inner.RUnlock()
	if reclaimed == 0 {
		t.Error("the stream reclaimed no version")
	}
	spec := cm.Spec()
	spec.Name = "subcat_cm_recovered"
	inner.LockWrite()
	rec, err := inner.RecoverCM(spec, &ckpt, lsn)
	diff := ""
	if err == nil {
		diff = cmEntriesDiff(rec, cm)
	}
	inner.UnlockWrite()
	if err != nil || diff != "" {
		t.Fatalf("recovery from the checkpoint plus the log: err=%v, %s", err, diff)
	}

	t.Run("bounded", func(t *testing.T) {
		_, tbl := itemsTable(t, Config{BufferPoolPages: 4096, Workers: 2}, 6000)
		inner := tbl.inner
		h := inner.Heap()
		pages, rows := h.NumPages(), h.TupleCount()
		for pass := int64(0); pass < 50; pass++ {
			updateEachCat(t, inner, pass)
		}
		if got := h.NumPages(); float64(got) > 1.05*float64(pages) {
			t.Errorf("50 update passes grew the heap from %d to %d pages", pages, got)
		}
		if got := h.Slots(); float64(got) > 1.05*float64(rows) {
			t.Errorf("50 update passes left %d slots for %d rows", got, rows)
		}
	})
}

// updateEachCat updates every row's price to p with one writer statement
// per clustering key, the shape of the benchmark's UPDATE ... WHERE
// cat = c, driven through the table layer. Slots of live versions never
// move, so the RIDs read once at the start stay valid for the pass.
func updateEachCat(t *testing.T, inner *table.Table, p int64) {
	t.Helper()
	inner.RLock()
	rids, rows := liveTableRows(t, inner)
	inner.RUnlock()
	byCat := make([][]int, datagen.CorrelatedCats)
	for i, r := range rows {
		byCat[r[0].I] = append(byCat[r[0].I], i)
	}
	for _, at := range byCat {
		olds := make([]heap.RID, len(at))
		news := make([]value.Row, len(at))
		for j, i := range at {
			olds[j] = rids[i]
			news[j] = value.Row{rows[i][0], rows[i][1], value.NewInt(p), rows[i][3]}
		}
		tx := inner.BeginWrite()
		if err := tx.UpdateBatch(olds, news); err != nil {
			tx.Abort()
			t.Fatal(err)
		}
		if err := tx.Publish(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPinnedSnapshotSurvivesReclaim pins a snapshot and updates every row
// three times: a scan at the pin must return the baseline tuples byte for
// byte, because the pin holds every version it can see out of
// reclamation (without it the first pass's old versions go dead at
// publish and the later passes prune them away). Once the pin is released
// and one more statement has run, the queued versions are reclaimed and
// further passes fit in the heap as it is.
func TestPinnedSnapshotSurvivesReclaim(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4096, Workers: 2}, 600)
	inner := tbl.inner
	h := inner.Heap()
	scanAt := func(snap uint64) [][]byte {
		t.Helper()
		inner.RLock()
		defer inner.RUnlock()
		var out [][]byte
		if err := h.ScanPagesAt(0, h.NumPages()-1, snap, func(_ heap.RID, tuple []byte) bool {
			out = append(out, bytes.Clone(tuple))
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}

	snap, release := inner.PinSnapshot()
	baseline := scanAt(snap)
	for pass := int64(0); pass < 3; pass++ {
		updatePass(t, tbl, pass, 500)
	}
	got := scanAt(snap)
	if len(got) != len(baseline) {
		t.Fatalf("scan at the pinned snapshot: %d tuples, baseline %d", len(got), len(baseline))
	}
	for i := range got {
		if !bytes.Equal(got[i], baseline[i]) {
			t.Fatalf("tuple %d at the pinned snapshot is %q, baseline %q", i, got[i], baseline[i])
		}
	}
	for _, r := range collectVia(t, tbl, TableScan) {
		if r[2].Int() != 2 {
			t.Fatalf("latest row %v missed the last pass", r)
		}
	}

	release()
	if _, err := db.UpdateCtx(context.Background(), tbl.Name(), []Set{{Col: "price", Val: IntVal(3)}}, Between("cat", IntVal(0), IntVal(499))); err != nil {
		t.Fatal(err)
	}
	pages := h.NumPages()
	for pass := int64(4); pass < 7; pass++ {
		updatePass(t, tbl, pass, 500)
	}
	if got := h.NumPages(); got != pages {
		t.Errorf("after the pin was released the heap still grew from %d to %d pages", pages, got)
	}
}

// TestReclaimMetrics reads table.dead_versions, table.reclaimed_versions
// and table.oldest_pin_age after a pinned and then an unpinned churn.
func TestReclaimMetrics(t *testing.T) {
	db, tbl := itemsTable(t, Config{BufferPoolPages: 4096, Workers: 2}, 600)
	_, release := tbl.inner.PinSnapshot()
	updatePass(t, tbl, 1, 500) // 8 statements, every row
	if got := metricValue(t, db, "table.dead_versions"); got != 600 {
		t.Errorf("pinned churn: table.dead_versions = %d, want 600 queued", got)
	}
	if got := metricValue(t, db, "table.reclaimed_versions"); got != 0 {
		t.Errorf("pinned churn: table.reclaimed_versions = %d, want 0", got)
	}
	if got := metricValue(t, db, "table.oldest_pin_age"); got != 8 {
		t.Errorf("pinned churn: table.oldest_pin_age = %d, want 8 statements", got)
	}

	release()
	updatePass(t, tbl, 2, 500)
	dead := metricValue(t, db, "table.dead_versions")
	reclaimed := metricValue(t, db, "table.reclaimed_versions")
	if reclaimed == 0 || dead+reclaimed != 1200 {
		t.Errorf("unpinned churn: dead %d + reclaimed %d, want 1200 ended versions with some reclaimed", dead, reclaimed)
	}
	if got := metricValue(t, db, "table.oldest_pin_age"); got != 0 {
		t.Errorf("unpinned churn: table.oldest_pin_age = %d, want 0", got)
	}
}
