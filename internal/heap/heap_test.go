package heap

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/sim"
)

func newHeap(t *testing.T, pageSize, frames int) *File {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: pageSize})
	return NewFile(buffer.NewPool(d, frames))
}

// AppendAt stores one tuple through Append, the heap's one append path,
// and returns its RID.
func (h *File) AppendAt(tuple []byte, begin uint64) (RID, error) {
	rids, err := h.Append(nil, [][]byte{tuple}, begin)
	if err != nil {
		return RID{}, err
	}
	return rids[0], nil
}

// TestAppendFillsAPageUnderOnePin: Append places a run of tuples on the
// tail page with one pool access per page, leaves the tuples that do
// not fit for the next call, and writes exactly what appending the
// tuples one at a time writes, at the same RIDs.
func TestAppendFillsAPageUnderOnePin(t *testing.T) {
	tuples := make([][]byte, 200)
	for i := range tuples {
		tuples[i] = []byte(fmt.Sprintf("tuple-%03d%s", i, make([]byte, i%7)))
	}
	one, run := newHeap(t, 256, 4), newHeap(t, 256, 4)
	var want []RID
	for _, tup := range tuples {
		rid, err := one.AppendAt(tup, 3)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, rid)
	}
	var got []RID
	calls := 0
	for len(got) < len(tuples) {
		before := run.pool.Stats()
		n := len(got)
		var err error
		if got, err = run.Append(got, tuples[n:], 3); err != nil {
			t.Fatal(err)
		}
		calls++
		after := run.pool.Stats()
		if gets := after.Hits + after.Misses - before.Hits - before.Misses; gets > 1 {
			t.Fatalf("Append call %d: %d pool Gets, want at most 1", calls, gets)
		}
		if len(got) == n {
			t.Fatalf("Append call %d placed nothing", calls)
		}
		for _, rid := range got[n:] {
			if rid.Page != got[n].Page {
				t.Fatalf("Append call %d spread its run over pages %d and %d", calls, got[n].Page, rid.Page)
			}
		}
	}
	if int64(calls) != run.NumPages() || run.NumPages() != one.NumPages() {
		t.Errorf("%d Append calls over %d pages; AppendAt filled %d", calls, run.NumPages(), one.NumPages())
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tuple %d: Append placed it at %v, AppendAt at %v", i, got[i], want[i])
		}
	}
	for _, h := range []*File{one, run} {
		if err := h.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
	}
	for p := range one.NumPages() {
		a, _, err := one.pool.Disk().ReadPageDeferWait(one.file, p)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := run.pool.Disk().ReadPageDeferWait(run.file, p)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Fatalf("page %d differs between Append and AppendAt", p)
		}
	}
	if rids, err := run.Append(nil, nil, 3); err != nil || len(rids) != 0 {
		t.Errorf("Append of no tuples: %v, %v", rids, err)
	}
}

func TestAppendGetRoundTrip(t *testing.T) {
	h := newHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := h.AppendAt([]byte(fmt.Sprintf("tuple-%03d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.TupleCount() != 50 {
		t.Errorf("tuple count = %d", h.TupleCount())
	}
	for i, rid := range rids {
		got, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprintf("tuple-%03d", i)
		if string(got) != want {
			t.Errorf("Get(%v) = %q, want %q", rid, got, want)
		}
	}
}

func TestTuplesSpanMultiplePages(t *testing.T) {
	h := newHeap(t, 128, 8)
	for i := 0; i < 40; i++ {
		if _, err := h.AppendAt(make([]byte, 40), 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 2 {
		t.Errorf("expected multiple pages, got %d", h.NumPages())
	}
}

// TestFailedNewPageLeavesNoPage: an append whose new page gets no frame,
// because the write-back of the victim it evicts fails, leaves no page
// in the file, so the heap's page count stays the disk's and the
// appends after it place their tuples where they say.
func TestFailedNewPageLeavesNoPage(t *testing.T) {
	h := newHeap(t, 256, 2)
	disk := h.pool.Disk()
	tuple := func(i int) []byte { return []byte(fmt.Sprintf("tuple-%03d%0100d", i, 0)) }
	var rids []RID
	appendOne := func(i int) error {
		rid, err := h.AppendAt(tuple(i), 1)
		if err == nil {
			rids = append(rids, rid)
		}
		return err
	}
	for i := range 10 {
		if err := appendOne(i); err != nil {
			t.Fatal(err)
		}
	}
	// Both frames hold dirty pages, so the next new page's victim is
	// written back, and that write fails.
	disk.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
	failed := false
	for i := 10; i < 14 && !failed; i++ {
		failed = appendOne(i) != nil
	}
	disk.SetFaultPlan(nil)
	if !failed {
		t.Fatal("no append failed under the write fault")
	}
	if n, m := h.NumPages(), disk.NumPages(h.FileID()); n != m {
		t.Fatalf("after the failed append the heap has %d pages and its file %d", n, m)
	}
	for i := 20; i < 40; i++ {
		if err := appendOne(i); err != nil {
			t.Fatalf("append %d after the failed one: %v", i, err)
		}
	}
	if n, m := h.NumPages(), disk.NumPages(h.FileID()); n != m {
		t.Fatalf("the heap has %d pages and its file %d", n, m)
	}
	for _, rid := range rids {
		if got, err := h.Get(rid); err != nil || len(got) != len(tuple(0)) {
			t.Fatalf("Get(%v) = %q, %v", rid, got, err)
		}
	}
}

// TestOversizedTupleRejected: a tuple larger than an empty page is
// refused before any page is taken, and a tuple that fills the last
// page's room to its last byte goes on that page.
func TestOversizedTupleRejected(t *testing.T) {
	h := newHeap(t, 128, 4)
	if _, err := h.AppendAt(make([]byte, 130), 1); err == nil || h.NumPages() != 0 {
		t.Errorf("oversized tuple: %v, %d pages", err, h.NumPages())
	}
	if _, err := h.AppendAt(make([]byte, 10), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.AppendAt(make([]byte, h.Room(0)-slotSize), 1); err != nil || h.NumPages() != 1 || h.Room(0) != 0 {
		t.Errorf("a tuple of the last page's room: %v, %d pages, %d bytes left", err, h.NumPages(), h.Room(0))
	}
	if _, err := h.AppendAt(make([]byte, h.EmptyRoom()-slotSize), 1); err != nil || h.NumPages() != 2 || h.Room(1) != 0 {
		t.Errorf("a tuple of an empty page's room: %v, %d pages, %d bytes left", err, h.NumPages(), h.Room(1))
	}
}

// TestZeroBeginRejected pins that no tuple can begin at timestamp 0,
// which would make it visible to snapshots taken before its statement.
func TestZeroBeginRejected(t *testing.T) {
	h := newHeap(t, 128, 4)
	if _, err := h.AppendAt([]byte("x"), 0); err == nil {
		t.Error("tuple with a zero begin timestamp accepted")
	}
	if h.NumPages() != 0 || h.TupleCount() != 0 {
		t.Errorf("rejected tuple left %d pages, %d tuples", h.NumPages(), h.TupleCount())
	}
}

func TestScanOrderAndCompleteness(t *testing.T) {
	h := newHeap(t, 256, 8)
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := h.AppendAt([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	var seen []byte
	var last RID
	first := true
	err := h.Scan(func(rid RID, tuple []byte) bool {
		if !first && (rid.Page < last.Page || rid.Page == last.Page && rid.Slot <= last.Slot) {
			t.Errorf("scan out of order: %v then %v", last, rid)
		}
		last, first = rid, false
		seen = append(seen, tuple[0])
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("scan saw %d tuples", len(seen))
	}
	for i, b := range seen {
		if int(b) != i {
			t.Fatalf("tuple %d = %d", i, b)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := newHeap(t, 256, 8)
	for i := 0; i < 20; i++ {
		if _, err := h.AppendAt([]byte{byte(i)}, 1); err != nil {
			t.Fatal(err)
		}
	}
	for name, scan := range map[string]func(func(RID, []byte) bool) error{
		"Scan":            h.Scan,
		"ScanUnretracted": func(fn func(RID, []byte) bool) error { return h.ScanUnretracted(1, fn) },
	} {
		count := 0
		if err := scan(func(RID, []byte) bool {
			count++
			return count < 5
		}); err != nil {
			t.Fatal(err)
		}
		if count != 5 || h.pool.PinnedFrames() != 0 {
			t.Errorf("%s visited %d tuples after stop and left %d frames pinned", name, count, h.pool.PinnedFrames())
		}
	}
}

func TestGetErrors(t *testing.T) {
	h := newHeap(t, 256, 8)
	if _, err := h.Get(RID{Page: 0, Slot: 0}); err == nil {
		t.Error("Get on empty heap should fail")
	}
	if _, err := h.AppendAt([]byte("x"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Get(RID{Page: 0, Slot: 9}); err == nil {
		t.Error("Get with bad slot should fail")
	}
	if err := h.SetEnd(RID{Page: 7}, 2); err == nil {
		t.Error("SetEnd with bad page should fail")
	}
	if err := h.SetEnd(RID{Page: h.NumPages()}, 2); err == nil {
		t.Error("SetEnd on the page past the last should fail")
	}
	if _, err := h.PutAt(h.NumPages()+1, []byte("x"), 1); err == nil {
		t.Error("PutAt past the next new page should fail")
	}
	if err := h.ClearEnd(RID{Page: 7}); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("ClearEnd with bad page: %v", err)
	}
	// A page that cannot be read fails a scan, or an append to it, which
	// pins nothing.
	for name, step := range map[string]func() error{
		"Scan":            func() error { return h.Scan(func(RID, []byte) bool { return true }) },
		"ScanUnretracted": func() error { return h.ScanUnretracted(1, func(RID, []byte) bool { return true }) },
		"Append":          func() error { _, err := h.AppendAt([]byte("y"), 1); return err },
	} {
		if err := h.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		h.pool.Invalidate()
		h.pool.Disk().SetFaultPlan(&sim.FaultPlan{FailReadN: 1})
		err := step()
		h.pool.Disk().SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) || h.pool.PinnedFrames() != 0 {
			t.Errorf("%s under a read fault: %v, %d frames pinned", name, err, h.pool.PinnedFrames())
		}
	}
}

func TestScanPagesRange(t *testing.T) {
	h := newHeap(t, 128, 8)
	for i := 0; i < 60; i++ {
		if _, err := h.AppendAt(make([]byte, 30), 1); err != nil {
			t.Fatal(err)
		}
	}
	if h.NumPages() < 3 {
		t.Skip("need at least 3 pages")
	}
	var pages []int64
	if err := h.ScanPagesAt(1, 1, 0, func(rid RID, _ []byte) bool {
		pages = append(pages, rid.Page)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no tuples on page 1")
	}
	for _, p := range pages {
		if p != 1 {
			t.Errorf("ScanPagesAt(1,1) visited page %d", p)
		}
	}
	// Out-of-range bounds clamp instead of failing.
	n := 0
	if err := h.ScanPagesAt(-5, 999, 0, func(RID, []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 60 {
		t.Errorf("clamped scan saw %d", n)
	}
}

func TestTuplesOnPage(t *testing.T) {
	h := newHeap(t, 256, 8)
	var rids []RID
	for i := 0; i < 10; i++ {
		rid, err := h.AppendAt([]byte("abcdef"), 1)
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	onPage := func() int {
		n := 0
		if err := h.ScanPagesAt(0, 0, 0, func(RID, []byte) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := onPage(); n != 10 {
		t.Errorf("tuples on page 0 = %d", n)
	}
	if err := h.SetEnd(rids[3], 2); err != nil {
		t.Fatal(err)
	}
	if n := onPage(); n != 9 {
		t.Errorf("tuples on page 0 after an end = %d", n)
	}
}

func TestAppendGetPropertyRandomSizes(t *testing.T) {
	h := newHeap(t, 512, 16)
	type stored struct {
		rid  RID
		data []byte
	}
	var all []stored
	f := func(raw []byte) bool {
		if len(raw) > 100 {
			raw = raw[:100]
		}
		rid, err := h.AppendAt(raw, 1)
		if err != nil {
			return false
		}
		all = append(all, stored{rid, append([]byte(nil), raw...)})
		got, err := h.Get(rid)
		if err != nil {
			return false
		}
		return string(got) == string(raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// All earlier tuples still intact.
	for _, s := range all {
		got, err := h.Get(s.rid)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(s.data) {
			t.Fatalf("tuple at %v corrupted", s.rid)
		}
	}
}

func TestView(t *testing.T) {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 16)
	h := NewFile(pool)
	a, err := h.AppendAt([]byte("alpha"), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := h.AppendAt([]byte("beta"), 1)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	if err := h.ViewAt(a, 0, func(tuple []byte) error {
		got = string(tuple)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "alpha" {
		t.Errorf("ViewAt = %q, want alpha", got)
	}
	if err := h.SetEnd(b, 2); err != nil {
		t.Fatal(err)
	}
	if err := h.MarkDead(b, len("beta")); err != nil {
		t.Fatal(err)
	}
	called := false
	if err := h.ViewAt(b, 0, func([]byte) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("ViewAt invoked fn for a dead tuple")
	}
	if err := h.ViewAt(RID{Page: 99, Slot: 0}, 0, func([]byte) error { return nil }); err == nil {
		t.Error("ViewAt accepted an out-of-range RID")
	}
	boom := fmt.Errorf("boom")
	if err := h.ViewAt(a, 0, func([]byte) error { return boom }); err != boom {
		t.Errorf("ViewAt swallowed fn's error: %v", err)
	}
}

// Get returns a copy of the tuple at rid as the latest state sees it —
// the tests' reading of one slot. Ended and dead tuples return nil
// data.
func (h *File) Get(rid RID) ([]byte, error) {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return nil, fmt.Errorf("heap: RID %v out of range (pages=%d)", rid, h.numPages)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(fr, false)
	if int(rid.Slot) >= pageNumSlots(fr.Data) {
		return nil, fmt.Errorf("heap: RID %v slot out of range", rid)
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	if length == 0 || !visibleAt(h.vers[rid.Page].at(int(rid.Slot)), 0) {
		return nil, nil // deleted
	}
	out := make([]byte, length)
	copy(out, fr.Data[off:off+length])
	return out, nil
}

// TestTruncateGivesBackTheTailPages: a writer that opened pages with
// AppendPage and appended to them undoes all of it with one Truncate —
// pages, live and dead tuples, reuse filing, pool frames and the disk's
// bytes — and the heap before those pages reads as it did. The pool is
// smaller than the appends, so some truncated pages were written back
// and some are still dirty in a frame.
func TestTruncateGivesBackTheTailPages(t *testing.T) {
	h := newHeap(t, 256, 4)
	for i := 0; i < 12; i++ {
		if _, err := h.AppendAt([]byte(fmt.Sprintf("kept-%03d", i)), 3); err != nil {
			t.Fatal(err)
		}
	}
	var before []string
	if err := h.Scan(func(_ RID, tuple []byte) bool { before = append(before, string(tuple)); return true }); err != nil {
		t.Fatal(err)
	}
	first, tuples, dead := h.NumPages(), h.TupleCount(), h.DeadVersions()
	if h.Room(first-1) < TupleCost(len("load-000")) {
		t.Fatalf("the last kept page has no room left; the test needs it to")
	}
	var loaded []RID
	for len(loaded) < 80 {
		var err error
		if len(loaded) == 0 {
			loaded, err = h.AppendPage(loaded, [][]byte{[]byte("load-000")}, 5)
		} else {
			loaded, err = h.Append(loaded, [][]byte{[]byte(fmt.Sprintf("load-%03d", len(loaded)))}, 5)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if loaded[0].Page != first {
		t.Fatalf("AppendPage placed its first tuple on page %d, want a new page %d", loaded[0].Page, first)
	}
	// Give the truncated pages dead slots and reuse state too.
	for _, rid := range loaded[3:6] {
		if err := h.SetEnd(rid, 6); err != nil {
			t.Fatal(err)
		}
		if err := h.MarkDead(rid, len("load-000")); err != nil {
			t.Fatal(err)
		}
	}
	h.Truncate(first)
	if h.NumPages() != first || h.TupleCount() != tuples || h.DeadVersions() != dead {
		t.Fatalf("after Truncate: %d pages, %d tuples, %d dead; want %d, %d, %d",
			h.NumPages(), h.TupleCount(), h.DeadVersions(), first, tuples, dead)
	}
	if n := h.pool.Disk().NumPages(h.file); n != first {
		t.Fatalf("the disk keeps %d pages of the file, want %d", n, first)
	}
	for p := first; p <= loaded[len(loaded)-1].Page; p++ {
		if h.pool.Resident(h.file, p) {
			t.Fatalf("truncated page %d is still in the pool", p)
		}
	}
	if page, ok := h.BestFit(TupleCost(8), 1); ok && page >= first {
		t.Fatalf("BestFit offers truncated page %d", page)
	}
	var after []string
	if err := h.Scan(func(_ RID, tuple []byte) bool { after = append(after, string(tuple)); return true }); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("after Truncate the heap reads %v, want %v", after, before)
	}
	if err := h.pool.FlushAll(); err != nil {
		t.Fatalf("flushing after Truncate: %v", err)
	}
	if rids, err := h.AppendPage(nil, nil, 7); err != nil || len(rids) != 0 || h.NumPages() != first {
		t.Fatalf("AppendPage of no tuple: %v, %v, %d pages; want nothing and no page opened", err, rids, h.NumPages())
	}
	rids, err := h.AppendPage(nil, [][]byte{[]byte("again")}, 7)
	if err != nil || rids[0].Page != first {
		t.Fatalf("AppendPage after Truncate: %v at %v, want page %d", err, rids, first)
	}
	h.Truncate(0)
	if h.NumPages() != 0 || h.TupleCount() != 0 || h.pool.Disk().NumPages(h.file) != 0 {
		t.Fatalf("after Truncate(0): %d pages, %d tuples, %d on disk", h.NumPages(), h.TupleCount(), h.pool.Disk().NumPages(h.file))
	}
}
