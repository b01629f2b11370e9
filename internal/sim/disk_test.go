package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
	"weak"
)

func newTestDisk() *Disk {
	return NewDisk(Config{PageSize: 128})
}

func TestDefaults(t *testing.T) {
	d := NewDisk(Config{})
	if d.PageSize() != DefaultPageSize {
		t.Errorf("page size = %d", d.PageSize())
	}
	if d.Config().SeekCost != DefaultSeekCost || d.Config().SeqPageCost != DefaultSeqPageCost {
		t.Error("default costs not applied")
	}
	// Any positive field is kept, however small.
	tiny := Config{PageSize: 1, SeekCost: 1, SeqPageCost: 1}
	if got := NewDisk(tiny).Config(); got != tiny {
		t.Errorf("config %+v became %+v", tiny, got)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	p, pg := d.AllocPage(f)
	copy(pg, "hello")
	if _, err := d.WritePageDeferWait(f, p); err != nil {
		t.Fatal(err)
	}
	dst, _, err := d.ReadPageDeferWait(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if string(dst[:5]) != "hello" {
		t.Errorf("read back %q", dst[:5])
	}
}

// TestReadsLendTheStoredPage: AllocPage and every read hand out the one
// stored page, not a copy, so a change made through it is what the next
// read sees; writing that page back charges a write and leaves its
// bytes as they are.
func TestReadsLendTheStoredPage(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	p, alloc := d.AllocPage(f)
	a, _, err := d.ReadPageDeferWait(f, p)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := d.ReadPageDeferWait(f, p)
	if err != nil {
		t.Fatal(err)
	}
	if &a[0] != &alloc[0] || &b[0] != &alloc[0] {
		t.Fatal("a read handed out a copy of the stored page")
	}
	copy(a, "lent")
	if _, err := d.WritePageDeferWait(f, p); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.Reads != 2 || st.Writes != 1 {
		t.Errorf("reads %d, writes %d; want 2 and 1", st.Reads, st.Writes)
	}
	if c, _, _ := d.ReadPageDeferWait(f, p); string(c[:4]) != "lent" {
		t.Errorf("read back %q after writing the lent page", c[:4])
	}
	if n := testing.AllocsPerRun(100, func() { d.ReadPageDeferWait(f, p) }); n != 0 {
		t.Errorf("a read allocates %.1f objects, want 0", n)
	}
}

// TestShrinkDropsTheTailPages: Shrink drops a file's last pages with
// their bytes (StoreBytes falls, the other file keeps its own), a
// dropped page is out of range for reads and writes, and AllocPage hands
// its number out again as a new zeroed page. A write charges and copies
// nothing.
func TestShrinkDropsTheTailPages(t *testing.T) {
	d := newTestDisk()
	f, g := d.CreateFile(), d.CreateFile()
	d.AllocPage(g)
	var pages [][]byte
	for range 3 {
		_, pg := d.AllocPage(f)
		copy(pg, "old")
		pages = append(pages, pg)
	}
	if got := d.StoreBytes(); got != 4*128 {
		t.Fatalf("store holds %d bytes, want %d", got, 4*128)
	}
	if n := testing.AllocsPerRun(100, func() { d.WritePageDeferWait(f, 2) }); n != 0 {
		t.Errorf("a write allocates %.1f objects, want 0", n)
	}
	d.Shrink(f, 1)
	d.Shrink(f, 5) // past the end: nothing to drop
	if n, got := d.NumPages(f), d.StoreBytes(); n != 1 || got != 2*128 {
		t.Fatalf("after Shrink: %d pages, store %d bytes; want 1 and %d", n, got, 2*128)
	}
	if _, _, err := d.ReadPageDeferWait(f, 1); err == nil {
		t.Error("read of a dropped page succeeded")
	}
	if _, err := d.WritePageDeferWait(f, 2); err == nil {
		t.Error("write of a dropped page succeeded")
	}
	p, pg := d.AllocPage(f)
	if p != 1 || &pg[0] == &pages[1][0] || string(pg[:3]) != "\x00\x00\x00" {
		t.Errorf("AllocPage after Shrink gave page %d starting %q; want page 1, a new zeroed page", p, pg[:3])
	}
	if kept, _, err := d.ReadPageDeferWait(f, 0); err != nil || &kept[0] != &pages[0][0] {
		t.Errorf("the page below the cut is not the one stored (%v)", err)
	}
	if d.NumPages(g) != 1 {
		t.Error("Shrink of one file changed another")
	}
	// A dropped page is the collector's: the file keeps no reference to
	// its bytes past the cut.
	dropped := func() weak.Pointer[byte] {
		_, pg := d.AllocPage(g)
		return weak.Make(&pg[0])
	}()
	d.Shrink(g, 1)
	runtime.GC()
	if dropped.Value() != nil {
		t.Error("a dropped page's bytes are still reachable after Shrink")
	}
	runtime.KeepAlive(d)
}

func TestSequentialVsRandomClassification(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	for i := 0; i < 10; i++ {
		d.AllocPage(f)
	}
	// Pages 0..9 in order: first read is a seek, the rest sequential.
	for p := int64(0); p < 10; p++ {
		if _, _, err := d.ReadPageDeferWait(f, p); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RandReads != 1 || st.SeqReads != 9 {
		t.Errorf("rand=%d seq=%d, want 1/9", st.RandReads, st.SeqReads)
	}
	// Jumping backwards is a seek.
	if _, _, err := d.ReadPageDeferWait(f, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.RandReads != 2 {
		t.Errorf("backward jump not a seek: rand=%d", st.RandReads)
	}
}

func TestCrossFileAccessIsSeek(t *testing.T) {
	d := newTestDisk()
	f1, f2 := d.CreateFile(), d.CreateFile()
	d.AllocPage(f1)
	d.AllocPage(f2)
	if _, _, err := d.ReadPageDeferWait(f1, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadPageDeferWait(f2, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.RandReads != 2 {
		t.Errorf("cross-file read should seek, rand=%d", st.RandReads)
	}
}

func TestElapsedAccounting(t *testing.T) {
	d := NewDisk(Config{PageSize: 128, SeekCost: 10 * time.Millisecond, SeqPageCost: time.Millisecond})
	f := d.CreateFile()
	for i := 0; i < 4; i++ {
		d.AllocPage(f)
	}
	for p := int64(0); p < 4; p++ {
		if _, _, err := d.ReadPageDeferWait(f, p); err != nil {
			t.Fatal(err)
		}
	}
	want := 10*time.Millisecond + 3*time.Millisecond
	if got := d.Elapsed(); got != want {
		t.Errorf("elapsed = %v, want %v", got, want)
	}
	if got := d.Stats().Elapsed; got != want {
		t.Errorf("Stats().Elapsed = %v, want %v", got, want)
	}
}

func TestSyncCostsOneSeekAndForgetsPosition(t *testing.T) {
	d := NewDisk(Config{PageSize: 128, SeekCost: 10 * time.Millisecond, SeqPageCost: time.Millisecond})
	f := d.CreateFile()
	d.AllocPage(f)
	d.AllocPage(f)
	if _, _, err := d.ReadPageDeferWait(f, 0); err != nil {
		t.Fatal(err)
	}
	d.SyncDeferWait()
	if _, _, err := d.ReadPageDeferWait(f, 1); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.Syncs != 1 {
		t.Errorf("syncs = %d", st.Syncs)
	}
	// Page 1 would have been sequential after page 0, but the sync
	// invalidated the head position.
	if st.RandReads != 2 {
		t.Errorf("read after sync should seek; rand=%d", st.RandReads)
	}
	if st.Seeks() != 3 {
		t.Errorf("Seeks() = %d, want 3", st.Seeks())
	}
}

func TestResetStats(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	d.AllocPage(f)
	if _, _, err := d.ReadPageDeferWait(f, 0); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if st := d.Stats(); st.Reads != 0 || st.Elapsed != 0 {
		t.Error("reset did not clear stats")
	}
	// First access after reset is a seek again (cold cache methodology).
	if _, _, err := d.ReadPageDeferWait(f, 0); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.RandReads != 1 {
		t.Error("post-reset access should be random")
	}
}

// TestErrors: an access of a missing file or page fails, is charged
// nothing and is no injected fault, even with a plan armed.
func TestErrors(t *testing.T) {
	d := newTestDisk()
	d.SetFaultPlan(&FaultPlan{EveryKth: 1})
	if _, _, err := d.ReadPageDeferWait(5, 0); err == nil {
		t.Error("read of missing file should fail")
	}
	f := d.CreateFile()
	if _, _, err := d.ReadPageDeferWait(f+1, 0); err == nil {
		t.Error("read of the file after the last should fail")
	}
	if _, cost, err := d.ReadPageDeferWait(f, 0); err == nil || errors.Is(err, ErrInjected) || cost != 0 {
		t.Errorf("read of missing page: %v, cost %v", err, cost)
	}
	if cost, err := d.WritePageDeferWait(f, 3); err == nil || errors.Is(err, ErrInjected) || cost != 0 {
		t.Errorf("write of missing page: %v, cost %v", err, cost)
	}
	if _, _, err := d.ReadPageDeferWait(f, -1); err == nil || errors.Is(err, ErrInjected) {
		t.Errorf("read of page -1: %v", err)
	}
	if s := d.Stats(); s.Reads+s.Writes+s.InjectedFaults != 0 || s.Elapsed != 0 {
		t.Errorf("failed accesses were counted: %+v", s)
	}
}

func TestWriteClassification(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	for i := 0; i < 3; i++ {
		d.AllocPage(f)
	}
	for p := int64(0); p < 3; p++ {
		if _, err := d.WritePageDeferWait(f, p); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RandWrites != 1 || st.SeqWrites != 2 || st.Writes != 3 {
		t.Errorf("write classification rand=%d seq=%d total=%d", st.RandWrites, st.SeqWrites, st.Writes)
	}
}

// TestStreamStatsAndReset pins the read-ahead stream accounting —
// sequential runs start streams, scattered seeks at the cap evict
// them — and that ResetStats zeroes the stream counters and the live
// stream contexts together with the exact counters: a snapshot after
// reset starts from a clean slate, with the next read classified as a
// fresh stream start, not a continuation of pre-reset history.
func TestStreamStatsAndReset(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	const pages = 64
	for i := 0; i < pages; i++ {
		d.AllocPage(f)
	}
	// Two interleaved sequential runs: two live streams.
	for i := 0; i < 8; i++ {
		if _, _, err := d.ReadPageDeferWait(f, int64(i)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.ReadPageDeferWait(f, int64(32+i)); err != nil {
			t.Fatal(err)
		}
	}
	s := d.Stats()
	if s.StreamStarts < 2 || s.ActiveStreams < 2 {
		t.Fatalf("stream stats = %+v, want >= 2 starts and active", s)
	}
	if s.SeqReads == 0 {
		t.Fatalf("interleaved sequential runs classified no seq reads: %+v", s)
	}
	// At most 64 streams live at once: 65 files' first reads, each a
	// seek, evict the two runs' streams and the first file's.
	for range 65 {
		g := d.CreateFile()
		d.AllocPage(g)
		if _, _, err := d.ReadPageDeferWait(g, 0); err != nil {
			t.Fatal(err)
		}
	}
	if s := d.Stats(); s.StreamEvictions != 3 || s.ActiveStreams != 64 {
		t.Fatalf("after 65 more seeks: %d streams evicted, %d active; want 3 and 64", s.StreamEvictions, s.ActiveStreams)
	}

	d.ResetStats()
	s = d.Stats()
	if s != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}

	// The stream table was dropped with the counters: continuing one of
	// the pre-reset runs is a fresh stream start (a seek), not a
	// sequential continuation of forgotten history.
	if _, _, err := d.ReadPageDeferWait(f, 8); err != nil {
		t.Fatal(err)
	}
	s = d.Stats()
	if s.StreamStarts != 1 || s.RandReads != 1 || s.SeqReads != 0 {
		t.Fatalf("first post-reset read = %+v, want one fresh stream start", s)
	}
	if s.ActiveStreams != 1 {
		t.Fatalf("active streams = %d, want 1", s.ActiveStreams)
	}
}

// TestFaultTriggers runs one access sequence — reads and writes of a
// four-page file, alternating as r r w r w w r r — under each trigger and
// pins which accesses fail: a failed access returns an error wrapping
// ErrInjected that names it, and is neither charged nor counted.
// Re-installing a plan restarts its counters.
func TestFaultTriggers(t *testing.T) {
	const ops = "rrwrwwrr"
	// The probabilistic trigger draws one number per read from a stream
	// seeded by the plan.
	var probFails []int
	rng := rand.New(rand.NewSource(7))
	for i, op := range ops {
		if op == 'r' && rng.Float64() < 0.5 {
			probFails = append(probFails, i)
		}
	}
	for _, c := range []struct {
		plan  *FaultPlan
		fails []int
	}{
		{nil, nil},
		{&FaultPlan{}, nil},
		{&FaultPlan{FailReadN: 1}, []int{0}},
		{&FaultPlan{FailReadN: 4}, []int{6}},
		{&FaultPlan{FailWriteN: 1}, []int{2}},
		{&FaultPlan{FailWriteN: 3}, []int{5}},
		{&FaultPlan{EveryKth: 1}, []int{0, 1, 2, 3, 4, 5, 6, 7}},
		{&FaultPlan{EveryKth: 3}, []int{2, 5}},
		{&FaultPlan{ReadProb: 0.5, Seed: 7}, probFails},
		{&FaultPlan{FailReadN: 2, FailWriteN: 2}, []int{1, 4}},
	} {
		d := NewDisk(Config{PageSize: 64})
		f := d.CreateFile()
		for range 4 {
			d.AllocPage(f)
		}
		for round := 0; round < 2; round++ {
			d.SetFaultPlan(c.plan)
			var fails []int
			for i, op := range ops {
				before := d.Stats()
				p := int64(i % 4)
				var cost time.Duration
				var err error
				if op == 'r' {
					_, cost, err = d.ReadPageDeferWait(f, p)
				} else {
					cost, err = d.WritePageDeferWait(f, p)
				}
				if err == nil {
					continue
				}
				if cost != 0 {
					t.Errorf("%+v: the failed access %d costs %v", c.plan, i, cost)
				}
				fails = append(fails, i)
				kind := map[rune]string{'r': "read", 'w': "write"}[op]
				if want := fmt.Sprintf("sim: %s of file %d page %d", kind, f, p); !errors.Is(err, ErrInjected) || !strings.HasPrefix(err.Error(), want) {
					t.Errorf("%+v: access %d failed with %v, want %q wrapping ErrInjected", c.plan, i, err, want)
				}
				if after := d.Stats(); after.Reads != before.Reads || after.Writes != before.Writes || after.Elapsed != before.Elapsed {
					t.Errorf("%+v: the failed access %d was charged", c.plan, i)
				}
			}
			if fmt.Sprint(fails) != fmt.Sprint(c.fails) {
				t.Errorf("%+v, round %d: accesses %v failed, want %v", c.plan, round, fails, c.fails)
			}
			if got := d.Stats().InjectedFaults; got != uint64((round+1)*len(c.fails)) {
				t.Errorf("%+v, round %d: %d injected faults counted", c.plan, round, got)
			}
		}
	}
}

// TestRealWaits: with RealWaitScale, paid costs pool until they reach
// the 2 ms chunk and are then slept off whole, divided by the scale;
// Stats.IOWait is what was slept. Without it nothing is slept.
// ResetStats forgets the pool as well as the total.
func TestRealWaits(t *testing.T) {
	d := NewDisk(Config{RealWaitScale: 1})
	start := time.Now()
	d.PayWait(5 * time.Millisecond)
	if wall, slept := time.Since(start), d.Stats().IOWait; slept != 5*time.Millisecond || wall < slept {
		t.Fatalf("a 5 ms payment: %v counted, %v of wall time", slept, wall)
	}
	d.ResetStats()
	for i, want := range []time.Duration{0, 2400 * time.Microsecond, 2400 * time.Microsecond, 4800 * time.Microsecond} {
		d.PayWait(1200 * time.Microsecond)
		if got := d.Stats().IOWait; got != want {
			t.Fatalf("after %d payments of 1.2 ms: slept %v, want %v", i+1, got, want)
		}
	}
	d.PayWait(1200 * time.Microsecond)
	d.ResetStats()
	d.PayWait(2*time.Millisecond - 1)
	if got := d.Stats().IOWait; got != 0 {
		t.Fatalf("after a reset and a payment just under 2 ms: slept %v", got)
	}
	exact := NewDisk(Config{RealWaitScale: 1})
	exact.PayWait(2 * time.Millisecond)
	if got := exact.Stats().IOWait; got != 2*time.Millisecond {
		t.Errorf("a 2 ms payment slept %v", got)
	}
	half := NewDisk(Config{RealWaitScale: 2})
	half.PayWait(4800 * time.Microsecond)
	if got := half.Stats().IOWait; got != 2400*time.Microsecond {
		t.Errorf("scale 2: a 4.8 ms payment slept %v", got)
	}
	none := NewDisk(Config{})
	none.PayWait(time.Second)
	if got := none.Stats().IOWait; got != 0 {
		t.Errorf("no scale: slept %v", got)
	}
}
