package buffer

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sim"
)

func newPool(t *testing.T, frames int) (*Pool, *sim.Disk, sim.FileID) {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: 64})
	return NewPool(d, frames), d, d.CreateFile()
}

func TestNewPageAndGet(t *testing.T) {
	p, _, f := newPool(t, 4)
	page, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	copy(fr.Data, "abc")
	p.Unpin(fr, true)

	fr2, err := p.Get(f, page)
	if err != nil {
		t.Fatal(err)
	}
	if string(fr2.Data[:3]) != "abc" {
		t.Errorf("data = %q", fr2.Data[:3])
	}
	p.Unpin(fr2, false)
	st := p.Stats()
	if st.Hits != 1 {
		t.Errorf("hits = %d, want 1 (page still cached)", st.Hits)
	}
}

func TestEvictionWritesDirtyPages(t *testing.T) {
	p, d, f := newPool(t, 2)
	// Create 3 pages through a 2-frame pool; first must be evicted dirty.
	var pages []int64
	for i := 0; i < 3; i++ {
		pg, fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(i + 1)
		p.Unpin(fr, true)
		pages = append(pages, pg)
	}
	st := p.Stats()
	if st.Evictions == 0 || st.DirtyWrites == 0 {
		t.Fatalf("expected evictions with dirty writes, got %+v", st)
	}
	// Reading page 0 back must observe the written byte (it went to disk).
	fr, err := p.Get(f, pages[0])
	if err != nil {
		t.Fatal(err)
	}
	if fr.Data[0] != 1 {
		t.Errorf("evicted page content lost: %d", fr.Data[0])
	}
	p.Unpin(fr, false)
	if d.Stats().Writes == 0 {
		t.Error("disk writes expected from eviction")
	}
}

func TestPinnedFramesNotEvicted(t *testing.T) {
	p, _, f := newPool(t, 2)
	_, fr1, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	_, fr2, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	// Both frames pinned; a third page must fail.
	if _, _, err := p.NewPage(f); err == nil {
		t.Fatal("expected all-pinned error")
	}
	p.Unpin(fr1, false)
	p.Unpin(fr2, false)
	if _, fr3, err := p.NewPage(f); err != nil {
		t.Fatal(err)
	} else {
		p.Unpin(fr3, false)
	}
}

func TestFlushAll(t *testing.T) {
	p, d, f := newPool(t, 4)
	pg, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	fr.Data[0] = 0xAB
	p.Unpin(fr, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if p.DirtyCount() != 0 {
		t.Error("dirty pages remain after flush")
	}
	// Verify on-disk contents directly.
	buf := make([]byte, 64)
	if _, err := d.ReadPageDeferWait(f, pg, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xAB {
		t.Error("flush did not reach disk")
	}
}

// TestWriteBack: a dirty resident page is written once, counted in
// DirtyWrites, and stays cached and clean — so a second WriteBack and
// its later eviction write nothing. A clean or absent page costs no
// I/O, and a failed write leaves the frame dirty.
func TestWriteBack(t *testing.T) {
	p, d, f := newPool(t, 2)
	pg, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	copy(fr.Data, "written back")
	p.Unpin(fr, true)
	disk, pool := d.Stats(), p.Stats()

	if err := p.WriteBack(f, pg); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Writes - disk.Writes; got != 1 {
		t.Errorf("WriteBack of a dirty page: %d disk writes, want 1", got)
	}
	if got := p.Stats(); got.DirtyWrites != pool.DirtyWrites+1 || got.Hits != pool.Hits || got.Misses != pool.Misses || got.Evictions != pool.Evictions {
		t.Errorf("WriteBack moved the counters %+v → %+v, want DirtyWrites +1 only", pool, got)
	}
	if !p.Resident(f, pg) || p.DirtyCount() != 0 {
		t.Errorf("after WriteBack: resident %v, %d dirty frames; want resident and clean", p.Resident(f, pg), p.DirtyCount())
	}
	buf := make([]byte, d.PageSize())
	if _, err := d.ReadPageDeferWait(f, pg, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf[:12]) != "written back" {
		t.Errorf("disk holds %q, want the page's bytes", buf[:12])
	}

	// Clean, absent and never-allocated pages: no I/O, no count.
	disk, pool = d.Stats(), p.Stats()
	for _, page := range []int64{pg, 99} {
		if err := p.WriteBack(f, page); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.WriteBack(d.CreateFile(), 0); err != nil {
		t.Fatal(err)
	}
	if d.Stats() != disk || p.Stats() != pool {
		t.Errorf("WriteBack of a clean or absent page touched the disk or the counters")
	}

	// Evicting the written-back page costs no write: the second of two
	// new pages pushes it out of the two-frame pool.
	var last int64
	for i := 0; i < 2; i++ {
		if last, fr, err = p.NewPage(f); err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
	}
	if p.Resident(f, pg) {
		t.Fatal("page still resident after two new pages in a two-frame pool")
	}
	if got := d.Stats().Writes - disk.Writes; got != 0 {
		t.Errorf("evicting the written-back page: %d writes, want 0", got)
	}

	// An injected write fault surfaces and leaves the frame dirty.
	d.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
	err = p.WriteBack(f, last)
	d.SetFaultPlan(nil)
	if !errors.Is(err, sim.ErrInjected) {
		t.Fatalf("WriteBack under a write fault returned %v", err)
	}
	if n := p.DirtyCount(); n != 2 {
		t.Errorf("after a failed WriteBack %d frames are dirty, want both new pages", n)
	}
	if err := p.WriteBack(f, last); err != nil || p.DirtyCount() != 1 {
		t.Errorf("retried WriteBack: %v, %d dirty frames, want 1", err, p.DirtyCount())
	}
}

func TestInvalidateDropsCache(t *testing.T) {
	p, d, f := newPool(t, 4)
	pg, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, true)
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()
	d.ResetStats()
	fr2, err := p.Get(f, pg)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr2, false)
	if d.Stats().Reads != 1 {
		t.Error("invalidated page should be re-read from disk")
	}
}

func TestUnpinPanicsWhenNotPinned(t *testing.T) {
	p, _, f := newPool(t, 2)
	_, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on double unpin")
		}
	}()
	p.Unpin(fr, false)
}

func TestClockSecondChance(t *testing.T) {
	p, _, f := newPool(t, 2)
	newPage := func() int64 {
		pg, fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
		return pg
	}
	newPage()        // pg0
	pg1 := newPage() // pg1
	pg2 := newPage() // evicts pg0 after one sweep; clears pg1's ref bit
	// Now pg2 is referenced (just created) and pg1 is not: the next
	// allocation must evict the unreferenced pg1, not pg2, even though
	// pg1 entered the pool earlier.
	newPage() // pg3
	before := p.Stats().Hits
	fr, err := p.Get(f, pg2)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if p.Stats().Hits != before+1 {
		t.Error("referenced page pg2 was evicted before cold page pg1")
	}
	misses := p.Stats().Misses
	fr, err = p.Get(f, pg1)
	if err != nil {
		t.Fatal(err)
	}
	p.Unpin(fr, false)
	if p.Stats().Misses != misses+1 {
		t.Error("unreferenced page pg1 should have been the eviction victim")
	}
}

func TestMinimumCapacity(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 64})
	p := NewPool(d, 0)
	if p.Capacity() != 1 {
		t.Errorf("capacity = %d, want clamped to 1", p.Capacity())
	}
}

func TestShardingPreservesCapacity(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 64})
	for _, cap := range []int{1, 2, 63, 64, 128, 1000, 4096} {
		p := NewPool(d, cap)
		if p.Capacity() != cap {
			t.Errorf("capacity %d: got %d", cap, p.Capacity())
		}
		if cap < 2*minShardFrames && p.Shards() != 1 {
			t.Errorf("capacity %d: %d shards, want 1 (small pools keep one clock)", cap, p.Shards())
		}
		if p.Shards() > maxShards {
			t.Errorf("capacity %d: %d shards exceeds max %d", cap, p.Shards(), maxShards)
		}
	}
}

// TestConcurrentGets hammers the pool from many goroutines over a page
// set larger than capacity, forcing concurrent misses and evictions,
// then verifies page contents and counter totals. Run with -race.
func TestConcurrentGets(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 64})
	p := NewPool(d, 256)
	f := d.CreateFile()
	const pages = 600
	for i := 0; i < pages; i++ {
		pg, fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		fr.Data[0] = byte(pg % 251)
		p.Unpin(fr, true)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	p.Invalidate()

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 2000; i++ {
				pg := int64(rng.Intn(pages))
				fr, err := p.Get(f, pg)
				if err != nil {
					t.Error(err)
					return
				}
				if fr.Data[0] != byte(pg%251) {
					t.Errorf("page %d holds wrong contents %d", pg, fr.Data[0])
					p.Unpin(fr, false)
					return
				}
				p.Unpin(fr, false)
			}
		}(g)
	}
	wg.Wait()
	st := p.Stats()
	if st.Hits+st.Misses != 8*2000 {
		t.Errorf("hits+misses = %d, want %d", st.Hits+st.Misses, 8*2000)
	}
	if p.DirtyCount() != 0 {
		t.Errorf("dirty frames after read-only load: %d", p.DirtyCount())
	}
}

// TestResidentIsOnlyAHint: Resident answers from the page table and
// touches nothing else. Asking thousands of times moves no counter (Stats
// before == after, so no hit or miss), reads nothing from the disk, pins
// no frame, and leaves the clock's reference bits alone: the page the
// second-chance sweep was about to evict is still the one it evicts.
func TestResidentIsOnlyAHint(t *testing.T) {
	p, d, f := newPool(t, 3)
	newPage := func() int64 {
		pg, fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
		return pg
	}
	pg0, pg1, pg2 := newPage(), newPage(), newPage()
	// Evicts pg0 after a sweep that clears pg1's and pg2's reference
	// bits and leaves the hand on pg1: the next victim.
	pg3 := newPage()

	stats, disk := p.Stats(), d.Stats()
	for i := 0; i < 5000; i++ {
		if p.Resident(f, pg0) || !p.Resident(f, pg1) || p.Resident(f, 99) {
			t.Fatalf("Resident(evicted, cached, never allocated) = %v %v %v",
				p.Resident(f, pg0), p.Resident(f, pg1), p.Resident(f, 99))
		}
	}
	if got := p.Stats(); got != stats {
		t.Errorf("Resident moved the pool's counters: %+v, were %+v", got, stats)
	}
	if got := d.Stats(); got != disk {
		t.Errorf("Resident touched the disk: %+v, was %+v", got, disk)
	}
	if n := p.PinnedFrames(); n != 0 {
		t.Errorf("Resident left %d frames pinned", n)
	}

	newPage() // a reference bit set on pg1 would send the hand on to pg2
	if p.Resident(f, pg1) || !p.Resident(f, pg2) || !p.Resident(f, pg3) {
		t.Errorf("after the next eviction pg1, pg2, pg3 resident = %v %v %v, want false true true: asking about pg1 must not have saved it",
			p.Resident(f, pg1), p.Resident(f, pg2), p.Resident(f, pg3))
	}
}

// TestFramesAllocateOnFirstUse pins capacity as a bound, not an
// allocation: a frame gets its page buffer the first time it holds a
// page and keeps it through Invalidate and eviction, and Invalidate's
// rewound clock hand sends the next misses to frames that already have
// buffers — without the rewind, rounds of Invalidate plus a few reads
// walk the hand across every frame and give each one a buffer.
func TestFramesAllocateOnFirstUse(t *testing.T) {
	const frames, filePages = 64, 200
	d := sim.NewDisk(sim.Config{PageSize: 64})
	ps := int64(d.PageSize())
	f := d.CreateFile()
	full := make([]byte, ps)
	for i := range full {
		full[i] = 0xA5
	}
	for i := 0; i < filePages; i++ {
		if _, err := d.WritePageDeferWait(f, d.AllocPage(f), full); err != nil {
			t.Fatal(err)
		}
	}
	p := NewPool(d, frames)
	if p.Shards() != 1 {
		t.Fatalf("a %d-frame pool has %d shards, want 1", frames, p.Shards())
	}
	read := func(page int64) {
		t.Helper()
		fr, err := p.Get(f, page)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, false)
	}
	want := func(stage string, bytes int64) {
		t.Helper()
		if got := p.FrameBytes(); got != bytes {
			t.Errorf("%s: frames hold %d bytes, want %d", stage, got, bytes)
		}
	}

	want("a new pool", 0)
	const n = 10
	for pg := int64(0); pg < n; pg++ {
		read(pg)
	}
	want("after reading 10 pages", n*ps)
	p.Invalidate()
	for pg := int64(0); pg < n; pg++ {
		read(pg)
	}
	want("after Invalidate and reading them again", n*ps)
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 1000; round++ {
		p.Invalidate()
		for i := 0; i < 5; i++ {
			read(int64(rng.Intn(filePages)))
		}
	}
	want("after 1,000 rounds of Invalidate plus 5 random pages", n*ps)
	for pg := int64(0); pg < filePages; pg++ {
		read(pg)
	}
	want("after reading past capacity", frames*ps)

	_, fr, err := p.NewPage(f)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range fr.Data {
		if b != 0 {
			t.Fatalf("NewPage on a reused frame: byte %d is %#x, want a zeroed page", i, b)
		}
	}
	p.Unpin(fr, false)
	want("after NewPage on a reused frame", frames*ps)
}

// TestCacheResetStatsCoversEveryField drives traffic that moves every
// Stats field, resets, and asserts — by reflection, so a future field
// cannot dodge the test — that every field reads zero after ResetStats,
// in the total and in every shard.
func TestCacheResetStatsCoversEveryField(t *testing.T) {
	p, _, f := newPool(t, 16)
	var pages []int64
	for i := 0; i < 256; i++ { // evicts dirty pages through 16 frames
		pg, fr, err := p.NewPage(f)
		if err != nil {
			t.Fatal(err)
		}
		p.Unpin(fr, true)
		pages = append(pages, pg)
	}
	for r := 0; r < 2; r++ { // misses on the first pass, hits on the second
		for _, pg := range pages[:4] {
			fr, err := p.Get(f, pg)
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(fr, false)
		}
	}
	st := reflect.ValueOf(p.Stats())
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Uint() == 0 {
			t.Errorf("workload left Stats.%s at zero; extend the workload so reset coverage is meaningful", st.Type().Field(i).Name)
		}
	}
	p.ResetStats()
	after := reflect.ValueOf(p.Stats())
	for i := 0; i < after.NumField(); i++ {
		if v := after.Field(i).Uint(); v != 0 {
			t.Errorf("ResetStats left Stats.%s = %d, want 0", after.Type().Field(i).Name, v)
		}
	}
	for si, ss := range p.ShardStats() {
		sv := reflect.ValueOf(ss)
		for i := 0; i < sv.NumField(); i++ {
			if v := sv.Field(i).Uint(); v != 0 {
				t.Errorf("ResetStats left shard %d %s = %d, want 0", si, sv.Type().Field(i).Name, v)
			}
		}
	}
}

// Capacity returns the number of frames.
func (p *Pool) Capacity() int {
	n := 0
	for i := range p.shards {
		n += len(p.shards[i].frames)
	}
	return n
}

// DirtyCount returns the number of dirty frames.
func (p *Pool) DirtyCount() int {
	n := 0
	for si := range p.shards {
		sh := &p.shards[si]
		sh.mu.Lock()
		for i := range sh.frames {
			if sh.frames[i].used && sh.frames[i].dirty {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}
