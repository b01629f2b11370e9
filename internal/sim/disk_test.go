package sim

import (
	"testing"
	"time"
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
}

func TestReadWriteRoundTrip(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	p := d.AllocPage(f)
	src := make([]byte, 128)
	copy(src, "hello")
	if _, err := d.WritePageDeferWait(f, p, src); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 128)
	if _, err := d.ReadPageDeferWait(f, p, dst); err != nil {
		t.Fatal(err)
	}
	if string(dst[:5]) != "hello" {
		t.Errorf("read back %q", dst[:5])
	}
}

func TestSequentialVsRandomClassification(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	for i := 0; i < 10; i++ {
		d.AllocPage(f)
	}
	buf := make([]byte, 128)
	// Pages 0..9 in order: first read is a seek, the rest sequential.
	for p := int64(0); p < 10; p++ {
		if _, err := d.ReadPageDeferWait(f, p, buf); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if st.RandReads != 1 || st.SeqReads != 9 {
		t.Errorf("rand=%d seq=%d, want 1/9", st.RandReads, st.SeqReads)
	}
	// Jumping backwards is a seek.
	if _, err := d.ReadPageDeferWait(f, 0, buf); err != nil {
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
	buf := make([]byte, 128)
	if _, err := d.ReadPageDeferWait(f1, 0, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPageDeferWait(f2, 0, buf); err != nil {
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
	buf := make([]byte, 128)
	for p := int64(0); p < 4; p++ {
		if _, err := d.ReadPageDeferWait(f, p, buf); err != nil {
			t.Fatal(err)
		}
	}
	want := 10*time.Millisecond + 3*time.Millisecond
	if got := d.Elapsed(); got != want {
		t.Errorf("elapsed = %v, want %v", got, want)
	}
}

func TestSyncCostsOneSeekAndForgetsPosition(t *testing.T) {
	d := NewDisk(Config{PageSize: 128, SeekCost: 10 * time.Millisecond, SeqPageCost: time.Millisecond})
	f := d.CreateFile()
	d.AllocPage(f)
	d.AllocPage(f)
	buf := make([]byte, 128)
	if _, err := d.ReadPageDeferWait(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	d.SyncDeferWait()
	if _, err := d.ReadPageDeferWait(f, 1, buf); err != nil {
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
	buf := make([]byte, 128)
	if _, err := d.ReadPageDeferWait(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	d.ResetStats()
	if st := d.Stats(); st.Reads != 0 || st.Elapsed != 0 {
		t.Error("reset did not clear stats")
	}
	// First access after reset is a seek again (cold cache methodology).
	if _, err := d.ReadPageDeferWait(f, 0, buf); err != nil {
		t.Fatal(err)
	}
	if st := d.Stats(); st.RandReads != 1 {
		t.Error("post-reset access should be random")
	}
}

func TestErrors(t *testing.T) {
	d := newTestDisk()
	buf := make([]byte, 128)
	if _, err := d.ReadPageDeferWait(5, 0, buf); err == nil {
		t.Error("read of missing file should fail")
	}
	f := d.CreateFile()
	if _, err := d.ReadPageDeferWait(f, 0, buf); err == nil {
		t.Error("read of missing page should fail")
	}
	if _, err := d.WritePageDeferWait(f, 3, buf); err == nil {
		t.Error("write of missing page should fail")
	}
}

func TestWriteClassification(t *testing.T) {
	d := newTestDisk()
	f := d.CreateFile()
	for i := 0; i < 3; i++ {
		d.AllocPage(f)
	}
	buf := make([]byte, 128)
	for p := int64(0); p < 3; p++ {
		if _, err := d.WritePageDeferWait(f, p, buf); err != nil {
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
	buf := make([]byte, 128)
	for i := 0; i < pages; i++ {
		d.AllocPage(f)
	}
	// Two interleaved sequential runs: two live streams.
	for i := 0; i < 8; i++ {
		if _, err := d.ReadPageDeferWait(f, int64(i), buf); err != nil {
			t.Fatal(err)
		}
		if _, err := d.ReadPageDeferWait(f, int64(32+i), buf); err != nil {
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

	d.ResetStats()
	s = d.Stats()
	if s != (Stats{}) {
		t.Fatalf("stats after reset = %+v, want zero", s)
	}

	// The stream table was dropped with the counters: continuing one of
	// the pre-reset runs is a fresh stream start (a seek), not a
	// sequential continuation of forgotten history.
	if _, err := d.ReadPageDeferWait(f, 8, buf); err != nil {
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
