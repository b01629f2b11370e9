package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounterAddValueReset(t *testing.T) {
	var c Counter
	for i := 0; i < 100; i++ {
		c.Add(3)
	}
	if got := c.Value(); got != 300 {
		t.Fatalf("Value = %d, want 300", got)
	}
	c.Reset()
	if got := c.Value(); got != 0 {
		t.Fatalf("Value after Reset = %d, want 0", got)
	}
	var nilC *Counter
	nilC.Add(5) // must not panic
	if nilC.Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
}

func TestHistogramObserveSnapshotQuantile(t *testing.T) {
	h := NewHistogram([]int64{10, 100, 1000})
	for _, v := range []int64{1, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 5556 {
		t.Fatalf("Sum = %d, want 5556", s.Sum)
	}
	if s.Max != 5000 {
		t.Fatalf("Max = %d, want 5000", s.Max)
	}
	want := []int64{2, 1, 1, 1}
	for i, c := range s.Counts {
		if c != want[i] {
			t.Fatalf("Counts[%d] = %d, want %d", i, c, want[i])
		}
	}
	if q := s.Quantile(0.5); q != 100 {
		t.Fatalf("p50 = %d, want 100", q)
	}
	if q := s.Quantile(0.99); q != 5000 {
		t.Fatalf("p99 = %d, want 5000 (max)", q)
	}
	h.Reset()
	if s := h.Snapshot(); s.Count != 0 || s.Sum != 0 || s.Max != 0 {
		t.Fatalf("snapshot after Reset not zero: %+v", s)
	}
}

func TestRegistrySnapshotAndLike(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("disk.reads")
	h := r.Histogram("query.latency_ns", []int64{int64(time.Millisecond)})
	r.Func("wal.appends", func() int64 { return 7 })
	c.Add(3)
	h.Observe(int64(time.Microsecond))

	all := r.Snapshot("")
	byName := map[string]int64{}
	for _, s := range all {
		byName[s.Name] = s.Value
	}
	if byName["disk.reads"] != 3 || byName["wal.appends"] != 7 {
		t.Fatalf("unexpected snapshot: %+v", byName)
	}
	if byName["query.latency_ns.count"] != 1 {
		t.Fatalf("histogram did not expand: %+v", byName)
	}

	disk := r.Snapshot("disk.%")
	if len(disk) != 1 || disk[0].Name != "disk.reads" {
		t.Fatalf("LIKE filter returned %+v", disk)
	}
	if got := r.Snapshot("%latency%count"); len(got) != 1 {
		t.Fatalf("substring LIKE returned %+v", got)
	}

	r.Reset()
	for _, s := range r.Snapshot("") {
		if s.Name == "wal.appends" {
			if s.Value != 7 {
				t.Fatal("func metric should survive Reset")
			}
			continue
		}
		if s.Value != 0 {
			t.Fatalf("%s = %d after Reset, want 0", s.Name, s.Value)
		}
	}
}

func TestRegistryEnabledGate(t *testing.T) {
	r := NewRegistry()
	if !r.Enabled() {
		t.Fatal("new registry should be enabled")
	}
	r.SetEnabled(false)
	if r.Enabled() {
		t.Fatal("SetEnabled(false) did not stick")
	}
	var nilR *Registry
	if nilR.Enabled() {
		t.Fatal("nil registry must report disabled")
	}
	nilR.SetEnabled(true) // must not panic
}

func TestLikePatterns(t *testing.T) {
	cases := []struct {
		name, pat string
		want      bool
	}{
		{"disk.reads", "disk.reads", true},
		{"disk.reads", "DISK.%", true},
		{"disk.reads", "%reads", true},
		{"disk.reads", "%rea%", true},
		{"disk.reads", "disk_reads", true}, // '_' matches the dot
		{"disk.reads", "pool.%", false},
		{"disk.reads", "", true},
		{"disk.reads", "%", true},
		{"x", "%%x%%", true},
	}
	for _, c := range cases {
		if got := Like(c.name, c.pat); got != c.want {
			t.Errorf("Like(%q, %q) = %v, want %v", c.name, c.pat, got, c.want)
		}
	}
}

// TestRaceStress hammers one counter/histogram set from 16 goroutines
// while snapshots and resets run concurrently; its
// value is under -race, where any unsynchronized access fails the run.
func TestRaceStress(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("stress.counter")
	h := r.Histogram("stress.hist_ns", nil)
	side := NewHistogram(DurationBounds)

	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Add(1)
				h.Observe(int64(i%2000) * int64(time.Microsecond))
				side.Observe(int64(w+1) * int64(time.Millisecond))
				if i%257 == 0 {
					_ = r.Snapshot("stress.%")
				}
				if i%1023 == 0 {
					side.Reset()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = c.Value()
				_ = h.Snapshot()
				_ = r.Snapshot("")
			}
		}
	}()
	wg.Wait()
	close(done)
	if got := c.Value(); got != goroutines*iters {
		t.Fatalf("counter = %d, want %d", got, goroutines*iters)
	}
	if s := h.Snapshot(); s.Count != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", s.Count, goroutines*iters)
	}
}
