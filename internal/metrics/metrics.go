// Package metrics is the engine's observability core: race-clean,
// low-overhead counters, fixed-bucket histograms and callback gauges
// (Registry.Func), collected into a Registry that SHOW METRICS, the
// debug HTTP endpoint and the benchmarks all read from. The design constraint is the hot path: an
// uncontended Counter.Add is one atomic add on a padded cell (sharded
// so contended adds do not false-share), a Histogram.Observe is one
// bounded search plus three atomic adds, and every recording method is
// nil-safe so call sites can keep a nil metric when instrumentation is
// off and pay only a branch. Reads (Snapshot) are lock-free over the
// cells; a snapshot taken mid-add can be one add stale, never torn.
package metrics

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the number of padded cells per Counter. Sixteen
// cells of one cache line each keep a hammered counter off shared
// lines without bloating the thousands-of-counters case.
const counterShards = 16

// cell is one cache-line-padded atomic counter shard.
type cell struct {
	n atomic.Int64
	_ [56]byte
}

// shardHint picks a counter shard from the address of a stack byte.
// Goroutine stacks are distinct allocations, so concurrent adders land
// on different cells with high probability; the value only steers
// contention, so a collision is a performance detail, not a race.
func shardHint() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>7) & (counterShards - 1)
}

// Counter is a monotonically adjustable sharded counter. The zero
// value is ready to use; a nil Counter ignores writes and reads zero.
type Counter struct {
	cells [counterShards]cell
}

// Add adds d to the counter.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.cells[shardHint()].n.Add(d)
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Value sums the shards. Concurrent adds may or may not be included.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var total int64
	for i := range c.cells {
		total += c.cells[i].n.Load()
	}
	return total
}

// Reset zeroes every shard. Adds racing a Reset land before or after
// it, never half-in.
func (c *Counter) Reset() {
	if c == nil {
		return
	}
	for i := range c.cells {
		c.cells[i].n.Store(0)
	}
}

// Histogram is a fixed-bucket histogram of int64 observations
// (latencies in nanoseconds, sizes in pages or bytes). Buckets are
// defined by ascending upper bounds with an implicit +Inf bucket at
// the end. A nil Histogram ignores observations.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a histogram over the given ascending upper
// bounds. The bounds slice is copied.
func NewHistogram(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		m := h.max.Load()
		if v <= m || h.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// ObserveSince records the nanoseconds elapsed since start.
func (h *Histogram) ObserveSince(start time.Time) {
	if h != nil {
		h.Observe(int64(time.Since(start)))
	}
}

// Reset zeroes the histogram. Observations racing a Reset land before
// or after it.
func (h *Histogram) Reset() {
	if h == nil {
		return
	}
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
}

// Snapshot captures the histogram's current state. Each field is read
// atomically; a snapshot concurrent with Observe may be off by the
// in-flight observation but is never torn within a field.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    h.sum.Load(),
		Max:    h.max.Load(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// HistSnapshot is a point-in-time copy of a Histogram.
type HistSnapshot struct {
	// Bounds are the bucket upper bounds; Counts has one extra
	// trailing entry for the overflow (+Inf) bucket.
	Bounds []int64
	// Counts holds per-bucket observation counts.
	Counts []int64
	// Count is the total number of observations.
	Count int64
	// Sum is the sum of all observed values.
	Sum int64
	// Max is the largest observed value.
	Max int64
}

// Quantile estimates the q-quantile (0..1) as the upper bound of the
// bucket holding it; the overflow bucket reports Max.
func (s HistSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	// Nearest-rank: the smallest bucket whose cumulative count covers
	// ceil(q * N) observations.
	target := int64(q*float64(s.Count) + 0.999999)
	if target < 1 {
		target = 1
	}
	if target > s.Count {
		target = s.Count
	}
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if cum >= target {
			if i < len(s.Bounds) {
				b := s.Bounds[i]
				if b > s.Max {
					return s.Max
				}
				return b
			}
			return s.Max
		}
	}
	return s.Max
}

// DurationBounds is the default latency bucket layout: exponential
// nanosecond bounds from 1µs to ~4s, wide enough for a buffer-pool hit
// and a cold multi-second sweep in the same histogram.
var DurationBounds = []int64{
	int64(1 * time.Microsecond), int64(4 * time.Microsecond),
	int64(16 * time.Microsecond), int64(64 * time.Microsecond),
	int64(256 * time.Microsecond), int64(1 * time.Millisecond),
	int64(4 * time.Millisecond), int64(16 * time.Millisecond),
	int64(64 * time.Millisecond), int64(256 * time.Millisecond),
	int64(1 * time.Second), int64(4 * time.Second),
}

// Sample is one named value in a registry snapshot. Histograms expand
// into several samples (.count, .sum, .max, .p50, .p95, .p99).
type Sample struct {
	// Name is the metric name, dot-separated by convention
	// (e.g. "disk.reads", "wal.commit_ns.p99").
	Name string
	// Value is the sampled value; _ns-suffixed names are nanoseconds.
	Value int64
}

// Registry is a named collection of metrics with a global enable gate.
// Registration takes a lock; recording and snapshotting do not.
type Registry struct {
	enabled atomic.Bool

	mu     sync.Mutex
	names  []string
	byName map[string]any // *Counter | *Histogram | func() int64
}

// NewRegistry creates an enabled registry.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]any)}
	r.enabled.Store(true)
	return r
}

// SetEnabled flips the global recording gate. Disabling does not clear
// existing values; it is a hint call sites read via Enabled to skip
// the work of producing observations.
func (r *Registry) SetEnabled(on bool) {
	if r != nil {
		r.enabled.Store(on)
	}
}

// Enabled reports whether recording is on. A nil registry is off.
func (r *Registry) Enabled() bool { return r != nil && r.enabled.Load() }

// register adds m under name, panicking on duplicates: metric names
// are program constants, so a clash is a programming error.
func (r *Registry) register(name string, m any) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.byName[name]; ok {
		panic("metrics: duplicate metric " + name)
	}
	r.byName[name] = m
	r.names = append(r.names, name)
	sort.Strings(r.names)
}

// Counter registers and returns a new counter under name.
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	r.register(name, c)
	return c
}

// Histogram registers and returns a new histogram under name with the
// given bucket bounds (DurationBounds when bounds is nil).
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if bounds == nil {
		bounds = DurationBounds
	}
	h := NewHistogram(bounds)
	r.register(name, h)
	return h
}

// Func registers a callback metric: fn is invoked at snapshot time,
// so existing subsystem counters (disk, pool, WAL) surface in the
// registry at zero hot-path cost.
func (r *Registry) Func(name string, fn func() int64) {
	r.register(name, fn)
}

// Snapshot returns every sample whose name matches the SQL-LIKE
// pattern ('%' any run, '_' any byte; empty matches all), sorted by
// name. Histogram metrics expand into .count/.sum/.max/.p50/.p95/.p99.
func (r *Registry) Snapshot(pattern string) []Sample {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, len(r.names))
	copy(names, r.names)
	byName := make(map[string]any, len(r.byName))
	for k, v := range r.byName {
		byName[k] = v
	}
	r.mu.Unlock()

	var out []Sample
	add := func(name string, v int64) {
		if Like(name, pattern) {
			out = append(out, Sample{Name: name, Value: v})
		}
	}
	for _, name := range names {
		switch m := byName[name].(type) {
		case *Counter:
			add(name, m.Value())
		case *Histogram:
			s := m.Snapshot()
			add(name+".count", s.Count)
			add(name+".sum", s.Sum)
			add(name+".max", s.Max)
			add(name+".p50", s.Quantile(0.50))
			add(name+".p95", s.Quantile(0.95))
			add(name+".p99", s.Quantile(0.99))
		case func() int64:
			add(name, m())
		}
	}
	return out
}

// Reset zeroes every counter and histogram in the registry.
// Func metrics read live state and are untouched.
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	ms := make([]any, 0, len(r.byName))
	for _, m := range r.byName {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	for _, m := range ms {
		switch m := m.(type) {
		case *Counter:
			m.Reset()
		case *Histogram:
			m.Reset()
		}
	}
}

// Like reports whether name matches a SQL-LIKE pattern: '%' matches
// any run of bytes, '_' any single byte, everything else matches
// case-insensitively. An empty pattern matches everything.
func Like(name, pattern string) bool {
	if pattern == "" {
		return true
	}
	return likeMatch(strings.ToLower(name), strings.ToLower(pattern))
}

// likeMatch is the backtracking matcher behind Like.
func likeMatch(s, p string) bool {
	// Iterative wildcard match: remember the last '%' and retry from
	// there on mismatch.
	si, pi := 0, 0
	star, ss := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star, ss = pi, si
			pi++
		case star >= 0:
			ss++
			si, pi = ss, star+1
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
