package repro

import (
	"fmt"
	"sort"

	"repro/internal/exec"
	"repro/internal/metrics"
	"repro/internal/table"
)

// This file wires the DB onto internal/metrics: one registry per DB
// exposing every layer's counters under stable dotted names. Storage
// and WAL counters were already maintained by their layers, so they
// surface as zero-cost func metrics read at snapshot time; only the
// query-scan observer and the latency histograms add work to hot
// paths, and those are gated by SetMetricsEnabled (an uncontended
// counter update costs about one atomic add; disabled costs nothing).
//
// The metric vocabulary (all values int64; durations in nanoseconds
// under *_ns names; histograms expand to .count/.sum/.max/.p50/.p95/
// .p99):
//
//   - disk.*: simulated-disk page traffic — reads, writes, their
//     sequential/random split (seq_reads, rand_reads, seq_writes,
//     rand_writes), seeks, syncs, the virtual clock (virtual_ns), real
//     I/O wait slept under IOWaitScale (io_wait_ns) and read-ahead
//     stream churn (stream_starts, stream_evictions, active_streams).
//   - pool.*: buffer-pool totals (hits, misses, evictions,
//     dirty_writes) plus the same counters per shard (pool.shard3.hits),
//     and pool.frame_bytes, the page buffers the frames hold — frames
//     get theirs on first use, so it follows the pages touched, up to
//     the pool's capacity.
//   - wal.*: appends, flushes, bytes, and the wal.flush_ns histogram
//     of commit-flush wall times.
//   - table.*: MVCC write-path totals — publishes, aborts,
//     rows_written, and table.latch_hold_ns, the histogram of
//     exclusive-latch hold times per write batch — and
//     table.directory_bytes, the in-memory footprint of every table's
//     clustered bucket directory (lower-bound keys plus the bucket→page
//     lists CM probes resolve through), and table.version_bytes, the
//     memory every table's heap MVCC versions take (a page no write has
//     touched since its bulk load keeps one page-level version; a
//     written page one 16-byte version per slot). Heap reclamation,
//     summed over tables: table.dead_versions (old row versions awaiting reuse —
//     dead in the heap and not yet pruned, plus those queued behind a
//     pinned snapshot), table.reclaimed_versions (running total of dead
//     versions whose slot and bytes were taken back) and
//     table.oldest_pin_age (commits the oldest pinned snapshot lags the
//     published clock; 0 without pins). table.rows_since_pair_stats is
//     the planner's staleness: the most row versions (counted as
//     rows_written counts them) any one table has written since its
//     stalest secondary index's pair statistics were counted, by
//     CreateIndex or a bulk load. Nothing maintains them in between.
//   - cm.<name>.pages_swept / cm.<name>.false_positive_pages: per
//     correlation map, the heap pages its cm-scans visited and how many
//     of those held no tuple that survived the re-filter — the paper's
//     own health signal for a CM (a growing share means the soft
//     functional dependency has weakened). Counted while metrics are
//     enabled; read off the CMs at snapshot time, since CMs come and go.
//   - query.*: scan-level physical work — tuples_examined (tuples the
//     compiled filter evaluated), rows_scanned (survivors emitted),
//     heap_pages (heap page visits), empty_pages (visits on which no
//     tuple survived the filter), sweeps and sweep_chunks (page sweeps
//     run, and the chunks of those that fanned out) — query.latency_ns,
//     the per-statement wall-time histogram, and the fault-tolerance
//     outcomes query.cancelled (statements ended by context
//     cancellation) and query.timed_out (by statement deadline).
//   - server.*: owned and documented by internal/server, which
//     registers its counters here through MetricCounter.
//   - disk.injected_faults: faults fired by the active sim.FaultPlan.
type Metric struct {
	Name  string
	Value int64
}

// initMetrics builds the DB's registry. Called once from Open after
// the storage stack exists.
func (db *DB) initMetrics() {
	r := metrics.NewRegistry()
	db.reg = r
	db.scanObs = &exec.ScanObs{}
	db.queryHist = r.Histogram("query.latency_ns", metrics.DurationBounds)

	r.Func("disk.reads", func() int64 { return int64(db.disk.Stats().Reads) })
	r.Func("disk.writes", func() int64 { return int64(db.disk.Stats().Writes) })
	r.Func("disk.seq_reads", func() int64 { return int64(db.disk.Stats().SeqReads) })
	r.Func("disk.rand_reads", func() int64 { return int64(db.disk.Stats().RandReads) })
	r.Func("disk.seq_writes", func() int64 { return int64(db.disk.Stats().SeqWrites) })
	r.Func("disk.rand_writes", func() int64 { return int64(db.disk.Stats().RandWrites) })
	r.Func("disk.seeks", func() int64 { return int64(db.disk.Stats().Seeks()) })
	r.Func("disk.syncs", func() int64 { return int64(db.disk.Stats().Syncs) })
	r.Func("disk.virtual_ns", func() int64 { return int64(db.disk.Stats().Elapsed) })
	r.Func("disk.io_wait_ns", func() int64 { return int64(db.disk.Stats().IOWait) })
	r.Func("disk.stream_starts", func() int64 { return int64(db.disk.Stats().StreamStarts) })
	r.Func("disk.stream_evictions", func() int64 { return int64(db.disk.Stats().StreamEvictions) })
	r.Func("disk.active_streams", func() int64 { return int64(db.disk.Stats().ActiveStreams) })
	r.Func("disk.injected_faults", func() int64 { return int64(db.disk.Stats().InjectedFaults) })

	r.Func("pool.hits", func() int64 { return int64(db.pool.Stats().Hits) })
	r.Func("pool.misses", func() int64 { return int64(db.pool.Stats().Misses) })
	r.Func("pool.evictions", func() int64 { return int64(db.pool.Stats().Evictions) })
	r.Func("pool.dirty_writes", func() int64 { return int64(db.pool.Stats().DirtyWrites) })
	r.Func("pool.frame_bytes", db.pool.FrameBytes)
	for i := 0; i < db.pool.Shards(); i++ {
		shard := i
		prefix := fmt.Sprintf("pool.shard%d.", shard)
		r.Func(prefix+"hits", func() int64 { return int64(db.pool.ShardStats()[shard].Hits) })
		r.Func(prefix+"misses", func() int64 { return int64(db.pool.ShardStats()[shard].Misses) })
		r.Func(prefix+"evictions", func() int64 { return int64(db.pool.ShardStats()[shard].Evictions) })
		r.Func(prefix+"dirty_writes", func() int64 { return int64(db.pool.ShardStats()[shard].DirtyWrites) })
	}

	r.Func("wal.appends", func() int64 { return int64(db.log.Appends()) })
	r.Func("wal.flushes", func() int64 { return int64(db.log.Flushes()) })
	r.Func("wal.bytes", func() int64 { return db.log.Len() })
	db.log.SetFlushHistogram(r.Histogram("wal.flush_ns", metrics.DurationBounds))

	db.writeObs = &table.WriteObs{
		Publishes: r.Counter("table.publishes"),
		Aborts:    r.Counter("table.aborts"),
		Rows:      r.Counter("table.rows_written"),
		LatchHold: r.Histogram("table.latch_hold_ns", metrics.DurationBounds),
	}

	r.Func("query.tuples_examined", func() int64 { return db.scanObs.Tuples.Load() })
	r.Func("query.rows_scanned", func() int64 { return db.scanObs.Rows.Load() })
	r.Func("query.heap_pages", func() int64 { return db.scanObs.Pages.Load() })
	r.Func("query.empty_pages", func() int64 { return db.scanObs.EmptyPages.Load() })
	r.Func("query.sweeps", func() int64 { return db.scanObs.Sweeps.Load() })
	r.Func("query.sweep_chunks", func() int64 { return db.scanObs.Chunks.Load() })

	r.Func("table.directory_bytes", func() int64 {
		var n int64
		for _, t := range db.allTables() {
			t.inner.RLock()
			n += t.inner.DirectorySizeBytes()
			t.inner.RUnlock()
		}
		return n
	})

	// Heap reclamation, read under each table's shared latch.
	perTable := func(fn func(t *table.Table) int64) func() int64 {
		return func() int64 {
			var n int64
			for _, t := range db.allTables() {
				t.inner.RLock()
				n += fn(t.inner)
				t.inner.RUnlock()
			}
			return n
		}
	}
	r.Func("table.version_bytes", perTable(func(t *table.Table) int64 { return t.Heap().VersionBytes() }))
	r.Func("table.dead_versions", perTable((*table.Table).DeadVersions))
	r.Func("table.reclaimed_versions", perTable(func(t *table.Table) int64 { return t.Heap().ReclaimedVersions() }))
	r.Func("table.oldest_pin_age", func() int64 {
		var age int64
		for _, t := range db.allTables() {
			age = max(age, t.inner.OldestPinAge())
		}
		return age
	})
	r.Func("table.rows_since_pair_stats", func() int64 {
		var gap int64
		for _, t := range db.allTables() {
			t.inner.RLock()
			gap = max(gap, t.inner.RowsSincePairStats())
			t.inner.RUnlock()
		}
		return gap
	})

	// Fault-tolerance counters: statements ended by cancellation or
	// deadline. They count regardless of SetMetricsEnabled — these are
	// rare events on error paths, not hot-path instrumentation.
	db.qCancelled = r.Counter("query.cancelled")
	db.qTimedOut = r.Counter("query.timed_out")
}

// MetricCounter returns the counter registered under name in the DB's
// metric registry, registering it on first use: how a layer above the
// engine — internal/server, with its server.* counters — owns what it
// counts and still has SHOW METRICS, Metrics and ResetMetrics cover it.
// Every caller naming the same counter shares it, so two servers over
// one DB add into one server.rejected. Such counters record regardless
// of SetMetricsEnabled.
func (db *DB) MetricCounter(name string) *metrics.Counter {
	db.mu.Lock()
	defer db.mu.Unlock()
	c := db.shared[name]
	if c == nil {
		c = db.reg.Counter(name)
		db.shared[name] = c
	}
	return c
}

// metricsOn reports whether hot-path instrumentation should record.
func (db *DB) metricsOn() bool { return db.reg.Enabled() }

// obs returns the engine-wide scan observer a statement counts its
// physical work into, or nil while metrics are disabled.
func (db *DB) obs() *exec.ScanObs {
	if !db.metricsOn() {
		return nil
	}
	return db.scanObs
}

// SetMetricsEnabled turns hot-path metrics collection on or off
// (default on). Disabling detaches the scan observer and latency
// histograms from the query path, so a hot scan pays nothing; the
// storage-layer counters (disk, pool, WAL, write path) are maintained
// by their layers regardless and keep reporting.
func (db *DB) SetMetricsEnabled(on bool) { db.reg.SetEnabled(on) }

// Metrics snapshots every metric whose name matches the SQL-LIKE
// pattern ('%' matches any run, '_' any byte, "" matches all), sorted
// by name — the engine behind SHOW METRICS and the server's
// /debug/metrics endpoint.
func (db *DB) Metrics(pattern string) []Metric {
	// The per-CM gauges are named after CMs, which are created, recovered
	// and dropped with their tables, so they are read off the live CMs
	// here instead of being registered.
	perCM := map[string]int64{}
	for _, t := range db.allTables() {
		t.inner.RLock()
		for _, cm := range t.inner.CMs() {
			prefix := "cm." + cm.Spec().Name
			perCM[prefix+".pages_swept"] += cm.PagesSwept()
			perCM[prefix+".false_positive_pages"] += cm.FalsePositivePages()
		}
		t.inner.RUnlock()
	}
	var extra []Metric
	for name, v := range perCM {
		if metrics.Like(name, pattern) {
			extra = append(extra, Metric{Name: name, Value: v})
		}
	}
	sort.Slice(extra, func(i, j int) bool { return extra[i].Name < extra[j].Name })

	// Merge them into the registry's snapshot, which is already in name
	// order.
	samples := db.reg.Snapshot(pattern)
	out := make([]Metric, 0, len(samples)+len(extra))
	for _, s := range samples {
		for len(extra) > 0 && extra[0].Name < s.Name {
			out = append(out, extra[0])
			extra = extra[1:]
		}
		out = append(out, Metric{Name: s.Name, Value: s.Value})
	}
	return append(out, extra...)
}

// ResetMetrics zeroes the registry's own counters and histograms
// (query latency, WAL flush times, write-path totals) and the query
// scan observer. Func-backed storage counters reset through
// ResetStats instead; the per-CM sweep gauges belong to their CMs and
// run for the CM's lifetime.
func (db *DB) ResetMetrics() {
	db.reg.Reset()
	db.scanObs.Tuples.Store(0)
	db.scanObs.Rows.Store(0)
	db.scanObs.Pages.Store(0)
	db.scanObs.EmptyPages.Store(0)
	db.scanObs.Sweeps.Store(0)
	db.scanObs.Chunks.Store(0)
}
