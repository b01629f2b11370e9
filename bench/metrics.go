package main

// metricDef is one row of the metric dictionary. The end-to-end rows are
// what BENCHMARK.json lists (bench_test.go keeps the two in step); the
// per-layer rows come from the traced pass and have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // share of the parent's median the metric may worsen by; per-layer rows have none
	How    string  `json:"how"`
}

// endToEnd is every metric a user of the engine would see. Each one is
// defined on all four workloads and is never zero there, because the
// driver compares every (workload, metric) pair as a ratio.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "fixture build (CreateTable, Load, CreateIndex, CreateCM) + server start; the fastest of the run's set-ups, one per round"},
	{"req_per_s", "1/s", "higher", 0.25, "requests completed per second of a slice (one closed-loop connection); at each slice position the fast octile of the rounds, then the median of the positions"},
	{"rows_per_s", "rows/s", "higher", 0.25, "result rows (row_count, or chunk rows when chunked) per second of a slice; folded like req_per_s"},
	{"p50_ms", "ms", "lower", 0.25, "median wire latency of the workload's read statements in a slice; folded like req_per_s"},
	{"slowest_class_p50_ms", "ms", "lower", 0.25, "largest per-class median latency among the workload's statement classes (UPDATE on mixed_rw, the read statement elsewhere); folded like p50_ms"},
	{"mem_mb", "MiB", "lower", 0.05, "live Go heap after runtime.GC() once the fixture is built and the server listens, less the same before; median of the rounds"},
	{"cm_size_ratio", "ratio", "lower", 0.05, "CMInfo.SizeBytes / IndexInfo.SizeBytes on subcat, read when a round ends"},
	{"space_amp", "ratio", "lower", 0.05, "heap pages when a round ends / heap pages after Load"},
	{"virt_io_ms_per_req", "ms", "lower", 0.05, "simulated-disk virtual clock per cold statement, each class's mean weighed by its share of the mix (cold replay: fixed sample, cache dropped before every statement, no real waits) - the paper's y-axis"},
	{"pages_read_per_req", "pages", "lower", 0.05, "disk.reads per cold statement over the same replay, weighed the same way"},
}

// perLayer lists the traced pass's metrics, layer by layer. A layer that
// does no work on a workload reports 0 there.
var perLayer = []metricDef{
	{Name: "server.self_us", Unit: "us", Better: "lower", How: "median over the sample of (wire round trip - in-process facade call)"},
	{Name: "server.bytes_per_row", Unit: "bytes", Better: "lower", How: "response bytes / result rows over the wire pass"},
	{Name: "server.chunks_per_req", Unit: "count", Better: "lower", How: "server.stream_chunks delta / statements"},
	{Name: "server.backpressure_us_per_req", Unit: "us", Better: "lower", How: "server.backpressure_waits_ns delta / statements"},
	{Name: "server.rtt_us.point", Unit: "us", Better: "lower", How: "median unloaded wire round trip of the class's statements (one client)"},
	{Name: "server.rtt_us.scan", Unit: "us", Better: "lower", How: "as above"},
	{Name: "server.rtt_us.agg", Unit: "us", Better: "lower", How: "as above"},
	{Name: "server.rtt_us.update", Unit: "us", Better: "lower", How: "as above"},
	{Name: "server.rtt_us.insert", Unit: "us", Better: "lower", How: "as above"},
	{Name: "server.rtt_p99_us", Unit: "us", Better: "lower", How: "99th percentile of the read statements' unloaded wire round trip over the sample (20 samples beyond it at 2000 statements, 3 at 300); the tail is Go's GC and too unsteady on a shared host to gate end to end"},
	{Name: "sql.parse_us", Unit: "us", Better: "lower", How: "median sql.ParseScript"},
	{Name: "sql.bind_us", Unit: "us", Better: "lower", How: "median DB.PrepareSelect - parse (SELECTs only)"},
	{Name: "plan.compile_us", Unit: "us", Better: "lower", How: "median DB.ExplainSpec (SELECTs only)"},
	{Name: "plan.share.cm_scan", Unit: "ratio", Better: "higher", How: "share of sampled SELECTs the planner answers by cm-scan"},
	{Name: "plan.share.cm_agg", Unit: "ratio", Better: "higher", How: "share answered index-only from the CM"},
	{Name: "plan.share.index", Unit: "ratio", Better: "lower", How: "share answered by a secondary B+Tree scan"},
	{Name: "plan.share.table_scan", Unit: "ratio", Better: "lower", How: "share answered by a table scan"},
	{Name: "costmodel.est_over_actual_p50", Unit: "ratio", Better: "lower", How: "EXPLAIN ANALYZE estimate / measured virtual disk time per cold statement, median (Figure 10)"},
	{Name: "costmodel.est_over_actual_p90", Unit: "ratio", Better: "lower", How: "as above, 90th percentile"},
	{Name: "facade.exec_us", Unit: "us", Better: "lower", How: "median DB.ExecScriptCtx (ExecScriptStreamCtx when chunked)"},
	{Name: "facade.overhead_us", Unit: "us", Better: "lower", How: "median of exec - parse - bind - plan - run per statement"},
	{Name: "exec.run_us", Unit: "us", Better: "lower", How: "median spec-level run - plan.compile_us"},
	{Name: "exec.tuples_per_row", Unit: "ratio", Better: "lower", How: "query.tuples_examined / query.rows_scanned (CM bucket overshoot)"},
	{Name: "exec.heap_pages_per_req", Unit: "pages", Better: "lower", How: "query.heap_pages delta / statements"},
	{Name: "exec.virt_ms.cm_scan", Unit: "ms", Better: "lower", How: "virtual disk ms per cold point probe forced through the method (Figure 6), 20 fixed statements"},
	{Name: "exec.virt_ms.sorted_index", Unit: "ms", Better: "lower", How: "as above"},
	{Name: "exec.virt_ms.pipelined_index", Unit: "ms", Better: "lower", How: "as above"},
	{Name: "exec.virt_ms.table_scan", Unit: "ms", Better: "lower", How: "as above"},
	{Name: "exec.pages.cm_scan", Unit: "pages", Better: "lower", How: "pages read per cold point probe forced through the method"},
	{Name: "exec.pages.sorted_index", Unit: "pages", Better: "lower", How: "as above"},
	{Name: "exec.pages.table_scan", Unit: "pages", Better: "lower", How: "as above"},
	{Name: "core.cm_bytes", Unit: "bytes", Better: "lower", How: "CMInfo.SizeBytes"},
	{Name: "core.cm_keys", Unit: "count", Better: "lower", How: "CMInfo.Keys"},
	{Name: "core.c_per_u", Unit: "ratio", Better: "lower", How: "CMInfo.CPerU"},
	{Name: "core.lookup_ns", Unit: "ns", Better: "lower", How: "standalone core.CM.Lookup over the fixture's (subcat, bucket) pairs"},
	{Name: "btree.index_bytes", Unit: "bytes", Better: "lower", How: "IndexInfo.SizeBytes"},
	{Name: "btree.height", Unit: "count", Better: "lower", How: "IndexInfo.Height"},
	{Name: "btree.seek_ns", Unit: "ns", Better: "lower", How: "standalone btree.SeekGE over a private warm pool"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", How: "pool.hits / (hits + misses) over the wire pass"},
	{Name: "buffer.misses_per_req", Unit: "count", Better: "lower", How: "pool.misses delta / statements"},
	{Name: "buffer.evictions_per_req", Unit: "count", Better: "lower", How: "pool.evictions delta / statements"},
	{Name: "buffer.get_hit_ns", Unit: "ns", Better: "lower", How: "private buffer.Pool Get+Unpin of a resident page"},
	{Name: "buffer.get_miss_ns", Unit: "ns", Better: "lower", How: "private buffer.Pool Get+Unpin of an absent page (sim disk, no waits)"},
	{Name: "sim.reads_per_req", Unit: "count", Better: "lower", How: "disk.reads delta / statements over the wire pass"},
	{Name: "sim.seeks_per_req", Unit: "count", Better: "lower", How: "disk.seeks delta / statements"},
	{Name: "sim.seq_share", Unit: "ratio", Better: "higher", How: "disk.seq_reads / disk.reads"},
	{Name: "sim.virtual_ms_per_req", Unit: "ms", Better: "lower", How: "disk.virtual_ns delta / statements"},
	{Name: "sim.io_wait_ms_per_req", Unit: "ms", Better: "lower", How: "disk.io_wait_ns delta / statements (real sleeps)"},
	{Name: "table.rows_written_per_write", Unit: "count", Better: "lower", How: "table.rows_written delta / UPDATE+INSERT statements"},
	{Name: "table.latch_hold_p99_us", Unit: "us", Better: "lower", How: "table.latch_hold_ns.p99 after the wire pass"},
	{Name: "wal.bytes_per_row", Unit: "bytes", Better: "lower", How: "wal.bytes delta / rows written"},
	{Name: "wal.flushes_per_write", Unit: "count", Better: "lower", How: "wal.flushes delta / UPDATE+INSERT statements"},
	{Name: "wal.flush_p99_us", Unit: "us", Better: "lower", How: "wal.flush_ns.p99 after the wire pass"},
	{Name: "heap.pages_growth", Unit: "pages", Better: "lower", How: "heap pages after the wire pass - before"},
	{Name: "heap.read_p50_drift", Unit: "ratio", Better: "lower", How: "read p50 of the last fifth of the wire pass / of the first fifth"},
	{Name: "loadgen.client_us", Unit: "us", Better: "lower", How: "generator time per statement outside the socket calls"},
	{Name: "loadgen.cpu_ms_per_req", Unit: "ms", Better: "lower", How: "process user+system CPU over the wire pass / statements, generator included"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower", How: "total time of the wire pass with per-statement clock reads vs. a bare replay without, one client"},
}
