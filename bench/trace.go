package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"repro"
	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/keyenc"
	"repro/internal/sim"
	sqlfe "repro/internal/sql"
	"repro/internal/value"
)

// span is one traced interval. Spans are recorded from the benchmark's
// own code, around the calls into each layer; req is the statement's
// index in the sample and parent is the logical enclosing span:
// wire.request > facade.exec > {sql.parse, sql.bind, plan.compile, exec.run}.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"` // ns since the traced pass began
	End    int64  `json:"end"`
	Parent string `json:"parent,omitempty"`
	Req    int    `json:"req"`
}

// tracer runs the traced pass for one workload: one client replays a
// fixed sample in separate passes over the whole sample, so that every
// pass sees the same steady-state cache behaviour (replaying a single
// statement twice would make its second run hit the pool on point_cold).
type tracer struct {
	w      *workload
	opt    *options
	items  []datagen.CorrelatedItem
	sample []stmt
	epoch  time.Time
	spans  []span
	res    *workloadResult
}

// timing is one pass's per-statement interval, ns since the epoch.
type timing struct{ start, end int64 }

func (t timing) us() float64 { return float64(t.end-t.start) / 1e3 }

func (t *tracer) timed(f func()) timing {
	s := time.Since(t.epoch).Nanoseconds()
	f()
	return timing{s, time.Since(t.epoch).Nanoseconds()}
}

// runTraced runs the traced pass for w and adds the per-layer metrics
// to res.
func runTraced(w *workload, opt *options, items []datagen.CorrelatedItem, res *workloadResult) error {
	res.PerLayer = map[string]float64{}
	t := &tracer{w: w, opt: opt, items: items, epoch: time.Now(), res: res}
	rng := rand.New(rand.NewSource(opt.seed))
	for i := 0; i < opt.sample(w.traceSample); i++ {
		t.sample = append(t.sample, w.next(rng, i))
	}
	if err := t.run(); err != nil {
		return err
	}
	for _, d := range perLayer {
		res.PerLayer[d.Name] += 0 // a layer that did no work reports 0, not nothing
	}
	return t.writeSpans()
}

// fixture builds a fresh fixture for one pass. Every pass that executes
// statements gets its own, so the state each pass sees evolves
// identically from the same start, whether or not the workload writes.
func (t *tracer) fixture() (*fixture, error) {
	return buildFixture(t.items, t.w.poolPages, t.w.ioWaitScale)
}

func (t *tracer) run() error {
	n := len(t.sample)
	pl := t.res.PerLayer

	// Pass A, twice: over the wire without any per-statement clock
	// reads, then with them. The difference is what tracing costs.
	bare, err := t.barePass()
	if err != nil {
		return err
	}
	wire, traced, err := t.wirePass()
	if err != nil {
		return err
	}
	t.res.Attempted += int64(2 * n)
	pl["trace.overhead_pct"] = (traced.Seconds()/bare.Seconds() - 1) * 100

	// Pass B: the in-process facade call the server makes.
	facade, facadeSum, err := t.facadePass()
	if err != nil {
		return err
	}

	// Passes C, D, E: parse, prepare (parse + bind), explain (plan
	// compile) — none of them changes the database, so they share the
	// fixture pass F then runs on.
	fx, err := t.fixture()
	if err != nil {
		return err
	}
	defer fx.close()
	parse, prepare, explain := make([]timing, n), make([]timing, n), make([]timing, n)
	for i, s := range t.sample {
		var err error
		parse[i] = t.timed(func() { _, err = sqlfe.ParseScript(s.sql) })
		if err != nil {
			return fmt.Errorf("parse pass: %s: %w", s.sql, err)
		}
	}
	selects := 0
	shares := map[string]float64{}
	for i, s := range t.sample {
		if s.cls.isWrite() {
			continue
		}
		selects++
		var prep *repro.PreparedSelect
		prepare[i] = t.timed(func() { prep = fx.db.PrepareSelect(s.sql) })
		if prep == nil {
			return fmt.Errorf("prepare pass: %s did not bind", s.sql)
		}
	}
	for i, s := range t.sample {
		if s.cls.isWrite() {
			continue
		}
		var info repro.PlanInfo
		var err error
		explain[i] = t.timed(func() { info, err = fx.db.ExplainSpec(s.spec()) })
		if err != nil {
			return fmt.Errorf("explain pass: %s: %w", s.sql, err)
		}
		shares[planPath(info)]++
	}
	for _, path := range []string{"cm_scan", "cm_agg", "index", "table_scan"} {
		if selects > 0 {
			pl["plan.share."+path] = shares[path] / float64(selects)
		}
	}

	// Pass F: the spec-level entry point that matches the SQL path
	// (DB.runSpec): Table.SelectProject for plain SELECTs,
	// DB.SelectAggregateCtx for aggregates, DB.UpdateCtx and
	// Table.Insert for writes. Its rows must equal pass B's.
	t.res.SpecEntry = map[string]string{"point": "Table.SelectProject", "scan": "Table.SelectProject",
		"agg": "DB.SelectAggregateCtx", "update": "DB.UpdateCtx", "insert": "Table.Insert"}
	specRun := make([]timing, n)
	for i, s := range t.sample {
		var out result
		var err error
		specRun[i] = t.timed(func() { out, err = execSpec(fx, s) })
		if err != nil {
			return fmt.Errorf("spec pass: %s: %w", s.sql, err)
		}
		if out.checksum() != facadeSum[i] {
			return fmt.Errorf("oracle: %s: spec-level run and facade run return different rows", s.sql)
		}
	}

	// Self times per statement, reported as medians.
	var self, parseUs, bindUs, planUs, runUs, execUs, overhead []float64
	for i, s := range t.sample {
		p, e := parse[i].us(), explain[i].us()
		bind := 0.0
		if !s.cls.isWrite() {
			bind = prepare[i].us() - p
			bindUs = append(bindUs, bind)
			planUs = append(planUs, e)
		}
		run := specRun[i].us() - e
		self = append(self, wire[i].us()-facade[i].us())
		parseUs = append(parseUs, p)
		runUs = append(runUs, run)
		execUs = append(execUs, facade[i].us())
		overhead = append(overhead, facade[i].us()-p-bind-e-run)

		t.span("wire.request", "", i, wire[i])
		t.span("facade.exec", "wire.request", i, facade[i])
		t.span("sql.parse", "facade.exec", i, parse[i])
		if !s.cls.isWrite() {
			t.span("sql.bind", "facade.exec", i, timing{prepare[i].start + (parse[i].end - parse[i].start), prepare[i].end})
			t.span("plan.compile", "facade.exec", i, explain[i])
		}
		t.span("exec.run", "facade.exec", i, timing{specRun[i].start + (explain[i].end - explain[i].start), specRun[i].end})
	}
	pl["server.self_us"] = median(self)
	pl["sql.parse_us"] = median(parseUs)
	pl["sql.bind_us"] = median(bindUs)
	pl["plan.compile_us"] = median(planUs)
	pl["exec.run_us"] = median(runUs)
	pl["facade.exec_us"] = median(execUs)
	pl["facade.overhead_us"] = median(overhead)
	// Peel consistency: per statement, the peeled layers cannot cost
	// more than the call that contains them. Separate passes on a noisy
	// host can break this by a few microseconds; then the breakdown is
	// not to be trusted, and the result says so.
	if over := pl["facade.overhead_us"]; over < 0 {
		t.res.PeelViolation = fmt.Sprintf("parse+bind+plan+run exceeds facade.exec_us by %.1f us (median per statement; facade.exec_us = %.1f us)", -over, pl["facade.exec_us"])
	}

	info := fx.tbl.CMs()[0]
	pl["core.cm_bytes"], pl["core.cm_keys"], pl["core.c_per_u"] = float64(info.SizeBytes), float64(info.Keys), info.CPerU
	ix := fx.tbl.Indexes()[0]
	pl["btree.index_bytes"], pl["btree.height"] = float64(ix.SizeBytes), float64(ix.Height)

	if err := t.coldColumns(); err != nil {
		return err
	}
	return t.kernels()
}

func (t *tracer) span(name, parent string, req int, tm timing) {
	t.spans = append(t.spans, span{Name: name, Start: tm.start, End: tm.end, Parent: parent, Req: req})
}

// barePass replays the sample over the wire with one client and no
// instrumentation at all, and returns how long the whole replay took.
func (t *tracer) barePass() (time.Duration, error) {
	fx, err := t.fixture()
	if err != nil {
		return 0, err
	}
	defer fx.close()
	c, err := dial(fx.addr, t.w.chunkRows)
	if err != nil {
		return 0, err
	}
	defer c.close()
	start := time.Now()
	for _, s := range t.sample {
		rep, err := c.do(s.sql)
		if err == nil && rep.err != "" {
			err = errors.New(rep.err)
		}
		if err != nil {
			return 0, fmt.Errorf("wire pass: %s: %w", s.sql, err)
		}
	}
	return time.Since(start), nil
}

// wirePass is the traced twin of barePass: it times every statement,
// returns the timings and the replay's total time, and stores the layer
// counters' deltas across the pass (taken outside the timed calls) as
// per-layer metrics.
func (t *tracer) wirePass() ([]timing, time.Duration, error) {
	fx, err := t.fixture()
	if err != nil {
		return nil, 0, err
	}
	defer fx.close()
	c, err := dial(fx.addr, t.w.chunkRows)
	if err != nil {
		return nil, 0, err
	}
	defer c.close()

	names := []string{"server.stream_chunks", "server.backpressure_waits_ns", "query.tuples_examined", "query.rows_scanned",
		"query.heap_pages", "pool.hits", "pool.misses", "pool.evictions", "disk.reads", "disk.seq_reads", "disk.seeks",
		"disk.virtual_ns", "disk.io_wait_ns", "table.rows_written", "wal.bytes", "wal.flushes"}
	fx.db.ResetMetrics() // the histograms read after the pass then hold only the pass
	before := map[string]float64{}
	for _, name := range names {
		before[name] = fx.metric(name)
	}
	pages0, bytes0 := fx.tbl.HeapPages(), c.bytesIn

	n := len(t.sample)
	out := make([]timing, n)
	var rows, writes int
	loopStart, cpu0 := time.Now(), cpuSeconds()
	var socket time.Duration
	for i, s := range t.sample {
		var rep reply
		var err error
		out[i] = t.timed(func() { rep, err = c.do(s.sql) })
		socket += time.Duration(out[i].end - out[i].start)
		if err == nil && rep.err != "" {
			err = errors.New(rep.err)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("wire pass: %s: %w", s.sql, err)
		}
		rows += rep.rows
		if s.cls.isWrite() {
			writes++
		}
	}
	total, cpu := time.Since(loopStart), cpuSeconds()-cpu0

	d := func(name string) float64 { return fx.metric(name) - before[name] }
	per := func(v float64, by int) float64 {
		if by == 0 {
			return 0
		}
		return v / float64(by)
	}
	m := map[string]float64{
		"loadgen.client_us":              per(float64(total-socket)/1e3, n),
		"loadgen.cpu_ms_per_req":         per(cpu*1e3, n),
		"server.bytes_per_row":           per(float64(c.bytesIn-bytes0), rows),
		"server.chunks_per_req":          per(d("server.stream_chunks"), n),
		"server.backpressure_us_per_req": per(d("server.backpressure_waits_ns")/1e3, n),
		"exec.heap_pages_per_req":        per(d("query.heap_pages"), n),
		"buffer.misses_per_req":          per(d("pool.misses"), n),
		"buffer.evictions_per_req":       per(d("pool.evictions"), n),
		"sim.reads_per_req":              per(d("disk.reads"), n),
		"sim.seeks_per_req":              per(d("disk.seeks"), n),
		"sim.virtual_ms_per_req":         per(d("disk.virtual_ns")/1e6, n),
		"sim.io_wait_ms_per_req":         per(d("disk.io_wait_ns")/1e6, n),
		"table.rows_written_per_write":   per(d("table.rows_written"), writes),
		"wal.flushes_per_write":          per(d("wal.flushes"), writes),
		"table.latch_hold_p99_us":        fx.metric("table.latch_hold_ns.p99") / 1e3,
		"wal.flush_p99_us":               fx.metric("wal.flush_ns.p99") / 1e3,
		"heap.pages_growth":              float64(fx.tbl.HeapPages() - pages0),
	}
	if v := d("query.rows_scanned"); v > 0 {
		m["exec.tuples_per_row"] = d("query.tuples_examined") / v
	}
	if v := d("pool.hits") + d("pool.misses"); v > 0 {
		m["buffer.hit_ratio"] = d("pool.hits") / v
	}
	if v := d("disk.reads"); v > 0 {
		m["sim.seq_share"] = d("disk.seq_reads") / v
	}
	if v := d("table.rows_written"); v > 0 {
		m["wal.bytes_per_row"] = d("wal.bytes") / v
	}
	var rtt [nClass][]float64
	var head, tail, reads []float64
	for i, s := range t.sample {
		rtt[s.cls] = append(rtt[s.cls], out[i].us())
		if s.cls.isRead() {
			reads = append(reads, out[i].us())
			switch {
			case i < n/5:
				head = append(head, out[i].us())
			case i >= n-n/5:
				tail = append(tail, out[i].us())
			}
		}
	}
	for cls := class(0); cls < nClass; cls++ {
		m["server.rtt_us."+classNames[cls]] = median(rtt[cls])
	}
	sort.Float64s(reads)
	m["server.rtt_p99_us"] = quantile(reads, 0.99)
	if h := median(head); h > 0 {
		m["heap.read_p50_drift"] = median(tail) / h
	}
	for k, v := range m {
		t.res.PerLayer[k] = v
	}
	return out, total, nil
}

// facadePass times the in-process call the server makes for each
// statement and keeps a checksum of what it returned.
func (t *tracer) facadePass() ([]timing, []uint64, error) {
	fx, err := t.fixture()
	if err != nil {
		return nil, nil, err
	}
	defer fx.close()
	times, sums := make([]timing, len(t.sample)), make([]uint64, len(t.sample))
	for i, s := range t.sample {
		var out result
		var err error
		times[i] = t.timed(func() { out, err = execSQL(fx.db, s.sql, t.w.chunkRows > 0) })
		if err != nil {
			return nil, nil, fmt.Errorf("facade pass: %s: %w", s.sql, err)
		}
		sums[i] = out.checksum()
	}
	return times, sums, nil
}

// result is what one in-process statement returned: its rows, kept as
// the engine handed them over, or the affected count of a write.
type result struct {
	rows     []repro.Row
	affected int64
}

// checksum folds the result into an order-free sum, outside the timed call.
func (r result) checksum() uint64 {
	sum := uint64(r.affected)
	for _, row := range r.rows {
		h := fnv.New64a()
		for _, v := range row {
			h.Write([]byte(v.String()))
			h.Write([]byte{0})
		}
		sum += h.Sum64()
	}
	return sum
}

// execSQL runs one statement through the facade entry the server uses:
// ExecScriptStreamCtx for a chunked session, ExecScriptCtx otherwise.
func execSQL(db *repro.DB, sql string, stream bool) (result, error) {
	var out result
	var res []repro.ScriptResult
	var err error
	if stream {
		res, err = db.ExecScriptStreamCtx(context.Background(), sql, repro.RowStreamer{
			Row: func(_ int, r repro.Row) bool { out.rows = append(out.rows, r); return true },
		})
	} else {
		res, err = db.ExecScriptCtx(context.Background(), sql)
	}
	if err != nil {
		return out, err
	}
	if len(res) != 1 {
		return out, fmt.Errorf("%d results, want 1", len(res))
	}
	if res[0].Err != nil {
		return out, res[0].Err
	}
	if !stream {
		out.rows = res[0].Res.Rows
	}
	out.affected = int64(res[0].Res.Affected)
	return out, nil
}

// execSpec runs one statement through the spec-level entry point.
func execSpec(fx *fixture, s stmt) (result, error) {
	var out result
	var err error
	switch s.cls {
	case clsAgg:
		_, out.rows, err = fx.db.SelectAggregateCtx(context.Background(), s.spec())
	case clsUpdate:
		out.affected, err = fx.db.UpdateCtx(context.Background(), "items",
			[]repro.Set{{Col: "price", Val: repro.IntVal(s.price)}}, repro.Eq("cat", repro.IntVal(s.key)))
	case clsInsert:
		out.affected = 1
		err = fx.tbl.Insert(repro.Row{repro.IntVal(s.key), repro.IntVal(s.key / 8), repro.IntVal(s.price), repro.StringVal("new")})
	default:
		q := s.spec()
		err = fx.tbl.SelectProject(q.Cols, func(r repro.Row) bool { out.rows = append(out.rows, r); return true }, q.Preds...)
	}
	return out, err
}

// planPath names the access path a plan chose.
func planPath(info repro.PlanInfo) string {
	if len(info.Nodes) > 0 && info.Nodes[0].Kind == "cm-agg" {
		return "cm_agg"
	}
	switch info.Method {
	case repro.CMScan:
		return "cm_scan"
	case repro.SortedIndexScan, repro.PipelinedIndexScan:
		return "index"
	}
	return "table_scan"
}

// coldColumns measures what only the virtual disk clock can show, on a
// twin fixture without real waits (the clock advances the same either
// way): the cost model's estimate against the measured virtual time per
// cold statement (Figure 10), and the Figure 6 comparison of one point
// probe forced through each access method.
func (t *tracer) coldColumns() error {
	twin, err := buildFixture(t.items, t.w.poolPages, 0)
	if err != nil {
		return err
	}
	defer twin.close()
	pl := t.res.PerLayer

	var ratios []float64
	for _, s := range t.sample {
		if len(ratios) == 40 {
			break
		}
		if s.cls.isWrite() {
			continue
		}
		if err := twin.db.ColdCache(); err != nil {
			return err
		}
		v0 := twin.db.Stats().Elapsed
		info, err := twin.db.ExplainAnalyzeSpec(s.spec())
		if err != nil {
			return fmt.Errorf("explain analyze: %s: %w", s.sql, err)
		}
		if actual := twin.db.Stats().Elapsed - v0; actual > 0 && info.EstimatedCost > 0 {
			ratios = append(ratios, float64(info.EstimatedCost)/float64(actual))
		}
	}
	sort.Float64s(ratios)
	pl["costmodel.est_over_actual_p50"] = quantile(ratios, 0.5)
	pl["costmodel.est_over_actual_p90"] = quantile(ratios, 0.9)

	methods := []struct {
		name string
		via  repro.AccessMethod
	}{{"cm_scan", repro.CMScan}, {"sorted_index", repro.SortedIndexScan}, {"pipelined_index", repro.PipelinedIndexScan}, {"table_scan", repro.TableScan}}
	const probes = 20
	for _, m := range methods {
		var virt time.Duration
		var pages uint64
		for i := 0; i < probes; i++ {
			if err := twin.db.ColdCache(); err != nil {
				return err
			}
			s0 := twin.db.Stats()
			k := int64(i * datagen.CorrelatedSubcats / probes)
			err := twin.tbl.SelectProjectVia(m.via, []string{"price"}, func(repro.Row) bool { return true }, repro.Eq("subcat", repro.IntVal(k)))
			if err != nil {
				return fmt.Errorf("forced %s: %w", m.name, err)
			}
			s1 := twin.db.Stats()
			virt += s1.Elapsed - s0.Elapsed
			pages += s1.Reads - s0.Reads
		}
		pl["exec.virt_ms."+m.name] = float64(virt) / 1e6 / probes
		if m.name != "pipelined_index" {
			pl["exec.pages."+m.name] = float64(pages) / probes
		}
	}
	return nil
}

// kernels times three layers on their own, outside the engine: a
// core.CM lookup, a B+Tree seek over a private warm pool, and a buffer
// pool Get that hits and one that misses (sim disk, no waits).
func (t *tracer) kernels() error {
	pl := t.res.PerLayer
	const iters = 20000

	// The CM the fixture would hold: rows in clustered order, one bucket
	// per 45 rows (about a heap page).
	sorted := append([]datagen.CorrelatedItem(nil), t.items...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cat < sorted[j].Cat })
	cm := core.New(core.Spec{Name: "kernel", UCols: []int{1}})
	for i, it := range sorted {
		cm.AddRow(value.Row{value.NewInt(it.Cat), value.NewInt(it.Subcat)}, int32(i/45))
	}
	found := 0
	start := time.Now()
	for i := 0; i < iters; i++ {
		found += len(cm.Lookup(value.NewInt(int64(i % datagen.CorrelatedSubcats))))
	}
	pl["core.lookup_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	if found == 0 {
		return errors.New("kernel: CM lookups found nothing")
	}

	pool := buffer.NewPool(sim.NewDisk(sim.DefaultConfig()), 1024)
	tree, err := btree.New(pool)
	if err != nil {
		return err
	}
	for i, it := range t.items {
		key := keyenc.EncodeValues(value.NewInt(it.Subcat), value.NewInt(int64(i)))
		if err := tree.Insert(key, []byte{0}); err != nil {
			return err
		}
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		it, err := tree.SeekGE(keyenc.EncodeValues(value.NewInt(int64(i % datagen.CorrelatedSubcats))))
		if err != nil || !it.Valid() {
			return fmt.Errorf("kernel: btree seek %d: valid=%v err=%v", i, it != nil && it.Valid(), err)
		}
	}
	pl["btree.seek_ns"] = float64(time.Since(start).Nanoseconds()) / iters

	disk := sim.NewDisk(sim.DefaultConfig())
	file := disk.CreateFile()
	const filePages = 4096
	for i := 0; i < filePages; i++ {
		disk.AllocPage(file)
	}
	small := buffer.NewPool(disk, 64)
	get := func(page int64) error {
		fr, err := small.Get(file, page)
		if err == nil {
			small.Unpin(fr, false)
		}
		return err
	}
	if err := get(0); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < iters; i++ {
		if err := get(0); err != nil {
			return err
		}
	}
	pl["buffer.get_hit_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	start = time.Now()
	for i := 0; i < iters; i++ {
		// Stride through a file 64x the pool: every Get misses.
		if err := get(int64(1 + i*67%(filePages-1))); err != nil {
			return err
		}
	}
	pl["buffer.get_miss_ns"] = float64(time.Since(start).Nanoseconds()) / iters
	return nil
}

// writeSpans writes the traced pass's spans to <out>/trace-<workload>.json.
func (t *tracer) writeSpans() error {
	if err := os.MkdirAll(t.opt.out, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(t.opt.out, "trace-"+t.w.name+".json"), b, 0o644)
}
