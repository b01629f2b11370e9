package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/datagen"
)

// stat is a reported value: the median of its N samples (slice
// positions, rounds) with their range beside it.
type stat struct {
	Value float64 `json:"value"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func single(v float64) stat { return stat{Value: v, Min: v, Max: v, N: 1} }

func medianOf(vs []float64) stat {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return stat{Value: quantile(s, 0.5), Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// quantile reads the q-quantile of an ascending slice (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(len(sorted)-1, int(q*float64(len(sorted))))]
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	return medianOf(vs).Value
}

// rowCounts is what the timed loop checks replies against: the table's
// current rows per subcat and per cat, counted from the generated rows
// and kept up to date with the INSERTs the loop itself issued.
type rowCounts struct {
	sub [datagen.CorrelatedSubcats]int
	cat [datagen.CorrelatedCats]int
}

func countRows(items []datagen.CorrelatedItem) *rowCounts {
	n := &rowCounts{}
	for _, it := range items {
		n.sub[it.Subcat]++
		n.cat[it.Cat]++
	}
	return n
}

// generator is the closed-loop client: it draws statements from the
// seeded stream, waits for each reply and checks it.
type generator struct {
	w      *workload
	rng    *rand.Rand
	c      *client
	counts *rowCounts
	writes []stmt // acknowledged writes, replayed into the model afterwards

	lat       [nClass][]float64 // ms, this slice
	rows      int64             // this slice
	attempted int64
	failed    int64
	firstErr  error
}

func newGenerator(w *workload, seed int64, c *client, counts *rowCounts) *generator {
	return &generator{w: w, c: c, counts: counts, rng: rand.New(rand.NewSource(seed))}
}

// step issues one request. It returns false when the connection broke.
func (g *generator) step() bool {
	s := g.w.next(g.rng, int(g.attempted))
	g.attempted++
	start := time.Now()
	rep, err := g.c.do(s.sql)
	ms := float64(time.Since(start)) / 1e6
	if err != nil {
		g.fail(fmt.Errorf("%s: %w", s.sql, err))
		return false
	}
	g.lat[s.cls] = append(g.lat[s.cls], ms)
	g.rows += int64(rep.rows)
	if rep.err != "" {
		g.fail(fmt.Errorf("%s: engine error: %s", s.sql, rep.err))
		return true
	}
	got, want := rep.rows, 0
	switch s.cls {
	case clsPoint:
		want = g.counts.sub[s.key]
	case clsScan:
		for _, n := range g.counts.cat[s.key : s.key+scanSpan] {
			want += n
		}
	case clsAgg:
		want = 1
	case clsUpdate:
		got, want = rep.affected, g.counts.cat[s.key]
	case clsInsert:
		got, want = rep.affected, 1
		g.counts.cat[s.key]++
		g.counts.sub[s.key/8]++
	}
	if got != want {
		g.fail(fmt.Errorf("%s: reply counts %d, expected %d", s.sql, got, want))
	}
	if s.cls.isWrite() {
		g.writes = append(g.writes, s)
	}
	return true
}

func (g *generator) fail(err error) {
	g.failed++
	if g.firstErr == nil {
		g.firstErr = err
	}
}

// sliceStat is one measured window of one workload.
type sliceStat struct {
	reqPerS, rowsPerS, cpuMsPerReq float64
	p50                            [nClass]float64 // ms; 0 where the class has no samples
}

// runner measures one workload without tracing.
type runner struct {
	w     *workload
	opt   *options
	items []datagen.CorrelatedItem

	coldVirtMs, coldPages float64
	setupS, memMiB        []float64     // per round
	readP99               []float64     // ms per round, over the round's read statements
	minReads              int           // fewest read statements of a round
	slices                [][]sliceStat // [round][position in the round]
	spaceAmp, cmSizeRatio float64       // when a round ends; the same every round
	attempted, failed     int64
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// coldReplay is the correctness oracle and the cold I/O measurement in
// one. On a twin fixture without real waits one client replays a fixed
// sample of the workload's stream, the first half over buffered
// responses and the second half over chunked ones; every reply is
// decoded and compared with the naive model. The cache is dropped before
// every statement, as the paper does between the queries of Figure 6, so
// the disk counters across the replay are the mean cost of a cold
// statement — the paper's y-axis. (Dropping it once would make the warm
// workloads' number depend on the order the sample first touches each
// page.) One client and no timers: the counts repeat exactly for a seed.
func (r *runner) coldReplay() error {
	twin, err := buildFixture(r.items, r.w.poolPages, 0)
	if err != nil {
		return err
	}
	defer twin.close()
	buffered, err := dial(twin.addr, 0)
	if err != nil {
		return err
	}
	defer buffered.close()
	chunked, err := dial(twin.addr, max(r.w.chunkRows, 64))
	if err != nil {
		return err
	}
	defer chunked.close()
	buffered.keepRows, chunked.keepRows = true, true

	n := r.opt.sample(r.w.coldSample)
	m := newModel(r.items)
	rng := rand.New(rand.NewSource(r.opt.seed))
	var pages, virt, count [nClass]float64
	for i := 0; i < n; i++ {
		if err := twin.db.ColdCache(); err != nil {
			return err
		}
		c := buffered
		if i >= n/2 {
			c = chunked
		}
		s := r.w.next(rng, i)
		s0 := twin.db.Stats()
		rep, err := c.do(s.sql)
		if err != nil {
			return fmt.Errorf("%s: %w", s.sql, err)
		}
		s1 := twin.db.Stats()
		pages[s.cls] += float64(s1.Reads - s0.Reads)
		virt[s.cls] += float64(s1.Elapsed-s0.Elapsed) / 1e6
		count[s.cls]++
		if err := check(s, rep, m.apply(s)); err != nil {
			return err
		}
	}
	// Weigh each class's mean by its share of the mix, not by how often
	// the sample happened to draw it: a cold UPDATE reads the whole heap,
	// so the raw mean would mostly count UPDATEs.
	for cls, share := range r.w.mix {
		if count[cls] > 0 {
			r.coldPages += float64(share) / 100 * pages[cls] / count[cls]
			r.coldVirtMs += float64(share) / 100 * virt[cls] / count[cls]
		}
	}
	if r.w.reqPerSec > 0 {
		return checkTable(buffered, m)
	}
	return nil
}

// drive runs the client for one window: seconds of wall time, or the
// workload's fixed request count for that many seconds.
func (r *runner) drive(g *generator, seconds float64) time.Duration {
	start := time.Now()
	if r.w.reqPerSec > 0 {
		for n := int(float64(r.w.reqPerSec) * seconds); n > 0 && g.step(); n-- {
		}
		return time.Since(start)
	}
	for deadline := start.Add(time.Duration(seconds * float64(time.Second))); time.Now().Before(deadline) && g.step(); {
	}
	return time.Since(start)
}

// slice measures one short window of a round and adds the window's read
// latencies to reads.
func (r *runner) slice(g *generator, seconds float64, reads *[]float64) sliceStat {
	g.lat, g.rows = [nClass][]float64{}, 0
	cpu0 := cpuSeconds()
	elapsed := r.drive(g, seconds).Seconds()
	cpu := cpuSeconds() - cpu0
	var ss sliceStat
	reqs := 0
	for cls := class(0); cls < nClass; cls++ {
		lat := g.lat[cls]
		if len(lat) == 0 {
			continue
		}
		reqs += len(lat)
		sort.Float64s(lat)
		ss.p50[cls] = quantile(lat, 0.5)
		if cls.isRead() {
			*reads = append(*reads, lat...)
		}
	}
	if reqs > 0 {
		ss.reqPerS = float64(reqs) / elapsed
		ss.rowsPerS = float64(g.rows) / elapsed
		ss.cpuMsPerReq = cpu * 1e3 / float64(reqs)
	}
	return ss
}

// round measures one round on a fixture of its own: set-up (timed, for
// setup_s), a warm-up, then the workload's slices back to back. On a
// workload that writes every round replays the same statement stream
// from the same start, so the slice at one position does the same work
// in every round: on mixed_rw a point read is twice as slow after 40 000
// requests of heap growth as after none, and slices of one long run
// could not be compared with each other.
func (r *runner) round() error {
	before := liveHeapMiB()
	start := time.Now()
	fx, err := buildFixture(r.items, r.w.poolPages, r.w.ioWaitScale)
	if err != nil {
		return err
	}
	defer fx.close()
	r.setupS = append(r.setupS, time.Since(start).Seconds())
	r.memMiB = append(r.memMiB, liveHeapMiB()-before)
	startPages := fx.tbl.HeapPages()

	c, err := dial(fx.addr, r.w.chunkRows)
	if err != nil {
		return err
	}
	defer c.close()
	seed := r.opt.seed
	if r.w.reqPerSec == 0 {
		// Nothing here depends on what came before, so a round may as
		// well see statements the others have not.
		seed += 7919 * int64(len(r.slices))
	}
	g := newGenerator(r.w, seed, c, countRows(r.items))
	r.drive(g, r.opt.warmup)
	slices := make([]sliceStat, r.w.slices)
	var reads []float64
	for i := range slices {
		slices[i] = r.slice(g, r.opt.seconds/float64(r.opt.rounds*r.w.slices), &reads)
	}
	r.slices = append(r.slices, slices)
	sort.Float64s(reads)
	r.readP99 = append(r.readP99, quantile(reads, 0.99))
	if len(r.readP99) == 1 || len(reads) < r.minReads {
		r.minReads = len(reads)
	}
	r.attempted += g.attempted
	r.failed += g.failed
	if g.firstErr != nil {
		return g.firstErr
	}

	// The table must now equal the model replay of the acknowledged writes.
	if len(g.writes) > 0 {
		m := newModel(r.items)
		for _, s := range g.writes {
			m.apply(s)
		}
		if err := checkTable(c, m); err != nil {
			return fmt.Errorf("oracle: after the round: %w", err)
		}
	}
	r.spaceAmp = float64(fx.tbl.HeapPages()) / float64(startPages)
	r.cmSizeRatio = float64(fx.tbl.CMs()[0].SizeBytes) / float64(fx.tbl.Indexes()[0].SizeBytes)
	return nil
}

// fastOctile reads the octile on the fast side of vs: the lowest one of
// times, the highest one of rates (the extreme itself below 8 values).
// The host's slow spells only ever add time, and on one P the
// undisturbed level is tight (over 200 s of half-second point_warm
// windows the lower decile of a 25 s stretch stayed within 6 % while its
// median ranged over 50 %), so the fast octile of the rounds' slices at
// one position reads the machine when it is left alone, as long as it
// was in one of the rounds.
func fastOctile(vs []float64, higherIsFaster bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	k := len(s) / 8
	if higherIsFaster {
		k = len(s) - 1 - k
	}
	return s[k]
}

// fold reads one timing metric off the run: at every slice position the
// fast octile over the rounds, then the median over the positions (with
// the positions' range beside it). A slice without a sample of the
// metric reads 0 and is left out.
func (r *runner) fold(f func(sliceStat) float64, higherIsFaster bool) stat {
	var perPos []float64
	for pos := 0; pos < r.w.slices; pos++ {
		var vs []float64
		for _, round := range r.slices {
			if v := f(round[pos]); v > 0 {
				vs = append(vs, v)
			}
		}
		if len(vs) > 0 {
			perPos = append(perPos, fastOctile(vs, higherIsFaster))
		}
	}
	if len(perPos) == 0 {
		return stat{}
	}
	return medianOf(perPos)
}

// finish folds the rounds into the workload's result.
func (r *runner) finish() *workloadResult {
	res := &workloadResult{Name: r.w.name, Why: r.w.why, EndToEnd: map[string]stat{}, ClassP50Ms: map[string]stat{},
		Attempted: r.attempted, Failed: r.failed}
	e := res.EndToEnd
	setup := medianOf(r.setupS)
	setup.Value = fastOctile(r.setupS, false)
	e["setup_s"] = setup
	e["req_per_s"] = r.fold(func(s sliceStat) float64 { return s.reqPerS }, true)
	e["rows_per_s"] = r.fold(func(s sliceStat) float64 { return s.rowsPerS }, true)
	res.CPUMsPerReq = r.fold(func(s sliceStat) float64 { return s.cpuMsPerReq }, false)
	res.ReadP99Ms = medianOf(r.readP99)
	res.Notes = append(res.Notes, fmt.Sprintf("read p99: at least %d read samples per round", r.minReads))
	slowest := clsPoint
	for cls := class(0); cls < nClass; cls++ {
		p := r.fold(func(s sliceStat) float64 { return s.p50[cls] }, false)
		if p.Value == 0 {
			continue
		}
		res.ClassP50Ms[classNames[cls]] = p
		if cls.isRead() {
			e["p50_ms"] = p
		}
		if p.Value > res.ClassP50Ms[classNames[slowest]].Value {
			slowest = cls
		}
	}
	res.SlowestClass = classNames[slowest]
	e["slowest_class_p50_ms"] = res.ClassP50Ms[res.SlowestClass]
	e["mem_mb"] = medianOf(r.memMiB)
	e["virt_io_ms_per_req"] = single(r.coldVirtMs)
	e["pages_read_per_req"] = single(r.coldPages)
	e["space_amp"] = single(r.spaceAmp)
	e["cm_size_ratio"] = single(r.cmSizeRatio)
	return res
}

// runUntraced measures the workloads' end-to-end metrics. The rounds
// interleave across workloads (A B C D, A B C D, ...), because host noise
// on a shared box is low-frequency and one long window per workload would
// soak it up unevenly.
func runUntraced(ws []*workload, opt *options, items []datagen.CorrelatedItem) ([]*workloadResult, error) {
	runners := make([]*runner, len(ws))
	for i, w := range ws {
		runners[i] = &runner{w: w, opt: opt, items: items}
		if err := runners[i].coldReplay(); err != nil {
			return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
		}
	}
	for n := 0; n < opt.rounds; n++ {
		for _, r := range runners {
			if err := r.round(); err != nil {
				return nil, fmt.Errorf("%s: %w", r.w.name, err)
			}
		}
	}
	out := make([]*workloadResult, len(ws))
	for i, r := range runners {
		out[i] = r.finish()
	}
	return out, nil
}
