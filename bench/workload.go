package main

import (
	"fmt"
	"math/rand"
	"net"
	"runtime"

	"repro"
	"repro/internal/datagen"
	"repro/internal/server"
)

const (
	fixtureRows = 60000
	scanSpan    = 200 // cats per scan_stream_warm range
)

// class is a statement form; latencies are kept per class.
type class int

const (
	clsPoint class = iota
	clsScan
	clsAgg
	clsUpdate
	clsInsert
	nClass
)

var classNames = [nClass]string{"point", "scan", "agg", "update", "insert"}

func (c class) isRead() bool  { return c == clsPoint || c == clsScan }
func (c class) isWrite() bool { return c == clsUpdate || c == clsInsert }

// stmt is one generated statement. The engine only ever receives sql;
// key and price let the harness compute what the reply must be.
type stmt struct {
	cls   class
	sql   string
	key   int64 // subcat (point, agg), first cat (scan), cat (update, insert)
	price int64
}

func pointStmt(k int64) stmt {
	return stmt{cls: clsPoint, key: k, sql: fmt.Sprintf("SELECT price FROM items WHERE subcat = %d", k)}
}

func scanStmt(a int64) stmt {
	return stmt{cls: clsScan, key: a, sql: fmt.Sprintf("SELECT cat, subcat, price, desc FROM items WHERE cat BETWEEN %d AND %d", a, a+scanSpan-1)}
}

func aggStmt(k int64) stmt {
	return stmt{cls: clsAgg, key: k, sql: fmt.Sprintf("SELECT COUNT(*), AVG(price) FROM items WHERE subcat = %d", k)}
}

func updateStmt(c, p int64) stmt {
	return stmt{cls: clsUpdate, key: c, price: p, sql: fmt.Sprintf("UPDATE items SET price = %d WHERE cat = %d", p, c)}
}

func insertStmt(c, p int64) stmt {
	return stmt{cls: clsInsert, key: c, price: p, sql: fmt.Sprintf("INSERT INTO items VALUES (%d, %d, %d, 'new')", c, c/8, p)}
}

// spec is the statement as a facade QuerySpec, for the traced passes
// that enter below the SQL front end. Only SELECTs have one.
func (s stmt) spec() repro.QuerySpec {
	q := repro.QuerySpec{Table: "items"}
	switch s.cls {
	case clsPoint:
		q.Cols = []string{"price"}
		q.Preds = []repro.Pred{repro.Eq("subcat", repro.IntVal(s.key))}
	case clsScan:
		q.Cols = []string{"cat", "subcat", "price", "desc"}
		q.Preds = []repro.Pred{repro.Between("cat", repro.IntVal(s.key), repro.IntVal(s.key+scanSpan-1))}
	case clsAgg:
		q.Aggs = []repro.Agg{{Func: repro.Count}, {Func: repro.Avg, Col: "price"}}
		q.Preds = []repro.Pred{repro.Eq("subcat", repro.IntVal(s.key))}
	}
	return q
}

// workload is one traffic mix over one fixture configuration.
type workload struct {
	name string
	why  string
	// poolPages and ioWaitScale configure the fixture's DB; the table
	// is 1334 heap pages, so 4096 caches everything and 128 does not.
	poolPages   int
	ioWaitScale int
	// chunkRows > 0 opts the connection into chunked responses.
	chunkRows int
	// reqPerSec > 0 makes a round (and its warm-up) a fixed request count
	// (reqPerSec x the round's seconds) instead of a time window, so two
	// commits apply exactly the same writes and the heap grows identically.
	reqPerSec int
	// slices splits every round into this many short windows; a metric is
	// read per slice position across the rounds (see runner.fold). Sized
	// so that a slice holds a few hundred read statements at the seed's
	// speed; point_cold, where the host adds little and a statement's
	// misses a lot, keeps the round whole.
	slices int
	// traceSample and coldSample size the traced pass and the cold
	// replay (statements, one client).
	traceSample int
	coldSample  int
	// mix is the share of each statement class, in percent; cycle is
	// the order in which 100 consecutive statements take the classes.
	mix   [nClass]int
	cycle [100]class
}

// init spreads every workload's mix over its cycle as evenly as it goes:
// each step takes the class furthest behind its share. A drawn class
// would give a 500-statement slice 50 +- 7 UPDATEs, which on mixed_rw
// are 60 % of its time; this way every slice, and every seed, holds the
// same number of statements of each class.
func init() {
	for _, w := range workloads {
		var issued [nClass]int
		for i := range w.cycle {
			behind := class(0)
			for cls := range w.mix {
				if w.mix[cls]*(i+1)-100*issued[cls] > w.mix[behind]*(i+1)-100*issued[behind] {
					behind = class(cls)
				}
			}
			w.cycle[i] = behind
			issued[behind]++
		}
	}
}

// next makes the stream's i-th statement: its class by the cycle, its
// parameters drawn uniformly (subcat in [0, 500), cat in [0, 4000)).
func (w *workload) next(rng *rand.Rand, i int) stmt {
	cls := w.cycle[i%len(w.cycle)]
	switch cls {
	case clsPoint:
		return pointStmt(int64(rng.Intn(datagen.CorrelatedSubcats)))
	case clsScan:
		return scanStmt(int64(rng.Intn(datagen.CorrelatedCats - scanSpan + 1)))
	case clsAgg:
		return aggStmt(int64(rng.Intn(datagen.CorrelatedSubcats)))
	}
	c, p := int64(rng.Intn(datagen.CorrelatedCats)), int64(rng.Intn(10000))
	if cls == clsUpdate {
		return updateStmt(c, p)
	}
	return insertStmt(c, p)
}

var workloads = []*workload{
	{
		name: "point_warm", why: "CM point probes with everything cached: wire, parse/bind, plan, per-row encode and collector CPU show; storage should not",
		poolPages: 4096, slices: 20, traceSample: 2000, coldSample: 2000, mix: [nClass]int{clsPoint: 100},
	},
	{
		name: "point_cold", why: "the same probes against a 128-page pool with real I/O waits (the paper's Figure 6 case): buffer, sim and CM false-positive pages do the work; CPU changes should not move it",
		poolPages: 128, ioWaitScale: 2, slices: 1, traceSample: 300, coldSample: 2000, mix: [nClass]int{clsPoint: 100},
	},
	{
		name: "scan_stream_warm", why: "chunked 3000-row wide-row range scans, cached: heap sweep, compiled filter, row encode and the chunk pump dominate",
		poolPages: 4096, chunkRows: 256, slices: 5, traceSample: 300, coldSample: 100, mix: [nClass]int{clsScan: 100},
	},
	{
		name: "mixed_rw", why: "70/15/10/5 % point/aggregate/UPDATE/INSERT: Algorithm 1 maintenance, WAL, MVCC versions and the never-reclaimed heap beside readers",
		poolPages: 4096, reqPerSec: 2000, slices: 20, traceSample: 2000, coldSample: 2000,
		mix: [nClass]int{clsPoint: 70, clsAgg: 15, clsUpdate: 10, clsInsert: 5},
	},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// fixture is one database behind one wire server on a loopback port.
type fixture struct {
	db     *repro.DB
	tbl    *repro.Table
	srv    *server.Server
	addr   string
	served chan error
}

// buildFixture builds the correlated-items table with the Figure 6
// physical design through the public facade and starts a default-config
// server over it. ioWaitScale overrides the workload's (the cold replay
// uses a twin without real waits).
func buildFixture(items []datagen.CorrelatedItem, poolPages, ioWaitScale int) (*fixture, error) {
	db := repro.Open(repro.Config{BufferPoolPages: poolPages, IOWaitScale: ioWaitScale, Workers: runtime.NumCPU()})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name: "items",
		Columns: []repro.Column{
			{Name: "cat", Kind: repro.Int}, {Name: "subcat", Kind: repro.Int},
			{Name: "price", Kind: repro.Int}, {Name: "desc", Kind: repro.String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		return nil, fmt.Errorf("create items: %w", err)
	}
	rows := make([]repro.Row, len(items))
	for i, it := range items {
		rows[i] = repro.Row{repro.IntVal(it.Cat), repro.IntVal(it.Subcat), repro.IntVal(it.Price), repro.StringVal(it.Desc)}
	}
	if err := tbl.Load(rows); err != nil {
		return nil, fmt.Errorf("load items: %w", err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		return nil, fmt.Errorf("create index: %w", err)
	}
	if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
		return nil, fmt.Errorf("create cm: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	f := &fixture{db: db, tbl: tbl, srv: server.New(db, server.Config{}), addr: ln.Addr().String(), served: make(chan error, 1)}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// close stops the server and waits for its accept loop to end.
func (f *fixture) close() {
	f.srv.Close()
	<-f.served
}

// metric reads one engine counter by its exact name.
func (f *fixture) metric(name string) float64 {
	for _, m := range f.db.Metrics(name) {
		if m.Name == name {
			return float64(m.Value)
		}
	}
	return 0
}
