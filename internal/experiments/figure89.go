package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// indexableCols are the ten eBay attribute sets the maintenance
// experiments index (Experiment 3 scales the index count 0..10).
func indexableCols() [][]int {
	return [][]int{
		{datagen.EBayCAT1},
		{datagen.EBayCAT2},
		{datagen.EBayCAT3},
		{datagen.EBayCAT4},
		{datagen.EBayCAT5},
		{datagen.EBayCAT6},
		{datagen.EBayPrice},
		{datagen.EBayItemID},
		{datagen.EBayCAT2, datagen.EBayCAT3},
		{datagen.EBayCAT4, datagen.EBayCAT5},
	}
}

// Figure8Config scales the insert-maintenance experiment.
type Figure8Config struct {
	EBay        datagen.EBayConfig
	InsertRows  int   // total tuples inserted; paper: 500k
	BatchSize   int   // tuples per committed batch; paper: 10k
	IndexCounts []int // x axis; paper: 0..10
	PoolPages   int   // buffer pool size; must be small vs index working set
	Seed        int64
}

func (c *Figure8Config) defaults() {
	if c.InsertRows <= 0 {
		c.InsertRows = 50000
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 5000
	}
	if len(c.IndexCounts) == 0 {
		c.IndexCounts = []int{0, 2, 4, 6, 8, 10}
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 600
	}
}

// Figure8Point is one index count.
type Figure8Point struct {
	Indexes     int
	BTreeTime   time.Duration
	CMTime      time.Duration
	BTreeRate   float64 // tuples per second under B+Tree maintenance
	CMRate      float64
	BTreeDirty  uint64 // dirty page write-backs during the B+Tree run
	CMSizeBytes int64  // total CM footprint at the end
}

// Figure8Result is the maintenance sweep.
type Figure8Result struct {
	Points     []Figure8Point
	InsertRows int
}

// RunFigure8 reproduces Experiment 3 (Figure 8): the cost of bulk
// inserts as the number of secondary access methods grows, B+Trees vs
// CMs. B+Tree maintenance floods the buffer pool with dirty leaf pages
// whose eviction write-backs are random I/O; CMs stay in memory and pay
// only (shared) WAL traffic, so their line stays flat.
func RunFigure8(cfg Figure8Config) (*Figure8Result, error) {
	cfg.defaults()
	res := &Figure8Result{InsertRows: cfg.InsertRows}
	cols := indexableCols()
	for _, k := range cfg.IndexCounts {
		runSide := func(useCM bool) (time.Duration, uint64, int64, error) {
			env := NewEnv(cfg.PoolPages)
			tbl, err := env.LoadTable(table.Config{
				Name:          "items",
				Schema:        datagen.EBaySchema(),
				ClusteredCols: []int{datagen.EBayCATID},
				BucketTuples:  1,
			}, datagen.EBayItems(cfg.EBay))
			if err != nil {
				return 0, 0, 0, err
			}
			for i := 0; i < k; i++ {
				if useCM {
					spec := core.Spec{Name: fmt.Sprintf("cm%d", i), UCols: cols[i]}
					if cols[i][0] == datagen.EBayPrice {
						spec.Bucketers = []core.Bucketer{core.FloatWidth{Width: 100}}
					}
					if _, err := tbl.CreateCM(spec); err != nil {
						return 0, 0, 0, err
					}
				} else {
					if _, err := tbl.CreateIndex(fmt.Sprintf("ix%d", i), cols[i]); err != nil {
						return 0, 0, 0, err
					}
				}
			}
			batch := datagen.EBayInsertBatch(cfg.EBay, cfg.InsertRows, cfg.Seed+77)
			dirtyBefore := env.Pool.Stats().DirtyWrites
			elapsed, _, err := env.Warm(func() error {
				for off := 0; off < len(batch); off += cfg.BatchSize {
					end := off + cfg.BatchSize
					if end > len(batch) {
						end = len(batch)
					}
					if err := insertStmt(tbl, batch[off:end]); err != nil {
						return err
					}
					if err := tbl.Commit(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				return 0, 0, 0, err
			}
			var cmBytes int64
			for _, cm := range tbl.CMs() {
				cmBytes += cm.SizeBytes()
			}
			return elapsed, env.Pool.Stats().DirtyWrites - dirtyBefore, cmBytes, nil
		}
		bt, btDirty, _, err := runSide(false)
		if err != nil {
			return nil, err
		}
		ct, _, cmBytes, err := runSide(true)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Figure8Point{
			Indexes:     k,
			BTreeTime:   bt,
			CMTime:      ct,
			BTreeRate:   rate(cfg.InsertRows, bt),
			CMRate:      rate(cfg.InsertRows, ct),
			BTreeDirty:  btDirty,
			CMSizeBytes: cmBytes,
		})
	}
	return res, nil
}

// insertStmt inserts rows as one writer statement, the engine's only
// write path, so the maintenance both figures time is what a user's
// INSERT pays.
func insertStmt(tbl *table.Table, rows []value.Row) error {
	tx := tbl.BeginWrite()
	if err := tx.InsertBatch(rows); err != nil {
		return errors.Join(err, tx.Abort())
	}
	return tx.Publish()
}

func rate(rows int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(rows) / d.Seconds()
}

// Print renders the maintenance sweep and the Section 1 headline rates.
func (r *Figure8Result) Print(w io.Writer) {
	fprintf(w, "Figure 8 (Experiment 3): cost of %d insertions vs #indexes\n", r.InsertRows)
	fprintf(w, "%8s %14s %12s %16s %14s %14s\n",
		"indexes", "B+Tree [s]", "CM [s]", "B+Tree dirty pg", "B+Tree tup/s", "CM tup/s")
	for _, p := range r.Points {
		fprintf(w, "%8d %14s %12s %16d %14.0f %14.0f\n",
			p.Indexes, sec(p.BTreeTime), sec(p.CMTime), p.BTreeDirty, p.BTreeRate, p.CMRate)
	}
}

// Figure9Config scales the mixed-workload experiment.
type Figure9Config struct {
	EBay       datagen.EBayConfig
	Rounds     int // paper: 50 rounds
	InsertsPer int // paper: 10k per round
	SelectsPer int // paper: 100 per round
	Indexes    int // paper: 5
	PoolPages  int
	Seed       int64
}

func (c *Figure9Config) defaults() {
	if c.Rounds <= 0 {
		c.Rounds = 10
	}
	if c.InsertsPer <= 0 {
		c.InsertsPer = 2000
	}
	if c.SelectsPer <= 0 {
		c.SelectsPer = 20
	}
	if c.Indexes <= 0 {
		c.Indexes = 5
	}
	if c.PoolPages <= 0 {
		c.PoolPages = 600
	}
}

// Figure9Bar is one bar of the figure: a method under a workload, split
// into insert and select time.
type Figure9Bar struct {
	Label  string
	Insert time.Duration
	Select time.Duration
}

// Figure9Result holds the four bars.
type Figure9Result struct {
	Bars []Figure9Bar
}

// RunFigure9 reproduces the mixed-workload comparison of Experiment 3
// (Figure 9): rounds of bulk inserts followed by AVG(Price) selections on
// random CAT1..CAT6 values, under 5 B+Trees vs 5 CMs, against the
// insert-only baseline. Under B+Trees, selects and inserts fight for the
// buffer pool; CMs leave the pool to the heap.
func RunFigure9(cfg Figure9Config) (*Figure9Result, error) {
	cfg.defaults()
	// CAT2..CAT6: at reduced category counts CAT1 has so few values
	// that equality predicates cover ~10% of the table and every method
	// degenerates to a scan; the deeper levels keep the paper's
	// selectivity profile.
	catCols := []int{
		datagen.EBayCAT2, datagen.EBayCAT3,
		datagen.EBayCAT4, datagen.EBayCAT5, datagen.EBayCAT6,
	}
	if cfg.Indexes > len(catCols) {
		cfg.Indexes = len(catCols)
	}
	run := func(useCM, mixed bool) (Figure9Bar, error) {
		env := NewEnv(cfg.PoolPages)
		rows := datagen.EBayItems(cfg.EBay)
		tbl, err := env.LoadTable(table.Config{
			Name:          "items",
			Schema:        datagen.EBaySchema(),
			ClusteredCols: []int{datagen.EBayCATID},
			BucketTuples:  1,
		}, rows)
		if err != nil {
			return Figure9Bar{}, err
		}
		var cms []*core.CM
		var ixs []*table.Index
		for i := 0; i < cfg.Indexes; i++ {
			if useCM {
				cm, err := tbl.CreateCM(core.Spec{Name: fmt.Sprintf("cm%d", i), UCols: []int{catCols[i]}})
				if err != nil {
					return Figure9Bar{}, err
				}
				cms = append(cms, cm)
			} else {
				ix, err := tbl.CreateIndex(fmt.Sprintf("ix%d", i), []int{catCols[i]})
				if err != nil {
					return Figure9Bar{}, err
				}
				ixs = append(ixs, ix)
			}
		}
		// Collect predicate values present in the data (sorted for
		// deterministic query selection).
		catVals := make([][]string, len(catCols))
		for i, col := range catCols {
			seen := map[string]struct{}{}
			for _, r := range rows {
				seen[r[col].S] = struct{}{}
			}
			for s := range seen {
				catVals[i] = append(catVals[i], s)
			}
			sort.Strings(catVals[i])
		}
		rng := rand.New(rand.NewSource(cfg.Seed + 5))
		batch := datagen.EBayInsertBatch(cfg.EBay, cfg.Rounds*cfg.InsertsPer, cfg.Seed+6)
		var insertTime, selectTime time.Duration
		for round := 0; round < cfg.Rounds; round++ {
			ins := batch[round*cfg.InsertsPer : (round+1)*cfg.InsertsPer]
			el, _, err := env.Warm(func() error {
				if err := insertStmt(tbl, ins); err != nil {
					return err
				}
				return tbl.Commit()
			})
			if err != nil {
				return Figure9Bar{}, err
			}
			insertTime += el
			if !mixed {
				continue
			}
			for s := 0; s < cfg.SelectsPer; s++ {
				ci := rng.Intn(cfg.Indexes)
				val := catVals[ci][rng.Intn(len(catVals[ci]))]
				q := exec.NewQuery(exec.Eq(catCols[ci], value.NewString(val)))
				var sum float64
				var n int64
				agg := func(row value.Row) bool {
					sum += row[datagen.EBayPrice].F
					n++
					return true
				}
				el, _, err := env.Warm(func() error {
					if useCM {
						return runForced(tbl, exec.MethodCM, cms[ci].Spec().Name, q, agg)
					}
					return runForced(tbl, exec.MethodSorted, ixs[ci].Name, q, agg)
				})
				if err != nil {
					return Figure9Bar{}, err
				}
				selectTime += el
			}
		}
		label := "B+Tree"
		if useCM {
			label = "CM"
		}
		if mixed {
			label += "-mix"
		}
		return Figure9Bar{Label: label, Insert: insertTime, Select: selectTime}, nil
	}

	res := &Figure9Result{}
	for _, c := range []struct{ cm, mixed bool }{
		{false, true}, {false, false}, {true, true}, {true, false},
	} {
		bar, err := run(c.cm, c.mixed)
		if err != nil {
			return nil, err
		}
		res.Bars = append(res.Bars, bar)
	}
	return res, nil
}

// Print renders the four bars.
func (r *Figure9Result) Print(w io.Writer) {
	fprintf(w, "Figure 9 (Experiment 3): mixed workload, 5 indexes\n")
	fprintf(w, "%-12s %12s %12s %12s\n", "config", "INSERT [s]", "SELECT [s]", "total [s]")
	for _, b := range r.Bars {
		fprintf(w, "%-12s %12s %12s %12s\n", b.Label, sec(b.Insert), sec(b.Select), sec(b.Insert+b.Select))
	}
}
