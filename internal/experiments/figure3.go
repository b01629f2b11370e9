package experiments

import (
	"io"
	"math/rand"
	"time"

	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// Figure3Config scales the correlated-vs-uncorrelated B+Tree experiment.
type Figure3Config struct {
	Orders  int // default 20000 (≈80k lineitems)
	Seed    int64
	NPoints []int // numbers of shipdates to look up; default 1..100 sweep
}

func (c *Figure3Config) defaults() {
	if c.Orders <= 0 {
		c.Orders = 20000
	}
	if len(c.NPoints) == 0 {
		c.NPoints = []int{1, 2, 4, 8, 16, 25, 50, 75, 100}
	}
}

// Figure3Point is one x position of Figure 3.
type Figure3Point struct {
	NLookups     int
	Correlated   time.Duration // clustered on receiptdate
	Uncorrelated time.Duration // clustered on (orderkey, linenumber)
	TableScan    time.Duration
	Model        time.Duration // cost model prediction for the correlated case
	CorrPages    uint64        // heap+index pages read by the correlated run
	UncPages     uint64
}

// Figure3Result is the full sweep.
type Figure3Result struct {
	Points []Figure3Point
	Rows   int64
}

// RunFigure3 reproduces Figure 3: the query
//
//	SELECT AVG(extendedprice*discount) FROM lineitem
//	WHERE shipdate IN (n random shipdates)
//
// through a secondary B+Tree on shipdate, with the table clustered on the
// correlated receiptdate versus the uncorrelated primary key, against the
// table-scan baseline and the Section 4 cost model's prediction.
func RunFigure3(cfg Figure3Config) (*Figure3Result, error) {
	cfg.defaults()
	rows := datagen.Lineitems(datagen.TPCHConfig{Orders: cfg.Orders, Seed: cfg.Seed})
	dates := datagen.ShipDates(rows)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	rng.Shuffle(len(dates), func(i, j int) { dates[i], dates[j] = dates[j], dates[i] })

	type setup struct {
		env *Env
		tbl *table.Table
		ix  *table.Index
	}
	build := func(cluster []int) (*setup, error) {
		env := NewEnv(4096)
		tbl, err := env.LoadTable(table.Config{
			Name:          "lineitem",
			Schema:        datagen.LineitemSchema(),
			ClusteredCols: cluster,
		}, rows)
		if err != nil {
			return nil, err
		}
		ix, err := tbl.CreateIndex("shipdate", []int{datagen.LShipDate})
		if err != nil {
			return nil, err
		}
		return &setup{env: env, tbl: tbl, ix: ix}, nil
	}
	corr, err := build([]int{datagen.LReceiptDate})
	if err != nil {
		return nil, err
	}
	unc, err := build([]int{datagen.LOrderKey, datagen.LLineNumber})
	if err != nil {
		return nil, err
	}

	// Cost model statistics for the correlated clustering.
	st := corr.tbl.Stats()
	ts := costmodel.TableStats{
		TupsPerPage: st.TupsPerPage,
		TotalTups:   float64(st.TotalTups),
		BTreeHeight: float64(st.BTreeHeight),
	}
	pc, err := corr.tbl.PairStats([]int{datagen.LShipDate})
	if err != nil {
		return nil, err
	}
	pair := costmodel.PairStats{UTups: pc.UTups(), CTups: pc.CTups(), CPerU: pc.CPerU()}
	hw := costmodel.DefaultHardware()

	res := &Figure3Result{Rows: st.TotalTups}
	for _, n := range cfg.NPoints {
		if n > len(dates) {
			n = len(dates)
		}
		vals := make([]value.Value, n)
		for i := 0; i < n; i++ {
			vals[i] = value.NewInt(dates[i])
		}
		q := exec.NewQuery(exec.In(datagen.LShipDate, vals...))
		runQuery := func(s *setup) (time.Duration, uint64, error) {
			var sum float64
			var cnt int64
			elapsed, st, err := s.env.Cold(func() error {
				return runForced(s.tbl, exec.MethodSorted, s.ix.Name, q, func(row value.Row) bool {
					sum += row[datagen.LExtendedPrice].F * row[datagen.LDiscount].F
					cnt++
					return true
				})
			})
			_ = sum
			return elapsed, st.Reads, err
		}
		ct, cp, err := runQuery(corr)
		if err != nil {
			return nil, err
		}
		ut, up, err := runQuery(unc)
		if err != nil {
			return nil, err
		}
		scanT, _, err := corr.env.Cold(func() error {
			return runForced(corr.tbl, exec.MethodTableScan, "", q, func(value.Row) bool { return true })
		})
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, Figure3Point{
			NLookups:     n,
			Correlated:   ct,
			Uncorrelated: ut,
			TableScan:    scanT,
			Model:        costmodel.SortedIndex(hw, ts, pair, n),
			CorrPages:    cp,
			UncPages:     up,
		})
	}
	return res, nil
}

// Print renders the sweep as the paper's Figure 3 series.
func (r *Figure3Result) Print(w io.Writer) {
	fprintf(w, "Figure 3: B+Tree on shipdate, correlated vs uncorrelated clustering (%d rows)\n", r.Rows)
	fprintf(w, "%8s %14s %16s %12s %14s\n", "n", "corr [ms]", "uncorr [ms]", "scan [ms]", "model [ms]")
	for _, p := range r.Points {
		fprintf(w, "%8d %14s %16s %12s %14s\n",
			p.NLookups, ms(p.Correlated), ms(p.Uncorrelated), ms(p.TableScan), ms(p.Model))
	}
}
