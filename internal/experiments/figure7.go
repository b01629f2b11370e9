package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// Figure7Config scales Experiment 2: the bucket-level sweep.
type Figure7Config struct {
	EBay    datagen.EBayConfig
	Levels  []int // bucket levels: 2^level tuples per bucket
	PriceLo float64
	PriceHi float64
}

func (c *Figure7Config) defaults() {
	if len(c.Levels) == 0 {
		c.Levels = []int{2, 4, 6, 8, 10, 12, 14}
	}
}

// Figure7Point is one bucket level.
type Figure7Point struct {
	Level       int
	CM          time.Duration
	Model       time.Duration
	CMBytes     int64
	MatchedRows int
}

// Figure7Result holds the sweep plus the fixed B+Tree baseline.
type Figure7Result struct {
	Points    []Figure7Point
	BTree     time.Duration
	TreeBytes int64
	Rows      int64
}

// RunFigure7 reproduces Experiment 2 (Figure 7): query runtime and CM
// size as a function of the bucket level (2^level tuples per bucket) for
//
//	SELECT COUNT(DISTINCT CAT3) FROM items WHERE Price BETWEEN 1000 AND 1100
//
// demonstrating the knee: size shrinks with wider buckets while runtime
// stays near the B+Tree's until buckets outgrow the queried range.
func RunFigure7(cfg Figure7Config) (*Figure7Result, error) {
	cfg.defaults()
	rows := datagen.EBayItems(cfg.EBay)
	env := NewEnv(4096)
	tbl, err := env.LoadTable(table.Config{
		Name:          "items",
		Schema:        datagen.EBaySchema(),
		ClusteredCols: []int{datagen.EBayCATID},
		BucketTuples:  1,
	}, rows)
	if err != nil {
		return nil, err
	}
	ix, err := tbl.CreateIndex("price", []int{datagen.EBayPrice})
	if err != nil {
		return nil, err
	}
	if cfg.PriceHi <= cfg.PriceLo {
		// A populated $100 window, like the paper's 1000..1100 at its
		// scale.
		cfg.PriceLo = populatedBase(rows)
		cfg.PriceHi = cfg.PriceLo + 100
	}
	q := exec.NewQuery(exec.Between(datagen.EBayPrice,
		value.NewFloat(cfg.PriceLo), value.NewFloat(cfg.PriceHi)))

	res := &Figure7Result{TreeBytes: ix.SizeBytes(), Rows: tbl.Stats().TotalTups}
	bt, _, err := env.Cold(func() error {
		return runForced(tbl, exec.MethodSorted, ix.Name, q, func(value.Row) bool { return true })
	})
	if err != nil {
		return nil, err
	}
	res.BTree = bt

	st := tbl.Stats()
	ts := costmodel.TableStats{
		TupsPerPage: st.TupsPerPage,
		TotalTups:   float64(st.TotalTups),
		BTreeHeight: float64(st.BTreeHeight),
	}
	hw := costmodel.DefaultHardware()

	for _, level := range cfg.Levels {
		width := priceWidthForTuples(rows, 1<<uint(level))
		cm, err := tbl.CreateCM(core.Spec{
			Name:      fmt.Sprintf("price%d", level),
			UCols:     []int{datagen.EBayPrice},
			Bucketers: []core.Bucketer{core.FloatWidth{Width: width}},
		})
		if err != nil {
			return nil, err
		}
		matched := 0
		cmT, _, err := env.Cold(func() error {
			return runForced(tbl, exec.MethodCM, cm.Spec().Name, q, func(value.Row) bool {
				matched++
				return true
			})
		})
		if err != nil {
			return nil, err
		}
		bps := tbl.BucketPairStatsFor(cm)
		model := costmodel.CMLookup(hw, ts, costmodel.CMStats{
			CPerU:           bps.CPerU,
			PagesPerCBucket: bps.PagesPerCBucket,
		}, 1)
		res.Points = append(res.Points, Figure7Point{
			Level:       level,
			CM:          cmT,
			Model:       model,
			CMBytes:     cm.SizeBytes(),
			MatchedRows: matched,
		})
	}
	return res, nil
}

// Print renders the figure's two panels as one table.
func (r *Figure7Result) Print(w io.Writer) {
	fprintf(w, "Figure 7 (Experiment 2): runtime and CM size vs bucket level (%d rows)\n", r.Rows)
	fprintf(w, "B+Tree baseline: %s ms, %s MB\n", ms(r.BTree), mb(r.TreeBytes))
	fprintf(w, "%8s %12s %12s %12s %10s\n", "level", "CM [ms]", "model [ms]", "size [MB]", "rows")
	for _, p := range r.Points {
		fprintf(w, "%8d %12s %12s %12s %10d\n",
			p.Level, ms(p.CM), ms(p.Model), mb(p.CMBytes), p.MatchedRows)
	}
}
