package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// ebayFixture is the shared setup of Experiments 1, 2 and 4: the items
// table clustered on CATID with a CM and a secondary B+Tree on Price.
type ebayFixture struct {
	env *Env
	tbl *table.Table
	ix  *table.Index
	cm  *core.CM
}

// priceWidthForTuples converts the paper's "tuples per bucket" knob into
// a Price bucket width: with N tuples spread over the price span, a
// bucket of k tuples is k/N of the span.
func priceWidthForTuples(rows []value.Row, tuplesPerBucket int) float64 {
	lo, hi := rows[0][datagen.EBayPrice].F, rows[0][datagen.EBayPrice].F
	for _, r := range rows {
		p := r[datagen.EBayPrice].F
		if p < lo {
			lo = p
		}
		if p > hi {
			hi = p
		}
	}
	span := hi - lo
	if span <= 0 {
		return 1
	}
	return span * float64(tuplesPerBucket) / float64(len(rows))
}

func buildEBay(cfg datagen.EBayConfig, priceBucketTuples int, poolPages int) (*ebayFixture, []value.Row, error) {
	rows := datagen.EBayItems(cfg)
	env := NewEnv(poolPages)
	tbl, err := env.LoadTable(table.Config{
		Name:          "items",
		Schema:        datagen.EBaySchema(),
		ClusteredCols: []int{datagen.EBayCATID},
		BucketTuples:  1, // one clustered bucket per category
	}, rows)
	if err != nil {
		return nil, nil, err
	}
	ix, err := tbl.CreateIndex("price", []int{datagen.EBayPrice})
	if err != nil {
		return nil, nil, err
	}
	cm, err := tbl.CreateCM(core.Spec{
		Name:  "price",
		UCols: []int{datagen.EBayPrice},
		Bucketers: []core.Bucketer{
			core.FloatWidth{Width: priceWidthForTuples(rows, priceBucketTuples)},
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return &ebayFixture{env: env, tbl: tbl, ix: ix, cm: cm}, rows, nil
}

// Figure6Config scales Experiment 1.
type Figure6Config struct {
	EBay datagen.EBayConfig
	// BucketTuples is the Price CM bucket size in tuples. The paper's
	// 4096 corresponds to a ~$100 bucket at 43M rows; 0 picks the width
	// preserving that bucket-to-query-range ratio at the actual scale
	// (rows/10000, min 4).
	BucketTuples int
	Ranges       []int // price range widths in dollars
}

func (c *Figure6Config) defaults() {
	if len(c.Ranges) == 0 {
		c.Ranges = []int{0, 1000, 2000, 4000, 6000, 8000, 10000}
	}
}

// scaledBucketTuples preserves the paper's bucket-width economics at any
// row count: 4096 tuples of 43M ≈ 1/10500 of the table.
func scaledBucketTuples(configured, rows int) int {
	if configured > 0 {
		return configured
	}
	t := rows / 10000
	if t < 4 {
		t = 4
	}
	return t
}

// populatedBase returns a price at the 40th percentile of the data, so
// range queries anchored there always intersect real categories
// regardless of scale (the paper's fixed $1000 anchor relies on its 43M
// rows leaving no empty price regions).
func populatedBase(rows []value.Row) float64 {
	prices := make([]float64, len(rows))
	for i, r := range rows {
		prices[i] = r[datagen.EBayPrice].F
	}
	sort.Float64s(prices)
	return prices[int(float64(len(prices))*0.4)]
}

// Figure6Point is one x position: a price range width.
type Figure6Point struct {
	RangeDollars int
	CM           time.Duration
	BTree        time.Duration
	MatchedRows  int
}

// Figure6Result holds the sweep and the size comparison the experiment
// text highlights (CM ~0.9 MB vs B+Tree 860 MB in the paper).
type Figure6Result struct {
	Points    []Figure6Point
	CMBytes   int64
	TreeBytes int64
	Rows      int64
}

// RunFigure6 reproduces Experiment 1 (Figure 6):
//
//	SELECT COUNT(DISTINCT CAT2) FROM items
//	WHERE Price BETWEEN 1000 AND 1000+R
//
// comparing the CM on Price (bucketed) with the secondary B+Tree, both
// exploiting the clustering on the correlated CATID.
func RunFigure6(cfg Figure6Config) (*Figure6Result, error) {
	cfg.defaults()
	rowsData := datagen.EBayItems(cfg.EBay)
	bt := scaledBucketTuples(cfg.BucketTuples, len(rowsData))
	fx, _, err := buildEBay(cfg.EBay, bt, 4096)
	if err != nil {
		return nil, err
	}
	base := populatedBase(rowsData)
	res := &Figure6Result{
		CMBytes:   fx.cm.SizeBytes(),
		TreeBytes: fx.ix.SizeBytes(),
		Rows:      fx.tbl.Stats().TotalTups,
	}
	for _, r := range cfg.Ranges {
		q := exec.NewQuery(exec.Between(datagen.EBayPrice,
			value.NewFloat(base), value.NewFloat(base+float64(r))))
		matched := 0
		countDistinct := func(row value.Row) bool {
			matched++
			_ = row[datagen.EBayCAT2].S
			return true
		}
		cmT, _, err := fx.env.Cold(func() error {
			return runForced(fx.tbl, exec.MethodCM, fx.cm.Spec().Name, q, countDistinct)
		})
		if err != nil {
			return nil, err
		}
		cmMatched := matched
		matched = 0
		btT, _, err := fx.env.Cold(func() error {
			return runForced(fx.tbl, exec.MethodSorted, fx.ix.Name, q, countDistinct)
		})
		if err != nil {
			return nil, err
		}
		if matched != cmMatched {
			return nil, fmt.Errorf("experiments: CM matched %d rows, B+Tree %d", cmMatched, matched)
		}
		res.Points = append(res.Points, Figure6Point{
			RangeDollars: r,
			CM:           cmT,
			BTree:        btT,
			MatchedRows:  matched,
		})
	}
	return res, nil
}

// Print renders the figure.
func (r *Figure6Result) Print(w io.Writer) {
	fprintf(w, "Figure 6 (Experiment 1): CM vs B+Tree over Price ranges (%d rows)\n", r.Rows)
	fprintf(w, "CM size %s MB, B+Tree size %s MB (ratio 1:%.0f)\n",
		mb(r.CMBytes), mb(r.TreeBytes), float64(r.TreeBytes)/float64(r.CMBytes))
	fprintf(w, "%12s %12s %12s %10s\n", "range [$]", "CM [ms]", "B+Tree [ms]", "rows")
	for _, p := range r.Points {
		fprintf(w, "%12d %12s %12s %10d\n", p.RangeDollars, ms(p.CM), ms(p.BTree), p.MatchedRows)
	}
}
