package experiments

import (
	"io"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// Figure10Config scales Experiment 4: cost model validation across
// c_per_u values.
type Figure10Config struct {
	EBay   datagen.EBayConfig
	Values int // number of CAT5 values spanning the c_per_u range; default 5
}

func (c *Figure10Config) defaults() {
	if c.Values <= 0 {
		c.Values = 5
	}
}

// Figure10Point is one predicated CAT5 value.
type Figure10Point struct {
	Cat5     string
	CPerU    int
	Measured time.Duration
	Model    time.Duration
}

// Figure10Result holds the validation points.
type Figure10Result struct {
	Points []Figure10Point
	Rows   int64
}

// RunFigure10 reproduces Experiment 4 (Figure 10): a CM on CAT5 over the
// items table clustered on CATID, querying
//
//	SELECT AVG(Price) FROM items WHERE CAT5 = X
//
// for CAT5 values with widely varying c_per_u (specific sub-category
// names map to few categories, generic names like "Others" to many),
// checking that measured runtime tracks the c_per_u-based cost model.
func RunFigure10(cfg Figure10Config) (*Figure10Result, error) {
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
	cm, err := tbl.CreateCM(core.Spec{Name: "cat5", UCols: []int{datagen.EBayCAT5}})
	if err != nil {
		return nil, err
	}

	// Rank CAT5 values by their c_per_u (number of clustered buckets)
	// and pick a spread from low to high.
	type kv struct {
		name  string
		cperu int
	}
	var all []kv
	if err := cm.Walk(func(e core.Entry, vals []value.Value) bool {
		all = append(all, kv{name: vals[0].S, cperu: len(e.Buckets)})
		return true
	}); err != nil {
		return nil, err
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].cperu != all[j].cperu {
			return all[i].cperu < all[j].cperu
		}
		return all[i].name < all[j].name // deterministic tie-break
	})
	// Deduplicate by c_per_u so the picks span the range instead of
	// sampling the (large) population of specific names repeatedly.
	uniq := all[:0:0]
	lastCPU := -1
	for _, kvp := range all {
		if kvp.cperu != lastCPU {
			uniq = append(uniq, kvp)
			lastCPU = kvp.cperu
		}
	}
	picks := spread(uniq, cfg.Values)

	st := tbl.Stats()
	ts := costmodel.TableStats{
		TupsPerPage: st.TupsPerPage,
		TotalTups:   float64(st.TotalTups),
		BTreeHeight: float64(st.BTreeHeight),
	}
	bps := tbl.BucketPairStatsFor(cm)
	hw := costmodel.DefaultHardware()

	res := &Figure10Result{Rows: st.TotalTups}
	for _, pick := range picks {
		q := exec.NewQuery(exec.Eq(datagen.EBayCAT5, value.NewString(pick.name)))
		var sum float64
		var n int64
		elapsed, _, err := env.Cold(func() error {
			return runForced(tbl, exec.MethodCM, cm.Spec().Name, q, func(row value.Row) bool {
				sum += row[datagen.EBayPrice].F
				n++
				return true
			})
		})
		if err != nil {
			return nil, err
		}
		// The model, per predicated value: c_per_u seeks, one per
		// clustered bucket, plus a sweep of the value's buckets.
		model := costmodel.CMLookup(hw, ts, costmodel.CMStats{
			CPerU:           float64(pick.cperu),
			PagesPerCBucket: bps.PagesPerCBucket,
		}, 1)
		res.Points = append(res.Points, Figure10Point{
			Cat5:     pick.name,
			CPerU:    pick.cperu,
			Measured: elapsed,
			Model:    model,
		})
	}
	return res, nil
}

// spread picks k elements spanning the sorted slice from low to high.
func spread[T any](s []T, k int) []T {
	if k >= len(s) {
		return s
	}
	out := make([]T, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, s[i*(len(s)-1)/(k-1)])
	}
	return out
}

// Print renders the validation points.
func (r *Figure10Result) Print(w io.Writer) {
	fprintf(w, "Figure 10 (Experiment 4): CM cost model vs measurement by c_per_u (%d rows)\n", r.Rows)
	fprintf(w, "%-20s %10s %14s %12s\n", "CAT5 value", "c_per_u", "measured [ms]", "model [ms]")
	for _, p := range r.Points {
		fprintf(w, "%-20s %10d %14s %12s\n", p.Cat5, p.CPerU, ms(p.Measured), ms(p.Model))
	}
}
