package experiments

import (
	"io"
	"sort"
	"time"

	"repro/internal/datagen"
	"repro/internal/sim"
	"repro/internal/value"
)

// Figure2Config scales the SDSS clustering sweep.
type Figure2Config struct {
	SDSS        datagen.SDSSConfig
	Selectivity float64 // per-query fraction of rows; paper uses 1%
	TupsPerPage int     // heap density for the page model; default from row size
}

func (c *Figure2Config) defaults() {
	if c.Selectivity <= 0 {
		c.Selectivity = 0.01
	}
	if c.SDSS.Rows() == 0 {
		c.SDSS = datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 400}
	}
	if c.TupsPerPage <= 0 {
		// PhotoTag rows are ~340 bytes encoded; 8 KiB pages hold ~24.
		c.TupsPerPage = 24
	}
}

// Figure2Row is one clustering choice with its query speedup histogram.
type Figure2Row struct {
	ClusterAttr string
	Speedup2x   int
	Speedup4x   int
	Speedup8x   int
	Speedup16x  int
}

// Figure2Result is the full 39-attribute sweep.
type Figure2Result struct {
	Rows        []Figure2Row
	Queries     int
	TableRows   int
	TableScanMS float64
}

// RunFigure2 reproduces Figure 2: 39 single-attribute queries of ~1%
// selectivity over PhotoTag, evaluated under each of the 39 possible
// clusterings, counting how many queries a clustering accelerates by at
// least 2/4/8/16x over a table scan.
//
// Methodology: as in the paper's own Table 3 simulation, the sorted index
// scan's cost is derived from its page-access pattern — one clustered
// B+Tree descent plus index leaf reads, then a heap sweep whose seeks are
// the contiguous runs of touched pages — converted to time with the
// measured hardware constants. This keeps a 39x39 sweep tractable at a
// table scale (thousands of pages) where the paper's disk economics hold.
func RunFigure2(cfg Figure2Config) (*Figure2Result, error) {
	cfg.defaults()
	rows := datagen.PhotoTag(cfg.SDSS)
	sch := datagen.SDSSSchema()
	n := len(rows)
	hw := sim.DefaultConfig()
	seek := float64(hw.SeekCost) / float64(time.Millisecond)
	seq := float64(hw.SeqPageCost) / float64(time.Millisecond)

	attrs := make([]int, 0, datagen.SDSSNumCols-1)
	for col := 1; col < datagen.SDSSNumCols; col++ {
		attrs = append(attrs, col)
	}

	// Matching row sets per query: a ~1%-selectivity window around a
	// central quantile of each attribute.
	matches := make([][]int, len(attrs))
	for qi, col := range attrs {
		matches[qi] = selectWindow(rows, col, cfg.Selectivity)
	}

	pages := float64(n) / float64(cfg.TupsPerPage)
	scanMS := pages * seq
	// Dense index entries are ~20 bytes: ~400 per 8 KiB leaf.
	leafFanout := 400.0
	btreeHeight := 3.0

	res := &Figure2Result{Queries: len(attrs), TableRows: n, TableScanMS: scanMS}
	order := make([]int, n)
	for _, clusterCol := range attrs {
		// Position of each original row under this clustering.
		for i := range order {
			order[i] = i
		}
		cc := clusterCol
		sort.SliceStable(order, func(a, b int) bool {
			return rows[order[a]][cc].Compare(rows[order[b]][cc]) < 0
		})
		pos := make([]int, n)
		for p, orig := range order {
			pos[orig] = p
		}

		row := Figure2Row{ClusterAttr: sch.Cols[clusterCol].Name}
		for qi := range attrs {
			m := matches[qi]
			if len(m) == 0 {
				continue
			}
			pageSet := map[int]struct{}{}
			for _, orig := range m {
				pageSet[pos[orig]/cfg.TupsPerPage] = struct{}{}
			}
			runs := 0
			for p := range pageSet {
				if _, ok := pageSet[p-1]; !ok {
					runs++
				}
			}
			leafPages := float64(len(m))/leafFanout + 1
			cost := btreeHeight*seek + leafPages*seq + // index descent + leaves
				float64(runs)*seek + float64(len(pageSet))*seq // heap sweep
			if cost > scanMS {
				cost = scanMS
			}
			speedup := scanMS / cost
			if speedup >= 2 {
				row.Speedup2x++
			}
			if speedup >= 4 {
				row.Speedup4x++
			}
			if speedup >= 8 {
				row.Speedup8x++
			}
			if speedup >= 16 {
				row.Speedup16x++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// selectWindow returns the indexes of rows whose col value lies in a
// window of ~the given selectivity around the 40th percentile. For
// few-valued attributes where any window vastly overshoots the target,
// it falls back to equality on the least frequent value — the benchmark
// needs an achievable ~1% predicate per attribute.
func selectWindow(rows []value.Row, col int, selectivity float64) []int {
	n := len(rows)
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i
	}
	sort.SliceStable(vals, func(a, b int) bool {
		return rows[vals[a]][col].Compare(rows[vals[b]][col]) < 0
	})
	want := int(float64(n) * selectivity)
	if want < 1 {
		want = 1
	}
	start := int(float64(n) * 0.4)
	if start+want > n {
		start = n - want
	}
	lo := rows[vals[start]][col]
	hi := rows[vals[start+want-1]][col]
	var out []int
	for i, r := range rows {
		if r[col].Compare(lo) >= 0 && r[col].Compare(hi) <= 0 {
			out = append(out, i)
		}
	}
	if len(out) <= 3*want {
		return out
	}
	// Few-valued attribute: use the rarest value instead.
	counts := map[string]int{}
	for _, r := range rows {
		counts[r[col].String()]++
	}
	rare, rareCount := "", n+1
	for v, c := range counts {
		if c < rareCount {
			rare, rareCount = v, c
		}
	}
	out = out[:0]
	for i, r := range rows {
		if r[col].String() == rare {
			out = append(out, i)
		}
	}
	return out
}

// Print renders the histogram like the paper's Figure 2, then the
// clustering Best picks.
func (r *Figure2Result) Print(w io.Writer) {
	fprintf(w, "Figure 2: queries accelerated by clustering choice (%d rows, %d queries, scan=%.1fms)\n",
		r.TableRows, r.Queries, r.TableScanMS)
	fprintf(w, "%-12s %6s %6s %6s %6s\n", "clustered on", ">=2x", ">=4x", ">=8x", ">=16x")
	for _, row := range r.Rows {
		fprintf(w, "%-12s %6d %6d %6d %6d\n",
			row.ClusterAttr, row.Speedup2x, row.Speedup4x, row.Speedup8x, row.Speedup16x)
	}
	best := r.Best()
	fprintf(w, "best clustering: %s (%d queries >=2x)\n", best.ClusterAttr, best.Speedup2x)
}

// Best returns the clustering attribute accelerating the most queries at
// 2x, mirroring the paper's observation about fieldID.
func (r *Figure2Result) Best() Figure2Row {
	best := Figure2Row{}
	for _, row := range r.Rows {
		if row.Speedup2x > best.Speedup2x {
			best = row
		}
	}
	return best
}
