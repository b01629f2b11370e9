package experiments

import (
	"io"
	"math/rand"
	"strings"

	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// Figure1Config scales the access-pattern visualization.
type Figure1Config struct {
	TPCH   datagen.TPCHConfig
	Values int // values of Au looked up per case; paper uses 3
	Strip  int // characters in the ASCII strip; default 100
}

func (c *Figure1Config) defaults() {
	if c.TPCH.Orders <= 0 {
		// Enough suppliers that a few suppkey lookups stay sparse
		// relative to the table (the paper's table is 18M rows).
		c.TPCH = datagen.TPCHConfig{Orders: 6000, Suppliers: 500}
	}
	if c.Values <= 0 {
		c.Values = 3
	}
	if c.Strip <= 0 {
		c.Strip = 100
	}
}

// Figure1Case is one row of the figure: which pages a sorted secondary
// index lookup touches under a given clustering.
type Figure1Case struct {
	Label        string
	TotalPages   int64
	PagesTouched int
	Runs         int // contiguous page runs (each run = one seek)
	Strip        string
}

// Figure1Result holds the four cases of the paper's Figure 1.
type Figure1Result struct {
	Cases []Figure1Case
}

// RunFigure1 reproduces Figure 1: lineitem lookups on suppkey with and
// without clustering on the correlated partkey, and on shipdate with and
// without clustering on the correlated receiptdate. Correlated
// clusterings localize the sorted index scan into a few contiguous runs;
// unclustered layouts scatter it.
func RunFigure1(cfg Figure1Config) (*Figure1Result, error) {
	cfg.defaults()
	rows := datagen.Lineitems(cfg.TPCH)
	rng := rand.New(rand.NewSource(cfg.TPCH.Seed + 1))

	// Pick lookup values present in the data.
	suppVals := pickDistinct(rows, datagen.LSuppKey, cfg.Values, rng)
	shipVals := pickDistinct(rows, datagen.LShipDate, cfg.Values, rng)

	cases := []struct {
		label     string
		cluster   []int
		lookupCol int
		vals      []value.Value
	}{
		{"suppkey lookup, clustered on partkey", []int{datagen.LPartKey}, datagen.LSuppKey, suppVals},
		{"suppkey lookup, not clustered (PK order)", []int{datagen.LOrderKey, datagen.LLineNumber}, datagen.LSuppKey, suppVals},
		{"shipdate lookup, clustered on receiptdate", []int{datagen.LReceiptDate}, datagen.LShipDate, shipVals},
		{"shipdate lookup, not clustered (PK order)", []int{datagen.LOrderKey, datagen.LLineNumber}, datagen.LShipDate, shipVals},
	}

	result := &Figure1Result{}
	for _, c := range cases {
		env := NewEnv(4096)
		tbl, err := env.LoadTable(table.Config{
			Name:          "lineitem",
			Schema:        datagen.LineitemSchema(),
			ClusteredCols: c.cluster,
		}, rows)
		if err != nil {
			return nil, err
		}
		ix, err := tbl.CreateIndex("au", []int{c.lookupCol})
		if err != nil {
			return nil, err
		}
		// The pages a sorted index scan sweeps: what the plan's sorted
		// leg resolves the probe to.
		touched, err := exec.IndexPages(ix, exec.NewQuery(exec.In(c.lookupCol, c.vals...)), 1)
		if err != nil {
			return nil, err
		}
		total := tbl.Heap().NumPages()
		result.Cases = append(result.Cases, Figure1Case{
			Label:        c.label,
			TotalPages:   total,
			PagesTouched: len(touched),
			Runs:         countRuns(touched),
			Strip:        renderStrip(touched, total, cfg.Strip),
		})
	}
	return result, nil
}

func pickDistinct(rows []value.Row, col, n int, rng *rand.Rand) []value.Value {
	seen := map[int64]struct{}{}
	var out []value.Value
	for len(out) < n {
		r := rows[rng.Intn(len(rows))]
		v := r[col]
		if _, ok := seen[v.I]; ok {
			continue
		}
		seen[v.I] = struct{}{}
		out = append(out, v)
	}
	return out
}

// countRuns counts the contiguous runs of sorted distinct pages.
func countRuns(pages []int64) int {
	runs := 0
	for i, p := range pages {
		if i == 0 || pages[i-1] != p-1 {
			runs++
		}
	}
	return runs
}

func renderStrip(pages []int64, total int64, width int) string {
	if total == 0 {
		return ""
	}
	cells := make([]bool, width)
	for _, p := range pages {
		idx := int(p * int64(width) / total)
		if idx >= width {
			idx = width - 1
		}
		cells[idx] = true
	}
	var b strings.Builder
	for _, hit := range cells {
		if hit {
			b.WriteByte('#')
		} else {
			b.WriteByte('.')
		}
	}
	return b.String()
}

// Print renders the figure like the paper: one strip per case.
func (r *Figure1Result) Print(w io.Writer) {
	fprintf(w, "Figure 1: access patterns for unclustered B+Tree lookups (page strips)\n")
	for _, c := range r.Cases {
		fprintf(w, "%-45s pages=%4d/%4d runs=%4d\n  |%s|\n",
			c.Label, c.PagesTouched, c.TotalPages, c.Runs, c.Strip)
	}
}
