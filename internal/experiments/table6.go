package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

func sprintf(format string, args ...any) string { return fmt.Sprintf(format, args...) }

// Table6Config scales the composite-CM experiment.
type Table6Config struct {
	SDSS     datagen.SDSSConfig
	RaLevel  int // bucket level for ra; paper uses 2^14-ish widths
	DecLevel int
}

func (c *Table6Config) defaults() {
	if c.SDSS.Rows() == 0 {
		c.SDSS = datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200}
	}
	if c.RaLevel <= 0 {
		c.RaLevel = 2 // 4-degree buckets over the 0..360 ra span
	}
	if c.DecLevel <= 0 {
		c.DecLevel = 1 // 2-degree buckets over the dec span
	}
}

// Table6Row is one access method on the range query.
type Table6Row struct {
	Index     string
	Bucketing string
	Runtime   time.Duration
	SizeBytes int64
	Rows      int
	PagesRead uint64
}

// Table6Result is the comparison table.
type Table6Result struct {
	Rows      []Table6Row
	TableRows int64
}

// RunTable6 reproduces Experiment 5 (Table 6): the SDSS Q2 variant
//
//	SELECT COUNT(*) FROM PhotoTag
//	WHERE ra BETWEEN .. AND dec BETWEEN .. AND g .. AND rho ..
//
// under four access methods: single-attribute CMs on ra and dec, the
// composite CM on (ra, dec), and a composite secondary B+Tree on
// (ra, dec). Neither coordinate alone determines the clustered objID
// region, but the pair does, so the composite CM dominates — and the
// B+Tree can only use its ra prefix for the two-range predicate.
func RunTable6(cfg Table6Config) (*Table6Result, error) {
	cfg.defaults()
	env := NewEnv(4096)
	tbl, err := env.LoadTable(table.Config{
		Name:          "phototag",
		Schema:        datagen.SDSSSchema(),
		ClusteredCols: []int{datagen.SDSSObjID},
	}, datagen.PhotoTag(cfg.SDSS))
	if err != nil {
		return nil, err
	}
	raB := core.BucketerForLevel(value.Float, cfg.RaLevel)
	decB := core.BucketerForLevel(value.Float, cfg.DecLevel)
	cmRa, err := tbl.CreateCM(core.Spec{Name: "ra", UCols: []int{datagen.SDSSRa},
		Bucketers: []core.Bucketer{raB}})
	if err != nil {
		return nil, err
	}
	cmDec, err := tbl.CreateCM(core.Spec{Name: "dec", UCols: []int{datagen.SDSSDec},
		Bucketers: []core.Bucketer{decB}})
	if err != nil {
		return nil, err
	}
	cmPair, err := tbl.CreateCM(core.Spec{Name: "radec",
		UCols:     []int{datagen.SDSSRa, datagen.SDSSDec},
		Bucketers: []core.Bucketer{raB, decB}})
	if err != nil {
		return nil, err
	}
	ixPair, err := tbl.CreateIndex("radec", []int{datagen.SDSSRa, datagen.SDSSDec})
	if err != nil {
		return nil, err
	}

	// A small sky region plus brightness filters, like the paper's Q2
	// variant (g+rho arithmetic becomes separate range predicates).
	q := exec.NewQuery(
		exec.Between(datagen.SDSSRa, value.NewFloat(100.0), value.NewFloat(105.5)),
		exec.Between(datagen.SDSSDec, value.NewFloat(2.0), value.NewFloat(4.2)),
		exec.Between(datagen.SDSSG, value.NewFloat(14), value.NewFloat(23)),
		exec.Between(datagen.SDSSRho, value.NewFloat(0), value.NewFloat(3)),
	)

	res := &Table6Result{TableRows: tbl.Stats().TotalTups}
	type method struct {
		label, bucketing string
		size             int64
		via              exec.Method
		uses             string
	}
	methods := []method{
		{"CM(ra)", raB.String(), cmRa.SizeBytes(), exec.MethodCM, cmRa.Spec().Name},
		{"CM(dec)", decB.String(), cmDec.SizeBytes(), exec.MethodCM, cmDec.Spec().Name},
		{"CM(ra,dec)", raB.String() + " " + decB.String(), cmPair.SizeBytes(), exec.MethodCM, cmPair.Spec().Name},
		{"B+Tree(ra,dec)", "-", ixPair.SizeBytes(), exec.MethodSorted, ixPair.Name},
	}
	want := -1
	for _, m := range methods {
		count := 0
		elapsed, st, err := env.Cold(func() error {
			return runForced(tbl, m.via, m.uses, q, func(value.Row) bool {
				count++
				return true
			})
		})
		if err != nil {
			return nil, err
		}
		if want == -1 {
			want = count
		} else if count != want {
			return nil, fmt.Errorf("experiments: %s returned %d rows, want %d", m.label, count, want)
		}
		res.Rows = append(res.Rows, Table6Row{
			Index:     m.label,
			Bucketing: m.bucketing,
			Runtime:   elapsed,
			SizeBytes: m.size,
			Rows:      count,
			PagesRead: st.Reads,
		})
	}
	return res, nil
}

// Print renders the table like the paper's Table 6.
func (r *Table6Result) Print(w io.Writer) {
	fprintf(w, "Table 6: single and composite CMs for an SDSS range query (%d rows)\n", r.TableRows)
	fprintf(w, "%-16s %-14s %12s %12s %8s %8s\n", "Index", "Bucketing", "Runtime [ms]", "Size [KB]", "pages", "rows")
	for _, row := range r.Rows {
		fprintf(w, "%-16s %-14s %12s %12.1f %8d %8d\n",
			row.Index, row.Bucketing, ms(row.Runtime), float64(row.SizeBytes)/1024, row.PagesRead, row.Rows)
	}
}
