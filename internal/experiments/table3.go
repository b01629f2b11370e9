package experiments

import (
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// Table3Config scales the clustered-bucketing granularity study.
type Table3Config struct {
	SDSS        datagen.SDSSConfig
	BucketSizes []int // pages per clustered bucket; paper: 1,5,10,15,20,40
	FieldValues int   // fieldID values per lookup; paper's SX6 uses 2
}

func (c *Table3Config) defaults() {
	if len(c.BucketSizes) == 0 {
		c.BucketSizes = []int{1, 5, 10, 15, 20, 40}
	}
	if c.FieldValues <= 0 {
		c.FieldValues = 2
	}
	if c.SDSS.Rows() == 0 {
		c.SDSS = datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200}
	}
}

// Table3Row is one bucket granularity.
type Table3Row struct {
	BucketPages  int
	PagesScanned uint64
	IOCost       time.Duration
}

// Table3Result is the granularity sweep.
type Table3Result struct {
	Rows      []Table3Row
	TableRows int64
}

// RunTable3 reproduces Table 3: an SX6-style lookup of two fieldID
// values through a CM, as the clustered attribute bucketing widens from
// 1 to 40 pages per bucket. Wider buckets add only sequential reads, so
// cost grows slowly — the observation that lets the paper default to ~10
// pages per bucket.
func RunTable3(cfg Table3Config) (*Table3Result, error) {
	cfg.defaults()
	rows := datagen.PhotoTag(cfg.SDSS)
	res := &Table3Result{}
	for _, bp := range cfg.BucketSizes {
		env := NewEnv(4096)
		tbl, err := env.LoadTable(table.Config{
			Name:          "phototag",
			Schema:        datagen.SDSSSchema(),
			ClusteredCols: []int{datagen.SDSSObjID},
			BucketPages:   bp,
		}, rows)
		if err != nil {
			return nil, err
		}
		cm, err := tbl.CreateCM(core.Spec{Name: "fieldID", UCols: []int{datagen.SDSSFieldID}})
		if err != nil {
			return nil, err
		}
		res.TableRows = tbl.Stats().TotalTups
		// Two mid-survey fields, as in the SX6 query.
		q := exec.NewQuery(exec.In(datagen.SDSSFieldID,
			value.NewInt(100+int64(cfg.SDSS.FieldsPerStripe)), // start of stripe 2
			value.NewInt(100+2*int64(cfg.SDSS.FieldsPerStripe)+3),
		))
		elapsed, st, err := env.Cold(func() error {
			return runForced(tbl, exec.MethodCM, cm.Spec().Name, q, func(value.Row) bool { return true })
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table3Row{
			BucketPages:  bp,
			PagesScanned: st.Reads,
			IOCost:       elapsed,
		})
	}
	return res, nil
}

// Print renders the table like the paper's Table 3.
func (r *Table3Result) Print(w io.Writer) {
	fprintf(w, "Table 3: clustered bucketing granularity vs I/O cost (%d rows)\n", r.TableRows)
	fprintf(w, "%24s %16s %14s\n", "Bucket Size [pgs/bucket]", "Pages Scanned", "IO Cost [ms]")
	for _, row := range r.Rows {
		fprintf(w, "%24d %16d %14s\n", row.BucketPages, row.PagesScanned, ms(row.IOCost))
	}
}
