package experiments

import (
	"io"
	"time"

	"repro/internal/advisor"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/table"
	"repro/internal/value"
)

// AdvisorTablesConfig scales Tables 4 and 5, which share the SX6 query
// and the advisor preparation scan.
type AdvisorTablesConfig struct {
	SDSS       datagen.SDSSConfig
	SampleSize int
}

func (c *AdvisorTablesConfig) defaults() {
	if c.SDSS.Rows() == 0 {
		c.SDSS = datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120}
	}
	if c.SampleSize <= 0 {
		c.SampleSize = 30000
	}
}

// Table4Row describes the bucketings considered for one attribute.
type Table4Row struct {
	Column      string
	Cardinality float64
	MinLevel    int // 0 = "none"
	MaxLevel    int
	Options     int
}

// Table5Row is one candidate CM design.
type Table5Row struct {
	SlowdownPct float64
	Design      string
	SizeBytes   int64
	SizeRatio   float64 // CM size / B+Tree size
	Runtime     time.Duration
}

// AdvisorTablesResult bundles both tables.
type AdvisorTablesResult struct {
	Table4 []Table4Row
	Table5 []Table5Row
}

// sx6Query builds the SX6-style training query of the paper:
// fieldID IN (...) AND mode = 1 AND type = 6 AND psfMag_g < 20.
func sx6Query() exec.Query {
	return exec.NewQuery(
		exec.In(datagen.SDSSFieldID, value.NewInt(105), value.NewInt(140)),
		exec.Eq(datagen.SDSSMode, value.NewInt(1)),
		exec.Eq(datagen.SDSSType, value.NewInt(6)),
		exec.Le(datagen.SDSSPsfMagG, value.NewFloat(20)),
	)
}

// sx6Advisor loads the PhotoTag table clustered on objID and prepares
// an advisor over a sample of it.
func sx6Advisor(cfg AdvisorTablesConfig) (*advisor.Advisor, table.Schema, error) {
	cfg.defaults()
	env := NewEnv(4096)
	tbl, err := env.LoadTable(table.Config{
		Name:          "phototag",
		Schema:        datagen.SDSSSchema(),
		ClusteredCols: []int{datagen.SDSSObjID},
	}, datagen.PhotoTag(cfg.SDSS))
	if err != nil {
		return nil, table.Schema{}, err
	}
	adv, err := advisor.New(tbl, advisor.Config{SampleSize: cfg.SampleSize, Seed: 1})
	return adv, tbl.Schema(), err
}

// RunAdvisorTables reproduces Table 4 (bucketings considered per
// attribute of the SX6 query) and Table 5 (candidate CM designs ranked
// by estimated slowdown vs a secondary B+Tree, with size ratios).
func RunAdvisorTables(cfg AdvisorTablesConfig) (*AdvisorTablesResult, error) {
	adv, sch, err := sx6Advisor(cfg)
	if err != nil {
		return nil, err
	}

	res := &AdvisorTablesResult{}
	for _, col := range []int{datagen.SDSSMode, datagen.SDSSType, datagen.SDSSPsfMagG, datagen.SDSSFieldID} {
		opts := adv.BucketingsFor(col)
		row := Table4Row{
			Column:      sch.Cols[col].Name,
			Cardinality: adv.DistinctEstimate(col),
			Options:     len(opts),
		}
		if len(opts) > 0 {
			row.MinLevel, row.MaxLevel = opts[0].Level, opts[0].Level
			for _, o := range opts {
				if o.Level < row.MinLevel {
					row.MinLevel = o.Level
				}
				if o.Level > row.MaxLevel {
					row.MaxLevel = o.Level
				}
			}
		}
		res.Table4 = append(res.Table4, row)
	}

	cands, err := adv.AllCandidates(sx6Query())
	if err != nil {
		return nil, err
	}
	// The paper's Table 5 presents the runtime-vs-size tradeoff curve;
	// dominated designs (no faster, no smaller) are uninformative.
	cands = advisor.ParetoFront(cands)
	limit := 12
	if len(cands) < limit {
		limit = len(cands)
	}
	for _, c := range cands[:limit] {
		ratio := 0.0
		if c.EstBTreeSz > 0 {
			ratio = float64(c.EstSize) / float64(c.EstBTreeSz)
		}
		res.Table5 = append(res.Table5, Table5Row{
			SlowdownPct: c.SlowdownPct,
			Design:      c.Describe(sch),
			SizeBytes:   c.EstSize,
			SizeRatio:   ratio,
			Runtime:     c.EstRuntime,
		})
	}
	return res, nil
}

// Print renders both tables in the paper's format.
func (r *AdvisorTablesResult) Print(w io.Writer) {
	fprintf(w, "Table 4: unclustered attribute bucketings considered for the SX6 query\n")
	fprintf(w, "%-12s %14s %18s\n", "Column", "Cardinality", "Bucket Widths")
	for _, row := range r.Table4 {
		widths := "none"
		if row.MaxLevel > 0 {
			if row.MinLevel == 0 {
				widths = sprintf("none ~ 2^%d", row.MaxLevel)
			} else {
				widths = sprintf("2^%d ~ 2^%d", row.MinLevel, row.MaxLevel)
			}
		}
		fprintf(w, "%-12s %14.0f %18s\n", row.Column, row.Cardinality, widths)
	}
	fprintf(w, "\nTable 5: CM designs vs estimated performance drop (smallest within target wins)\n")
	fprintf(w, "%10s  %-44s %12s %10s\n", "Runtime", "CM Design", "Size [KB]", "Ratio")
	for _, row := range r.Table5 {
		fprintf(w, "%+9.1f%%  %-44s %12.1f %9.2f%%\n",
			row.SlowdownPct, row.Design, float64(row.SizeBytes)/1024, row.SizeRatio*100)
	}
}
