package exec_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/buffer"
	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// These tests pin the access-path choice — the Section 4 model over this
// package's physical facts — through the one place it is made:
// plan.Compile under exec.MethodAuto.

// choose compiles the one-conjunction query under Auto and returns the
// tree with its access-path summary.
func choose(t *testing.T, tbl *table.Table, q exec.Query, sp exec.StatsProvider) (*plan.Tree, plan.PlanInfo) {
	t.Helper()
	tr, err := plan.Compile(tbl, plan.Spec{Disjuncts: []exec.Query{q}}, sp)
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.Explain()
}

// paperScaleStats stubs StatsProvider with statistics shaped like the
// paper's multi-gigabyte tables, where a 5.5 ms seek is cheap relative to
// scanning hundreds of thousands of pages.
type paperScaleStats struct {
	pair costmodel.PairStats
}

func (s paperScaleStats) TableStats(*table.Table) costmodel.TableStats {
	return costmodel.TableStats{TupsPerPage: 60, TotalTups: 18e6, BTreeHeight: 3}
}

func (s paperScaleStats) PairStats(*table.Table, []int) (costmodel.PairStats, bool) {
	return s.pair, true
}

func TestPlannerPrefersIndexAtPaperScale(t *testing.T) {
	tbl, _, _ := exec.PlannerFixture(t, 500, 9)
	// Correlated pair: a selective lookup through the index beats a 300k
	// page scan.
	sp := paperScaleStats{pair: costmodel.PairStats{UTups: 7000, CTups: 7000, CPerU: 3}}
	_, p := choose(t, tbl, exec.NewQuery(exec.Eq(1, value.NewInt(25))), sp)
	if p.Method == exec.MethodTableScan {
		t.Errorf("plan = %v, expected an index-based method at paper scale", p.Method)
	}
	if p.EstimatedCost <= 0 {
		t.Error("plan cost not positive")
	}
}

func TestPlannerPrefersScanWhenUncorrelated(t *testing.T) {
	tbl, _, _ := exec.PlannerFixture(t, 500, 10)
	// Uncorrelated pair with many lookups: cost model caps at scan, so
	// the tie goes to the plain scan (strictly-less comparison).
	sp := paperScaleStats{pair: costmodel.PairStats{UTups: 7000, CTups: 7000, CPerU: 7000}}
	q := exec.NewQuery(exec.In(1, value.NewInt(1), value.NewInt(2), value.NewInt(3),
		value.NewInt(4), value.NewInt(5)))
	// The CM on the tiny fixture has few buckets, so it may still win;
	// the B+Tree paths must not.
	if _, p := choose(t, tbl, q, sp); p.Method == exec.MethodSorted || p.Method == exec.MethodPipelined {
		t.Errorf("plan = %v, B+Tree should not beat scan when uncorrelated", p.Method)
	}
}

func TestPlannerChosenPlanExecutes(t *testing.T) {
	tbl, all, _ := exec.PlannerFixture(t, 5000, 9)
	tr, p := choose(t, tbl, exec.NewQuery(exec.Eq(1, value.NewInt(25))), exec.NewExactStats())
	rows := 0
	if err := tr.Run(1, plan.Sink{Row: func(value.Row) bool { rows++; return true }}); err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range all {
		if r[1].I == 25 {
			want++
		}
	}
	if rows != want {
		t.Errorf("plan (%v) returned %d rows, want %d", p.Method, rows, want)
	}
}

func TestPlannerFallsBackToScanWithoutAccessPaths(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 1024})
	pool := buffer.NewPool(d, 64)
	sch := table.NewSchema(table.Column{Name: "a", Kind: value.Int})
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.Load([]value.Row{{value.NewInt(1)}, {value.NewInt(2)}}); err != nil {
		t.Fatal(err)
	}
	if _, p := choose(t, tbl, exec.NewQuery(exec.Eq(0, value.NewInt(1))), exec.NewExactStats()); p.Method != exec.MethodTableScan {
		t.Errorf("plan = %v, want table scan", p.Method)
	}
}

// TestPlannerClusteredCrossover pins the clustered path's costing:
// point, IN and narrow-range predicates on the clustering column plan
// onto the clustered index with a cost below the scan's, a range
// spanning most buckets stays a table scan, a predicate the clustered
// index cannot use (Ne, or none on the leading column) never plans it,
// and planning itself — live table statistics plus the bucket
// directory — reads no page even from a cold pool. A narrow probe of a
// two-column clustering key (equality on the leading column, a range on
// the second) plans onto the clustered index too.
func TestPlannerClusteredCrossover(t *testing.T) {
	tbl, _, disk := exec.PlannerFixture(t, 40000, 9)
	sp := exec.NewExactStats()
	scan := costmodel.Scan(costmodel.DefaultHardware(), sp.TableStats(tbl))
	if err := tbl.Pool().FlushAll(); err != nil {
		t.Fatal(err)
	}
	tbl.Pool().Invalidate()
	before := disk.Stats().Reads

	cases := []struct {
		name string
		q    exec.Query
		want exec.Method
	}{
		{"point", exec.NewQuery(exec.Eq(0, value.NewInt(137))), exec.MethodClustered},
		{"in", exec.NewQuery(exec.In(0, value.NewInt(3), value.NewInt(250), value.NewInt(499))), exec.MethodClustered},
		{"narrow range", exec.NewQuery(exec.Between(0, value.NewInt(40), value.NewInt(60))), exec.MethodClustered},
		{"half-open narrow", exec.NewQuery(exec.Gt(0, value.NewInt(480))), exec.MethodClustered},
		{"most buckets", exec.NewQuery(exec.Between(0, value.NewInt(10), value.NewInt(490))), exec.MethodTableScan},
		{"every bucket", exec.NewQuery(exec.Ge(0, value.NewInt(0))), exec.MethodTableScan},
		{"ne only", exec.NewQuery(exec.Ne(0, value.NewInt(7))), exec.MethodTableScan},
	}
	var pointCost, rangeCost time.Duration
	for _, c := range cases {
		_, p := choose(t, tbl, c.q, sp)
		if p.Method != c.want {
			t.Errorf("%s: planned %v (cost %v, scan %v), want %v", c.name, p.Method, p.EstimatedCost, scan, c.want)
			continue
		}
		if c.want == exec.MethodClustered {
			if p.Uses != tbl.Name()+".clustered" {
				t.Errorf("%s: clustered plan reads %q, not the clustered index", c.name, p.Uses)
			}
			if p.EstimatedCost <= 0 || p.EstimatedCost >= scan {
				t.Errorf("%s: clustered cost %v not in (0, scan %v)", c.name, p.EstimatedCost, scan)
			}
		}
		switch c.name {
		case "point":
			pointCost = p.EstimatedCost
		case "narrow range":
			rangeCost = p.EstimatedCost
		}
	}
	// A range is charged for the buckets it spans, not as one lookup.
	if rangeCost <= pointCost {
		t.Errorf("narrow range cost %v not above point cost %v", rangeCost, pointCost)
	}
	if reads := disk.Stats().Reads - before; reads != 0 {
		t.Errorf("planning read %d pages, want 0", reads)
	}

	// The composite key of TestClusteredScanCompositePrefix.
	pool := buffer.NewPool(sim.NewDisk(sim.Config{PageSize: 1024}), 512)
	sch := table.NewSchema(
		table.Column{Name: "region", Kind: value.String},
		table.Column{Name: "day", Kind: value.Int},
		table.Column{Name: "payload", Kind: value.String},
	)
	comp, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	regions := []string{"east", "north", "south", "west"}
	var rows []value.Row
	for i := 0; i < 20000; i++ {
		rows = append(rows, value.Row{
			value.NewString(regions[i%len(regions)]), value.NewInt(int64(i / 200)),
			value.NewString(fmt.Sprintf("row-%d", i)),
		})
	}
	if err := comp.Load(rows); err != nil {
		t.Fatal(err)
	}
	q := exec.NewQuery(exec.Eq(0, value.NewString("south")), exec.Between(1, value.NewInt(10), value.NewInt(20)))
	if _, p := choose(t, comp, q, exec.NewExactStats()); p.Method != exec.MethodClustered {
		t.Errorf("composite prefix probe planned %v, want the clustered index", p.Method)
	}
}
