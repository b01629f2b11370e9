package advisor

import (
	"math"
	"testing"

	"repro/internal/buffer"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/wal"
)

// sdssFixture loads a small PhotoTag table clustered on objID.
func sdssFixture(t *testing.T) (*table.Table, *Advisor) {
	t.Helper()
	d := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(d, 2048)
	log := wal.NewLog(d)
	tbl, err := table.New(pool, log, table.Config{
		Name:          "phototag",
		Schema:        datagen.SDSSSchema(),
		ClusteredCols: []int{datagen.SDSSObjID},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := datagen.PhotoTag(datagen.SDSSConfig{
		Stripes: 5, FieldsPerStripe: 10, ObjsPerField: 40, Seed: 3,
	})
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	adv, err := New(tbl, Config{SampleSize: 4000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return tbl, adv
}

func TestDistinctEstimates(t *testing.T) {
	_, adv := sdssFixture(t)
	// mode has 3 distinct values; the DS estimate should be exact.
	if got := adv.DistinctEstimate(datagen.SDSSMode); got != 3 {
		t.Errorf("D(mode) = %v, want 3", got)
	}
	// fieldID has 50 in this fixture.
	if got := adv.DistinctEstimate(datagen.SDSSFieldID); got != 50 {
		t.Errorf("D(fieldID) = %v, want 50", got)
	}
}

func TestBucketingsForFewValued(t *testing.T) {
	_, adv := sdssFixture(t)
	// mode (3 values) needs no bucketing, like the paper's Table 4.
	opts := adv.BucketingsFor(datagen.SDSSMode)
	if len(opts) == 0 || opts[0].Level != 0 {
		t.Fatalf("mode options = %+v, want identity first", opts)
	}
}

func TestBucketingsForManyValued(t *testing.T) {
	_, adv := sdssFixture(t)
	// psfMag_g is effectively unique per row: identity bucketing is
	// allowed only if cardinality <= 2^16, and width options must exist.
	opts := adv.BucketingsFor(datagen.SDSSPsfMagG)
	hasWidth := false
	for _, o := range opts {
		if o.Level > 0 {
			hasWidth = true
			if o.EstBuckets > math.Pow(2, 16)+1 {
				t.Errorf("option %+v exceeds max buckets", o)
			}
		}
	}
	if !hasWidth {
		t.Error("many-valued column offers no width bucketings")
	}
}

func TestRecommendSX6(t *testing.T) {
	_, adv := sdssFixture(t)
	// SX6-style query: fieldID IN (2 values) AND mode = 1 AND type = 6
	// AND psfMag_g < 20.
	q := exec.NewQuery(
		exec.In(datagen.SDSSFieldID, value.NewInt(105), value.NewInt(120)),
		exec.Eq(datagen.SDSSMode, value.NewInt(1)),
		exec.Eq(datagen.SDSSType, value.NewInt(6)),
		exec.Le(datagen.SDSSPsfMagG, value.NewFloat(20)),
	)
	cands, err := adv.Recommend(q, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(cands) == 0 {
		t.Fatal("no candidates within 10% slowdown")
	}
	// Recommendation is the smallest; must be far smaller than the
	// estimated B+Tree.
	best := cands[0]
	if best.EstSize <= 0 {
		t.Fatal("zero size estimate")
	}
	if best.EstSize >= best.EstBTreeSz {
		t.Errorf("recommended CM size %d not smaller than B+Tree %d", best.EstSize, best.EstBTreeSz)
	}
	// Sizes ascend through the list.
	for i := 1; i < len(cands); i++ {
		if cands[i].EstSize < cands[i-1].EstSize {
			t.Fatal("candidates not sorted by size")
		}
	}
	// Describe produces Table 5-style labels.
	if best.Describe(adv.tbl.Schema()) == "" {
		t.Error("empty description")
	}
}

func TestAllCandidatesSortedByRuntime(t *testing.T) {
	_, adv := sdssFixture(t)
	q := exec.NewQuery(
		exec.Eq(datagen.SDSSMode, value.NewInt(1)),
		exec.In(datagen.SDSSFieldID, value.NewInt(110), value.NewInt(111)),
	)
	cands, err := adv.AllCandidates(q)
	if err != nil {
		t.Fatal(err)
	}
	// Subsets {mode}, {fieldID}, {mode, fieldID} with >=1 bucketing each.
	if len(cands) < 3 {
		t.Fatalf("only %d candidates", len(cands))
	}
	for i := 1; i < len(cands); i++ {
		if cands[i].EstRuntime < cands[i-1].EstRuntime {
			t.Fatal("not sorted by estimated runtime")
		}
	}
}

func TestRecommendRejectsEmptyQuery(t *testing.T) {
	_, adv := sdssFixture(t)
	if _, err := adv.Recommend(exec.NewQuery(), 10); err == nil {
		t.Error("empty query should error")
	}
}

func TestDiscoverFDsFindsStructure(t *testing.T) {
	_, adv := sdssFixture(t)
	cols := []int{
		datagen.SDSSFieldID, datagen.SDSSRun, datagen.SDSSMode,
		datagen.SDSSPsfMagG, datagen.SDSSRowc,
	}
	fds := adv.DiscoverFDs(cols, 0.8, false)
	// fieldID -> run is a hard FD (each field belongs to one run):
	// must be discovered with strength ~1.
	found := false
	for _, fd := range fds {
		if len(fd.Determinant) == 1 && fd.Determinant[0] == datagen.SDSSFieldID &&
			fd.Dependent == datagen.SDSSRun {
			found = true
			if fd.Strength < 0.95 {
				t.Errorf("fieldID->run strength = %v", fd.Strength)
			}
		}
		// rowc (uniform float) must not be discovered as a dependent of
		// mode.
		if fd.Dependent == datagen.SDSSRowc && len(fd.Determinant) == 1 &&
			fd.Determinant[0] == datagen.SDSSMode {
			t.Errorf("spurious FD mode->rowc with strength %v", fd.Strength)
		}
	}
	if !found {
		t.Error("fieldID->run not discovered")
	}
	// Sorted by strength.
	for i := 1; i < len(fds); i++ {
		if fds[i].Strength > fds[i-1].Strength {
			t.Fatal("FDs not sorted")
		}
	}
}

func TestDiscoverMultiAttributeFD(t *testing.T) {
	// The city/state/zip shape: build a table where (a,b) determines c
	// but neither a nor b alone does.
	d := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(d, 512)
	sch := table.NewSchema(
		table.Column{Name: "id", Kind: value.Int},
		table.Column{Name: "a", Kind: value.Int},
		table.Column{Name: "b", Kind: value.Int},
		table.Column{Name: "c", Kind: value.Int},
	)
	tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: sch, ClusteredCols: []int{0}})
	if err != nil {
		t.Fatal(err)
	}
	var rows []value.Row
	for i := 0; i < 4000; i++ {
		a := int64(i % 20)
		b := int64((i / 20) % 20)
		c := a*20 + b // determined by the pair only
		rows = append(rows, value.Row{
			value.NewInt(int64(i)), value.NewInt(a), value.NewInt(b), value.NewInt(c),
		})
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	adv, err := New(tbl, Config{SampleSize: 3000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	fds := adv.DiscoverFDs([]int{1, 2, 3}, 0.9, true)
	var pairFound, singleFound bool
	for _, fd := range fds {
		if fd.Dependent == 3 {
			if len(fd.Determinant) == 2 {
				pairFound = true
			}
			if len(fd.Determinant) == 1 {
				singleFound = true
			}
		}
	}
	if !pairFound {
		t.Error("(a,b)->c not discovered")
	}
	if singleFound {
		t.Error("a->c or b->c wrongly discovered at strength 0.9")
	}
}

func TestSampleSize(t *testing.T) {
	_, adv := sdssFixture(t)
	if len(adv.rows) != 2000 {
		// 5*10*40 = 2000 rows, all fit in the 4000 reservoir.
		t.Errorf("sample size = %d, want 2000", len(adv.rows))
	}
}

func TestParetoFront(t *testing.T) {
	cands := []Candidate{
		{EstRuntime: 10, EstSize: 100},
		{EstRuntime: 12, EstSize: 120}, // dominated: slower and bigger
		{EstRuntime: 15, EstSize: 50},
		{EstRuntime: 20, EstSize: 50}, // dominated: slower, same size
		{EstRuntime: 25, EstSize: 10},
	}
	front := ParetoFront(cands)
	if len(front) != 3 {
		t.Fatalf("front size = %d, want 3", len(front))
	}
	if front[0].EstSize != 100 || front[1].EstSize != 50 || front[2].EstSize != 10 {
		t.Errorf("front = %+v", front)
	}
	if len(ParetoFront(nil)) != 0 {
		t.Error("empty input should yield empty front")
	}
}
