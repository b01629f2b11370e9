package core

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/value"
)

// TestCMInsertDeleteRetraction is the Algorithm 1 invariant as a
// property test: for random add sequences (with heavy key and bucket
// collisions), removing every addition — in random order — retracts all
// co-occurrence state: no keys, no pairs, zero size.
func TestCMInsertDeleteRetraction(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cm := New(Spec{
			Name:      "p",
			UCols:     []int{0, 1},
			Bucketers: []Bucketer{IntWidth{Width: 4}, nil}, // one bucketed, one identity column
		})
		type op struct {
			row value.Row
			cb  int32
		}
		n := 200 + rng.Intn(800)
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{
				row: value.Row{
					value.NewInt(int64(rng.Intn(40))),
					value.NewInt(int64(rng.Intn(6))),
				},
				cb: int32(rng.Intn(12)),
			}
			cm.AddRow(ops[i].row, ops[i].cb)
		}
		if cm.Keys() == 0 || cm.Pairs() == 0 || cm.SizeBytes() <= 0 {
			t.Fatalf("seed %d: degenerate fixture: keys=%d pairs=%d size=%d",
				seed, cm.Keys(), cm.Pairs(), cm.SizeBytes())
		}
		rng.Shuffle(n, func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
		for i, o := range ops {
			if err := cm.RemoveRow(o.row, o.cb); err != nil {
				t.Fatalf("seed %d: remove %d/%d: %v", seed, i, n, err)
			}
		}
		if cm.Keys() != 0 {
			t.Errorf("seed %d: %d keys remain after full retraction", seed, cm.Keys())
		}
		if cm.Pairs() != 0 {
			t.Errorf("seed %d: %d pairs remain after full retraction", seed, cm.Pairs())
		}
		if cm.SizeBytes() != 0 {
			t.Errorf("seed %d: size %d after full retraction, want 0", seed, cm.SizeBytes())
		}
	}
}

// TestCMPartialRetractionMatchesRebuild checks a stronger property:
// after each removal of a random addition, the CM is identical to one
// built from only the surviving rows — Walk-equal (keys, runs, counts),
// every stored run strictly ascending, every Lookup the rebuilt CM's.
func TestCMPartialRetractionMatchesRebuild(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		spec := Spec{Name: "p", UCols: []int{0}, Bucketers: []Bucketer{IntWidth{Width: 8}}}
		cm := New(spec)
		type op struct {
			row value.Row
			cb  int32
		}
		n := 500
		ops := make([]op, n)
		for i := range ops {
			ops[i] = op{
				row: value.Row{value.NewInt(int64(rng.Intn(100)))},
				cb:  int32(rng.Intn(20)),
			}
			cm.AddRow(ops[i].row, ops[i].cb)
		}
		removed := map[int]bool{}
		for i := 0; i < n/2; i++ {
			k := rng.Intn(n)
			if removed[k] {
				continue
			}
			removed[k] = true
			if err := cm.RemoveRow(ops[k].row, ops[k].cb); err != nil {
				t.Fatalf("seed %d: remove: %v", seed, err)
			}
			rebuilt := New(spec)
			for i, o := range ops {
				if !removed[i] {
					rebuilt.AddRow(o.row, o.cb)
				}
			}
			requireSameCM(t, cm, rebuilt)
			for u := int64(0); u < 100; u++ {
				if got, want := cm.Lookup(value.NewInt(u)), rebuilt.Lookup(value.NewInt(u)); !slices.Equal(got, want) {
					t.Fatalf("seed %d: lookup(%d): %v vs rebuilt %v", seed, u, got, want)
				}
			}
		}
	}
}

// TestCMRemoveUnrecordedPair checks retraction refuses pairs that were
// never added (the error path recovery relies on).
func TestCMRemoveUnrecordedPair(t *testing.T) {
	cm := New(Spec{Name: "p", UCols: []int{0}})
	cm.AddRow(value.Row{value.NewInt(1)}, 3)
	if err := cm.RemoveRow(value.Row{value.NewInt(1)}, 4); err == nil {
		t.Error("remove of unrecorded bucket succeeded")
	}
	if err := cm.RemoveRow(value.Row{value.NewInt(2)}, 3); err == nil {
		t.Error("remove of unrecorded key succeeded")
	}
}

// TestAddRunMatchesAddRow: folding rows a run of one pair at a time
// (AddRun, as a table's bulk scan does) leaves the checkpoint bytes that
// adding each row with AddRow, in order, leaves — counts, int sums and
// extremes, float sums rounded row by row (with NaNs, infinities and
// signed zeros among the values), string extremes, and the pairs'
// bucket runs — however the rows are cut into runs, and whether a pair's
// runs come back to it later.
func TestAddRunMatchesAddRow(t *testing.T) {
	floats := []float64{0.1, -0.2, 1e300, -1e300, 3, math.Copysign(0, -1), 0, math.Inf(1), math.NaN(), 1e-300}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		spec := Spec{Name: "p", UCols: []int{0}, StatCols: []int{0, 1, 2, 3}}
		perRow, perRun := New(spec), New(spec)
		type row struct {
			vals value.Row
			cb   int32
		}
		rows := make([]row, 200)
		for i := range rows {
			rows[i] = row{value.Row{
				value.NewInt(int64(rng.Intn(4))),
				value.NewInt(rng.Int63n(2000) - 1000),
				value.NewFloat(floats[rng.Intn(len(floats))]),
				value.NewString(string(rune('a' + rng.Intn(5)))),
			}, int32(rng.Intn(3))}
			perRow.AddRow(rows[i].vals, rows[i].cb)
		}
		for i := 0; i < len(rows); {
			// A run is rows of one pair: as many of the next rows as share
			// the first one's key and bucket, cut short at random.
			j := i + 1
			for j < len(rows) && rows[j].cb == rows[i].cb && rows[j].vals[0].I == rows[i].vals[0].I && rng.Intn(4) > 0 {
				j++
			}
			runs := []StatRun{{Kind: value.Int}, {Kind: value.Int}, {Kind: value.Float}, {Kind: value.String}}
			for k, r := range rows[i:j] {
				for c, v := range r.vals[:2] {
					if k == 0 || v.I < runs[c].MinI {
						runs[c].MinI = v.I
					}
					if k == 0 || v.I > runs[c].MaxI {
						runs[c].MaxI = v.I
					}
					runs[c].SumI += v.I
				}
				runs[2].F = append(runs[2].F, r.vals[2].F)
				if s := r.vals[3].S; k == 0 || s < runs[3].MinS {
					runs[3].MinS = s
				}
				if s := r.vals[3].S; k == 0 || s > runs[3].MaxS {
					runs[3].MaxS = s
				}
			}
			perRun.AddRun(perRun.AppendKeyForRow(nil, rows[i].vals), rows[i].cb, int64(j-i), runs)
			i = j
		}
		var a, b bytes.Buffer
		if err := perRow.Serialize(&a); err != nil {
			t.Fatal(err)
		}
		if err := perRun.Serialize(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) || perRow.SizeBytes() != perRun.SizeBytes() || perRun.StatsValid() != perRow.StatsValid() {
			t.Fatalf("seed %d: a CM folded by runs differs from one folded by rows", seed)
		}
	}
}
