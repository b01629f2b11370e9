package core

import (
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
