package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/value"
)

// selected runs one arm of the resolver and returns each selected key's
// purity, failing if the arm hands out a key twice: a consumer folds an
// entry's statistics per visit.
func selected(t *testing.T, name string, arm func(fn cmEntryFunc)) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	arm(func(e core.Entry, vals []value.Value, pure bool) {
		if _, dup := out[e.Key]; dup {
			t.Errorf("%s: key %x (%v) selected twice", name, e.Key, vals)
		}
		out[e.Key] = pure
	})
	return out
}

// TestCMResolverArmsAgree is the resolver's property: over random
// composite CMs — identity and bucketed columns mixed — and random
// Eq / IN / range predicate sets, whenever the direct-lookup arm applies
// it selects exactly the entries a full walk selects, with the same
// purity, each once — IN lists that repeat a value or name several
// values of one bucket included.
func TestCMResolverArmsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	val := func() value.Value { return value.NewInt(int64(rng.Intn(36)) - 2) } // some absent on both sides
	direct := 0
	for round := 0; round < 400; round++ {
		ncols := 1 + rng.Intn(3)
		spec := core.Spec{Name: "p", UCols: make([]int, ncols), Bucketers: make([]core.Bucketer, ncols)}
		for i := range spec.UCols {
			spec.UCols[i] = i
			if w := []int64{0, 4, 8}[rng.Intn(3)]; w > 0 {
				spec.Bucketers[i] = core.IntWidth{Width: w}
			}
		}
		cm := core.New(spec)
		for i := 0; i < 150; i++ {
			row := make(value.Row, ncols)
			for c := range row {
				row[c] = value.NewInt(int64(rng.Intn(32)))
			}
			cm.AddRow(row, int32(rng.Intn(10)))
		}
		var preds []Pred
		for c := 0; c < ncols; c++ {
			for n := 1 + rng.Intn(4)/3; n > 0; n-- { // now and then two predicates on a column
				switch rng.Intn(8) {
				case 0: // unpredicated
				case 1, 2:
					lo, hi := val(), val()
					preds = append(preds, Pred{Col: c, Op: OpRange, Lo: &lo, Hi: &hi, LoExcl: rng.Intn(2) == 0, HiExcl: rng.Intn(2) == 0})
				case 3, 4:
					preds = append(preds, Eq(c, val()))
				default:
					vals := make([]value.Value, 1+rng.Intn(5))
					for i := range vals {
						vals[i] = val()
					}
					vals = append(vals, vals[0]) // IN (5, ..., 5)
					preds = append(preds, In(c, vals...))
				}
			}
		}
		r, ok := newCMResolver(cm, NewQuery(preds...))
		if !ok {
			continue
		}
		name := fmt.Sprintf("round %d: %v over %v", round, preds, spec.Bucketers)
		walked := selected(t, name+" (walk)", func(fn cmEntryFunc) {
			if err := r.walk(fn); err != nil {
				t.Fatal(err)
			}
		})
		parts := r.pointParts()
		if parts == nil {
			continue
		}
		direct++
		looked := selected(t, name+" (lookup)", func(fn cmEntryFunc) { r.lookup(parts, fn) })
		if len(looked) != len(walked) {
			t.Errorf("%s: lookup selects %d entries, walk %d", name, len(looked), len(walked))
		}
		for k, pure := range walked {
			if got, ok := looked[k]; !ok || got != pure {
				t.Errorf("%s: key %x: walk says selected, pure=%v; lookup says selected=%v, pure=%v", name, k, pure, ok, got)
			}
		}
	}
	if direct < 50 {
		t.Fatalf("only %d of the rounds reached the direct-lookup arm; generator broken", direct)
	}
}

// TestCMResolverYieldsAKeyOnce pins the two literal shapes: IN (5, 5)
// over an identity column and IN (5, 6) over a width-4 column are one
// key, selected once, so a statistic is folded once.
func TestCMResolverYieldsAKeyOnce(t *testing.T) {
	for _, b := range []core.Bucketer{nil, core.IntWidth{Width: 4}} {
		cm := core.New(core.Spec{Name: "p", UCols: []int{0}, Bucketers: []core.Bucketer{b}})
		for i := int64(0); i < 16; i++ {
			cm.AddRow(value.Row{value.NewInt(i)}, int32(i/4))
		}
		for _, in := range []Pred{In(0, value.NewInt(5), value.NewInt(5)), In(0, value.NewInt(5), value.NewInt(6))} {
			r, _ := newCMResolver(cm, NewQuery(in))
			want := 1
			if b == nil && in.Vals[0] != in.Vals[1] {
				want = 2 // identity: 5 and 6 are two keys
			}
			got := selected(t, fmt.Sprint(in, " over ", b), func(fn cmEntryFunc) {
				if err := r.each(fn); err != nil {
					t.Fatal(err)
				}
			})
			if len(got) != want {
				t.Errorf("%v over %v selects %d keys, want %d", in, b, len(got), want)
			}
		}
	}
}
