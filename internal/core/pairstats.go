package core

import (
	"math"
	"unique"

	"repro/internal/value"
)

// pairStats holds every pair's statistics as columns indexed by the
// pair's slot (Entry.Slots): the co-occurrence count (Algorithm 1's
// reference count, widened), the MMDirty flag, and per stat column the
// sum and extremes in arrays of the column's kind. Nothing in it holds a
// pointer except the string extremes, which are interned handles — one
// shared copy of each distinct string. A removed pair's slot is zeroed
// and goes on the free list for the next new pair.
type pairStats struct {
	count []int64
	dirty []bool // a retraction removed one of the slot's recorded extremes
	free  []int32
	cols  []statCol // indexed like Spec.StatCols
}

// untyped is a stat column's kind until the first value reaches it.
const untyped value.Kind = math.MaxUint8

// statCol is one stat column's carriers, indexed by slot. The column
// takes the kind of the first value folded into it or read for it from
// a checkpoint — the schema's, since the table validates every row
// against it — and only the arrays of that kind exist: an int column
// keeps its sums and extremes exactly in int64s, a float column in
// float64s, and a string column only its extremes (its sum is zero).
type statCol struct {
	kind             value.Kind
	sumI, minI, maxI []int64
	sumF, minF, maxF []float64
	minS, maxS       []unique.Handle[string]
}

func newPairStats(nstat int) pairStats {
	cols := make([]statCol, nstat)
	for i := range cols {
		cols[i].kind = untyped
	}
	return pairStats{cols: cols}
}

// col returns stat column i and whether it holds values of kind k. A
// column no value has reached yet takes kind k first.
func (ps *pairStats) col(i int, k value.Kind) (*statCol, bool) {
	c := &ps.cols[i]
	if c.kind == untyped {
		c.adopt(k, len(ps.count))
	}
	return c, c.kind == k
}

// adopt gives an untyped column kind k and a zeroed carrier for each of
// the n existing slots; a kind no column can hold leaves it untyped.
func (c *statCol) adopt(k value.Kind, n int) {
	switch k {
	case value.Int:
		c.sumI, c.minI, c.maxI = make([]int64, n), make([]int64, n), make([]int64, n)
	case value.Float:
		c.sumF, c.minF, c.maxF = make([]float64, n), make([]float64, n), make([]float64, n)
	case value.String:
		c.minS, c.maxS = make([]unique.Handle[string], n), make([]unique.Handle[string], n)
	default:
		return
	}
	c.kind = k
}

// newSlot hands out a slot with a zero count, dirty mark and sums: the
// last one freed, else a new one at the end of every column.
func (ps *pairStats) newSlot() int32 {
	if n := len(ps.free); n > 0 {
		s := ps.free[n-1]
		ps.free = ps.free[:n-1]
		return s
	}
	s := int32(len(ps.count))
	ps.count = append(ps.count, 0)
	ps.dirty = append(ps.dirty, false)
	for i := range ps.cols {
		c := &ps.cols[i]
		switch c.kind {
		case value.Int:
			c.sumI, c.minI, c.maxI = append(c.sumI, 0), append(c.minI, 0), append(c.maxI, 0)
		case value.Float:
			c.sumF, c.minF, c.maxF = append(c.sumF, 0), append(c.minF, 0), append(c.maxF, 0)
		case value.String:
			c.minS, c.maxS = append(c.minS, unique.Handle[string]{}), append(c.maxS, unique.Handle[string]{})
		}
	}
	return s
}

// freeSlot files slot s, whose pair is gone and whose count is 0, for
// reuse. It zeroes what the pair's next first value does not set: the
// dirty mark and the sums; and it lets go of the string extremes, so
// their interned strings can be collected before the slot is reused.
func (ps *pairStats) freeSlot(s int32) {
	ps.dirty[s] = false
	for i := range ps.cols {
		c := &ps.cols[i]
		switch c.kind {
		case value.Int:
			c.sumI[s] = 0
		case value.Float:
			c.sumF[s] = 0
		case value.String:
			c.minS[s], c.maxS[s] = unique.Handle[string]{}, unique.Handle[string]{}
		}
	}
	ps.free = append(ps.free, s)
}

// add folds v, of the column's kind, into slot s; first says v is the
// pair's only value so far. Extremes move only on a strict comparison,
// as value.Compare orders the column's kind.
func (c *statCol) add(s int32, v value.Value, first bool) {
	switch c.kind {
	case value.Int:
		c.sumI[s] += v.I
		if first || v.I < c.minI[s] {
			c.minI[s] = v.I
		}
		if first || v.I > c.maxI[s] {
			c.maxI[s] = v.I
		}
	case value.Float:
		c.sumF[s] += v.F
		if first || v.F < c.minF[s] {
			c.minF[s] = v.F
		}
		if first || v.F > c.maxF[s] {
			c.maxF[s] = v.F
		}
	default:
		if first || v.S < str(c.minS[s]) {
			c.minS[s] = unique.Make(v.S)
		}
		if first || v.S > str(c.maxS[s]) {
			c.maxS[s] = unique.Make(v.S)
		}
	}
}

// addRun folds a run of rows, summarized as r, into slot s as add folds
// each of them in turn; first says the run's first row is the pair's
// first. Extremes move only on a strict comparison, so a run's extremes
// move the slot's as its rows would.
func (c *statCol) addRun(s int32, r StatRun, first bool) {
	switch c.kind {
	case value.Int:
		c.sumI[s] += r.SumI
		if first || r.MinI < c.minI[s] {
			c.minI[s] = r.MinI
		}
		if first || r.MaxI > c.maxI[s] {
			c.maxI[s] = r.MaxI
		}
	case value.Float:
		for i, f := range r.F {
			c.add(s, value.NewFloat(f), first && i == 0)
		}
	default:
		if first || r.MinS < str(c.minS[s]) {
			c.minS[s] = unique.Make(r.MinS)
		}
		if first || r.MaxS > str(c.maxS[s]) {
			c.maxS[s] = unique.Make(r.MaxS)
		}
	}
}

// retract takes v, of the column's kind, out of slot s's sum and reports
// whether v compares equal to one of the recorded extremes, which may
// then be stale.
func (c *statCol) retract(s int32, v value.Value) (extreme bool) {
	switch c.kind {
	case value.Int:
		c.sumI[s] -= v.I
		return v.I == c.minI[s] || v.I == c.maxI[s]
	case value.Float:
		c.sumF[s] -= v.F
		return floatEq(v.F, c.minF[s]) || floatEq(v.F, c.maxF[s])
	default:
		return v.S == str(c.minS[s]) || v.S == str(c.maxS[s])
	}
}

// floatEq is value.Compare's equality on floats: neither orders below
// the other.
func floatEq(a, b float64) bool { return !(a < b) && !(a > b) }

// stat returns slot s's carriers as the checkpoint and the aggregates
// read them: the sum in the carrier of the column's kind (the other
// zero) and the extremes as values. A column no value has reached yet
// (its statistics come from a checkpoint of another layout) reads as
// zeros.
func (c *statCol) stat(s int32) (sumI int64, sumF float64, lo, hi value.Value) {
	switch c.kind {
	case value.Int:
		return c.sumI[s], 0, value.NewInt(c.minI[s]), value.NewInt(c.maxI[s])
	case value.Float:
		return 0, c.sumF[s], value.NewFloat(c.minF[s]), value.NewFloat(c.maxF[s])
	case value.String:
		return 0, 0, value.NewString(str(c.minS[s])), value.NewString(str(c.maxS[s]))
	}
	return 0, 0, value.Value{}, value.Value{}
}

// set stores carriers read from a checkpoint in slot s; it reports false
// when they cannot be the column's — an extreme of another kind, or a
// nonzero sum in the other kind's carrier.
func (c *statCol) set(s int32, sumI int64, sumF float64, lo, hi value.Value) bool {
	if lo.K != c.kind || hi.K != c.kind || (c.kind != value.Int && sumI != 0) || (c.kind != value.Float && math.Float64bits(sumF) != 0) {
		return false
	}
	switch c.kind {
	case value.Int:
		c.sumI[s], c.minI[s], c.maxI[s] = sumI, lo.I, hi.I
	case value.Float:
		c.sumF[s], c.minF[s], c.maxF[s] = sumF, lo.F, hi.F
	case value.String:
		c.minS[s], c.maxS[s] = unique.Make(lo.S), unique.Make(hi.S)
	}
	return true
}

// str is the interned string, "" for the zero handle of a slot that
// holds no value.
func str(h unique.Handle[string]) string {
	if h == (unique.Handle[string]{}) {
		return ""
	}
	return h.Value()
}

// internEntryBytes is what package unique keeps per distinct interned
// string beside its bytes — map entry, weak pointer and share of the
// hash trie — measured at 125–140 B on Go 1.24 (amd64) once a few
// thousand strings are interned.
const internEntryBytes = 128

// sizeBytes is the memory the columns own: every array's capacity, plus
// for each distinct string the live slots' extremes hold its bytes and
// the interning table's entry for it. It is exact up to allocator size
// classes and the measured internEntryBytes, and counts a string shared
// with another CM as this one's.
func (ps *pairStats) sizeBytes() int64 {
	n := 8*int64(cap(ps.count)) + int64(cap(ps.dirty)) + 4*int64(cap(ps.free))
	var strs map[unique.Handle[string]]struct{}
	for i := range ps.cols {
		c := &ps.cols[i]
		n += 8 * int64(cap(c.sumI)+cap(c.minI)+cap(c.maxI)+cap(c.sumF)+cap(c.minF)+cap(c.maxF))
		n += 8 * int64(cap(c.minS)+cap(c.maxS))
		if c.kind != value.String {
			continue
		}
		if strs == nil {
			strs = make(map[unique.Handle[string]]struct{})
		}
		for s, cnt := range ps.count {
			if cnt > 0 {
				strs[c.minS[s]], strs[c.maxS[s]] = struct{}{}, struct{}{}
			}
		}
	}
	for h := range strs {
		n += int64(len(str(h))) + internEntryBytes
	}
	return n
}
