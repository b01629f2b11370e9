package exec

import (
	"bytes"
	"encoding/binary"
	"math"
	"sort"
	"strconv"

	"repro/internal/table"
	"repro/internal/value"
)

// TupleFilter is a Query compiled against a Schema: it evaluates the
// predicate conjunction directly on encoded heap tuples, so rows are
// only materialized for tuples that survive. Compilation happens once
// per query; evaluation allocates nothing.
//
// A compiled filter is exactly equivalent to DecodeRow + Query.Matches:
// it returns the same boolean for every tuple DecodeRow accepts and the
// same error for every tuple DecodeRow rejects (the structural check
// runs first, so predicate order never changes error behavior). The
// equivalence is pinned by the property and fuzz tests in filter_test.go.
type TupleFilter struct {
	sch   table.Schema
	preds []compiledPred
}

// compiledPred is one predicate with its comparison constants
// pre-extracted: int and float payloads are read once from the
// value.Value, string constants keep a byte-slice form so field
// comparisons run bytes.Compare against the raw tuple without building
// a string. An int or float column at a constant offset keeps that
// offset in off (-1 otherwise), as projCol does, so its field is read in
// place without walking the schema.
type compiledPred struct {
	op     Op
	col    int
	off    int
	kind   value.Kind // column kind, not constant kind
	vals   []constVal
	lo, hi *constVal
	loExcl bool
	hiExcl bool
	cost   int
}

// constVal is a comparison constant in evaluation-ready form.
type constVal struct {
	v value.Value
	s []byte // string payload when v.K == value.String
}

func newConstVal(v value.Value) constVal {
	cv := constVal{v: v}
	if v.K == value.String {
		cv.s = []byte(v.S)
	}
	return cv
}

// CompileFilter compiles the query's conjunction against the schema.
// Predicates are reordered cheapest/most-selective first — constant
// field offsets before length-prefix walks, equality before ranges
// before IN lists — so the early exit rejects tuples on the cheapest
// test. Reordering is safe: predicates are pure and the structural
// tuple check runs before any of them.
func CompileFilter(sch table.Schema, q Query) *TupleFilter {
	sch = sch.Normalized() // one shared layout for every per-tuple access below
	f := &TupleFilter{sch: sch, preds: make([]compiledPred, 0, len(q.Preds))}
	for _, p := range q.Preds {
		cp := compiledPred{
			op:     p.Op,
			col:    p.Col,
			off:    -1,
			kind:   sch.Cols[p.Col].Kind,
			loExcl: p.LoExcl,
			hiExcl: p.HiExcl,
		}
		if off, fixed := sch.FixedOffset(p.Col); fixed && cp.kind != value.String {
			cp.off = off
		}
		for _, v := range p.Vals {
			cp.vals = append(cp.vals, newConstVal(v))
		}
		if p.Lo != nil {
			cv := newConstVal(*p.Lo)
			cp.lo = &cv
		}
		if p.Hi != nil {
			cv := newConstVal(*p.Hi)
			cp.hi = &cv
		}
		cp.cost = predCost(sch, p)
		f.preds = append(f.preds, cp)
	}
	sort.SliceStable(f.preds, func(i, j int) bool { return f.preds[i].cost < f.preds[j].cost })
	return f
}

// predCost ranks predicate evaluation cost: a field at a constant offset
// is cheaper than one reached by a var-length walk, and within a column
// an equality check is assumed cheaper and more selective than an
// inequality, which beats a range, which beats an IN list.
func predCost(sch table.Schema, p Pred) int {
	c := 0
	if _, fixed := sch.FixedOffset(p.Col); !fixed {
		c += 8
	}
	switch p.Op {
	case OpEq:
	case OpNe:
		c++
	case OpRange:
		c += 2
	case OpIn:
		c += 3 + len(p.Vals)
	}
	return c
}

// matchPreds evaluates the conjunction on a tuple that already passed
// the structural check, each predicate reading its field in place and
// comparing without allocating — the per-disjunct step of an OrFilter,
// which checks structure once for the whole disjunction.
func (f *TupleFilter) matchPreds(tuple []byte) (bool, error) {
	for i := range f.preds {
		ok, err := f.matchPred(&f.preds[i], tuple)
		if err != nil {
			return false, err
		}
		if !ok {
			return false, nil
		}
	}
	return true, nil
}

// matchPred evaluates one compiled predicate on the tuple's raw field.
func (f *TupleFilter) matchPred(cp *compiledPred, tuple []byte) (bool, error) {
	var b []byte
	if cp.off >= 0 {
		b = tuple[cp.off : cp.off+8] // in range: the tuple passed CheckTuple
	} else {
		var err error
		if b, err = f.sch.Field(tuple, cp.col); err != nil {
			return false, err
		}
	}
	var fi int64
	var ff float64
	switch cp.kind {
	case value.Int:
		fi = int64(binary.LittleEndian.Uint64(b))
	case value.Float:
		ff = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	switch cp.op {
	case OpEq:
		return fieldCompare(cp.kind, fi, ff, b, &cp.vals[0]) == 0, nil
	case OpIn:
		for i := range cp.vals {
			if fieldCompare(cp.kind, fi, ff, b, &cp.vals[i]) == 0 {
				return true, nil
			}
		}
		return false, nil
	case OpNe:
		return fieldCompare(cp.kind, fi, ff, b, &cp.vals[0]) != 0, nil
	default:
		if cp.lo != nil {
			c := fieldCompare(cp.kind, fi, ff, b, cp.lo)
			if c < 0 || (c == 0 && cp.loExcl) {
				return false, nil
			}
		}
		if cp.hi != nil {
			c := fieldCompare(cp.kind, fi, ff, b, cp.hi)
			if c > 0 || (c == 0 && cp.hiExcl) {
				return false, nil
			}
		}
		return true, nil
	}
}

// Projection is a result projection compiled against a schema, the
// output-side twin of TupleFilter: it encodes the projected columns of
// an encoded heap tuple as the row's JSON array, straight from the
// tuple's fields, so a row that only goes on the wire is never
// materialized. Compilation happens once per statement; encoding
// allocates nothing beyond dst's growth.
//
// A compiled projection is exactly DecodeRow, then the projection, then
// value.AppendRow: the same bytes for every tuple DecodeRow accepts, the
// same error for every tuple it rejects (the structural check runs
// first), and the value encoder's error for a float JSON cannot carry.
// FuzzProjectionJSON pins the equivalence.
type Projection struct {
	sch  table.Schema
	cols []projCol
}

// projCol is one output column: its schema index and kind, and — for an
// int or float column at a constant offset — that offset, -1 otherwise.
type projCol struct {
	col, off int
	kind     value.Kind
}

// CompileProjection compiles proj — column indices in output order; nil
// projects every column in schema order — against the schema.
func CompileProjection(sch table.Schema, proj []int) *Projection {
	sch = sch.Normalized()
	if proj == nil {
		proj = make([]int, len(sch.Cols))
		for i := range proj {
			proj[i] = i
		}
	}
	p := &Projection{sch: sch, cols: make([]projCol, len(proj))}
	for i, c := range proj {
		pc := projCol{col: c, off: -1, kind: sch.Cols[c].Kind}
		if off, fixed := sch.FixedOffset(c); fixed && pc.kind != value.String {
			pc.off = off
		}
		p.cols[i] = pc
	}
	return p
}

// AppendCheckedJSON appends the tuple's projected columns to dst as a
// JSON array in value.AppendRow's format. The tuple must already have
// passed the schema's structural check (Schema.CheckTuple) — a survivor
// of a sweep's filter, which ran it — so the check does not run twice.
// Its only error is the value encoder's, for a float JSON cannot carry.
func (p *Projection) AppendCheckedJSON(dst, tuple []byte) ([]byte, error) {
	dst = append(dst, '[')
	for i, pc := range p.cols {
		if i > 0 {
			dst = append(dst, ',')
		}
		var b []byte
		if pc.off >= 0 {
			b = tuple[pc.off : pc.off+8] // in range: the tuple passed CheckTuple
		} else {
			var err error
			if b, err = p.sch.Field(tuple, pc.col); err != nil { // unreachable on a checked tuple
				return dst, err
			}
		}
		switch pc.kind {
		case value.Int:
			dst = strconv.AppendInt(dst, int64(binary.LittleEndian.Uint64(b)), 10)
		case value.Float:
			var err error
			if dst, err = value.AppendFloat(dst, math.Float64frombits(binary.LittleEndian.Uint64(b))); err != nil {
				return dst, err
			}
		default:
			dst = value.AppendString(dst, b)
		}
	}
	return append(dst, ']'), nil
}

// fieldCompare orders a raw tuple field against a compiled constant with
// value.Compare's semantics: mismatched kinds order by kind tag, same
// kinds by payload (strings bytewise, which equals Go string order).
func fieldCompare(kind value.Kind, i int64, f float64, b []byte, c *constVal) int {
	if kind != c.v.K {
		if kind < c.v.K {
			return -1
		}
		return 1
	}
	switch kind {
	case value.Int:
		switch {
		case i < c.v.I:
			return -1
		case i > c.v.I:
			return 1
		}
		return 0
	case value.Float:
		switch {
		case f < c.v.F:
			return -1
		case f > c.v.F:
			return 1
		}
		return 0
	default:
		return bytes.Compare(b, c.s)
	}
}
