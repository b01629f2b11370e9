package exec

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// filterTestSchema mixes the three kinds with a string in the middle, so
// columns cover every layout case: constant offsets (a, f, s), a
// fixed-width column past the first string (b), and a second var-length
// column (s2).
func filterTestSchema() table.Schema {
	return table.NewSchema(
		table.Column{Name: "a", Kind: value.Int},
		table.Column{Name: "f", Kind: value.Float},
		table.Column{Name: "s", Kind: value.String},
		table.Column{Name: "b", Kind: value.Int},
		table.Column{Name: "s2", Kind: value.String},
	)
}

// filterTestQueries covers every operator (including exclusive bounds
// and Ne), every kind, var-offset columns, open ranges, conjunctions,
// and a kind-mismatched constant (which value.Compare orders by kind).
func filterTestQueries() []Query {
	iv := value.NewInt
	fv := value.NewFloat
	sv := value.NewString
	return []Query{
		NewQuery(Eq(0, iv(3))),
		NewQuery(Eq(1, fv(1.5))),
		NewQuery(Eq(2, sv("boston"))),
		NewQuery(Eq(3, iv(-2))),
		NewQuery(Eq(4, sv(""))),
		NewQuery(Ne(0, iv(0))),
		NewQuery(Ne(2, sv("x"))),
		NewQuery(Ne(4, sv("toledo"))),
		NewQuery(In(0, iv(1), iv(2), iv(3))),
		NewQuery(In(2, sv("a"), sv("bb"), sv(""))),
		NewQuery(In(1, fv(0), fv(-1.25))),
		NewQuery(Between(0, iv(-1), iv(4))),
		NewQuery(Between(1, fv(-2), fv(2))),
		NewQuery(Between(2, sv("a"), sv("m"))),
		NewQuery(Between(3, iv(0), iv(100))),
		NewQuery(Between(4, sv(""), sv("zz"))),
		NewQuery(Ge(0, iv(2))),
		NewQuery(Le(1, fv(0.5))),
		NewQuery(Gt(3, iv(1))),
		NewQuery(Lt(2, sv("k"))),
		NewQuery(Gt(1, fv(-0.5))),
		NewQuery(Lt(0, iv(0))),
		NewQuery(Eq(0, sv("kind-mismatch"))),
		NewQuery(Between(2, iv(1), iv(2))),
		NewQuery(Eq(0, iv(2)), Lt(1, fv(1)), Ne(2, sv("q")), Gt(3, iv(-5)), In(4, sv("x"), sv("yy"))),
		NewQuery(), // empty conjunction matches everything
	}
}

// randFilterRow draws a row with adversarial values: negative ints,
// ±Inf, -0, NaN, empty strings and strings with NUL bytes.
func randFilterRow(rng *rand.Rand) value.Row {
	ri := func() int64 { return int64(rng.Intn(11)) - 5 }
	rf := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return math.Inf(1)
		case 1:
			return math.Inf(-1)
		case 2:
			return math.Copysign(0, -1)
		case 3:
			return math.NaN()
		default:
			return float64(rng.Intn(9)-4) * 0.5
		}
	}
	rs := func() string {
		alphabet := []string{"", "a", "bb", "boston", "m", "q", "toledo", "x", "yy", "zz", "a\x00b"}
		return alphabet[rng.Intn(len(alphabet))]
	}
	return value.Row{
		value.NewInt(ri()),
		value.NewFloat(rf()),
		value.NewString(rs()),
		value.NewInt(ri()),
		value.NewString(rs()),
	}
}

// Matches reports whether the row satisfies every predicate: the
// row-level reference the compiled-filter tests below hold the sweep's
// OrFilter to.
func (q Query) Matches(row value.Row) bool {
	for _, p := range q.Preds {
		if !p.Matches(row) {
			return false
		}
	}
	return true
}

// Matches reports whether the row satisfies at least one disjunct: the
// row-level reference TestOrFilterMatchesRowSemantics holds OrFilter to.
func (oq OrQuery) Matches(row value.Row) bool {
	for _, q := range oq.Disjuncts {
		if q.Matches(row) {
			return true
		}
	}
	return false
}

// matchesEqual compares compiled and reference evaluation on one tuple.
// NaN rows break reflexivity of value.Compare the same way on both
// paths, so parity still holds.
func matchesEqual(t *testing.T, sch table.Schema, q Query, tuple []byte, label string) {
	t.Helper()
	cm, cerr := CompileOrFilter(sch, q.asOr()).Matches(tuple)
	row, derr := sch.DecodeRow(tuple)
	if derr != nil {
		if cerr == nil {
			t.Fatalf("%s: DecodeRow failed (%v) but compiled filter accepted", label, derr)
		}
		if cerr.Error() != derr.Error() {
			t.Fatalf("%s: error mismatch: compiled %q, decode %q", label, cerr, derr)
		}
		return
	}
	if cerr != nil {
		t.Fatalf("%s: compiled filter errored (%v) on a decodable tuple", label, cerr)
	}
	if want := q.Matches(row); cm != want {
		t.Fatalf("%s: compiled = %v, DecodeRow+Matches = %v (row %v)", label, cm, want, row)
	}
}

// TestTupleFilterEquivalence is the property test: on thousands of
// random valid tuples, the compiled filter agrees exactly with
// DecodeRow + Query.Matches for every operator and kind.
func TestTupleFilterEquivalence(t *testing.T) {
	sch := filterTestSchema()
	queries := filterTestQueries()
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 3000; iter++ {
		row := randFilterRow(rng)
		tuple, err := sch.EncodeRow(row)
		if err != nil {
			t.Fatal(err)
		}
		for qi, q := range queries {
			matchesEqual(t, sch, q, tuple, fmt.Sprintf("iter %d query %d (%s)", iter, qi, q))
		}
	}
}

// TestTupleFilterTruncationParity cuts and pads a valid tuple at every
// length: the compiled filter must fail with exactly DecodeRow's error.
func TestTupleFilterTruncationParity(t *testing.T) {
	sch := filterTestSchema()
	row := value.Row{
		value.NewInt(7),
		value.NewFloat(2.5),
		value.NewString("boston"),
		value.NewInt(-3),
		value.NewString("yy"),
	}
	tuple, err := sch.EncodeRow(row)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQuery(Eq(0, value.NewInt(7)), Ne(4, value.NewString("x")))
	for cut := 0; cut < len(tuple); cut++ {
		matchesEqual(t, sch, q, tuple[:cut], fmt.Sprintf("truncated at %d", cut))
	}
	for pad := 1; pad <= 3; pad++ {
		padded := append(append([]byte(nil), tuple...), make([]byte, pad)...)
		matchesEqual(t, sch, q, padded, fmt.Sprintf("padded by %d", pad))
	}
	// All-fixed schemas take the O(1) size check; pin its parity too.
	fixed := table.NewSchema(
		table.Column{Name: "x", Kind: value.Int},
		table.Column{Name: "y", Kind: value.Float},
	)
	ftuple, err := fixed.EncodeRow(value.Row{value.NewInt(1), value.NewFloat(2)})
	if err != nil {
		t.Fatal(err)
	}
	fq := NewQuery(Ge(1, value.NewFloat(0)))
	for cut := 0; cut < len(ftuple); cut++ {
		matchesEqual(t, fixed, fq, ftuple[:cut], fmt.Sprintf("fixed truncated at %d", cut))
	}
	matchesEqual(t, fixed, fq, append(append([]byte(nil), ftuple...), 0xAA), "fixed padded")
}

// FuzzTupleFilter feeds arbitrary bytes as tuples: for every query the
// compiled one-disjunct OrFilter a sweep runs must agree with DecodeRow +
// Matches — same boolean on decodable inputs, same error on malformed
// ones.
func FuzzTupleFilter(f *testing.F) {
	sch := filterTestSchema()
	rng := rand.New(rand.NewSource(77))
	for i := 0; i < 8; i++ {
		tuple, err := sch.EncodeRow(randFilterRow(rng))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(tuple)
	}
	f.Add([]byte{})
	f.Add([]byte{1, 2, 3})
	queries := filterTestQueries()
	f.Fuzz(func(t *testing.T, data []byte) {
		for qi, q := range queries {
			matchesEqual(t, sch, q, data, fmt.Sprintf("query %d", qi))
		}
	})
}

// FuzzProjectionJSON holds the tuple projection encoder to the value
// encoder and to encoding/json. From the fuzzer's seed it draws a schema
// of one to six columns, a row (the fuzzer's string and float among its
// values) and a projection — nil, empty, or columns reordered and
// repeated. The encoded tuple, cut short or padded by the fuzzer's
// length, must give the same bytes, or the same error, three ways: the
// sweep's Schema.CheckTuple then Projection.AppendCheckedJSON over the
// tuple, value.AppendRow over DecodeRow's row projected, and
// encoding/json over the projected values.
func FuzzProjectionJSON(f *testing.F) {
	f.Add(int64(1), "boston", 1.5, -1)
	f.Add(int64(2), "", math.NaN(), -1)
	f.Add(int64(3), "<tag> & \"quote\"", math.Inf(-1), 5)
	f.Add(int64(4), "bad\xffutf8\x00", 1e21, 3)
	f.Add(int64(5), "日本語", 5e-324, 1000)
	f.Add(int64(6), "x", math.Copysign(0, -1), 0)
	f.Fuzz(func(t *testing.T, seed int64, s string, x float64, cut int) {
		rng := rand.New(rand.NewSource(seed))
		cols := make([]table.Column, 1+rng.Intn(6))
		row := make(value.Row, len(cols))
		for i := range cols {
			cols[i] = table.Column{Name: fmt.Sprintf("c%d", i), Kind: value.Kind(rng.Intn(3))}
			switch cols[i].Kind {
			case value.Int:
				row[i] = value.NewInt(rng.Int63() - rng.Int63())
			case value.Float:
				row[i] = value.NewFloat(x)
				if rng.Intn(2) == 0 {
					row[i] = randFilterRow(rng)[1]
				}
			default:
				row[i] = value.NewString(s)
				if rng.Intn(2) == 0 {
					row[i] = randFilterRow(rng)[2]
				}
			}
		}
		var proj []int
		if rng.Intn(4) > 0 {
			proj = make([]int, rng.Intn(len(cols)+2))
			for i := range proj {
				proj[i] = rng.Intn(len(cols))
			}
		}
		sch := table.NewSchema(cols...)
		tuple, err := sch.EncodeRow(row)
		if err != nil {
			t.Skip(err) // a string past the 64 KiB column limit
		}
		if cut >= 0 && cut < len(tuple) {
			tuple = tuple[:cut]
		} else if extra := cut - len(tuple); extra > 0 && extra < 4 {
			tuple = append(tuple, make([]byte, extra)...)
		}

		enc := CompileProjection(sch, proj)
		checkErr := sch.CheckTuple(tuple)
		decoded, err := sch.DecodeRow(tuple)
		if err != nil {
			if checkErr == nil || checkErr.Error() != err.Error() {
				t.Fatalf("tuple %x: CheckTuple error %v, DecodeRow error %v", tuple, checkErr, err)
			}
			return
		}
		if checkErr != nil {
			t.Fatalf("tuple %x: CheckTuple error %v on a tuple DecodeRow reads", tuple, checkErr)
		}
		got, gotErr := enc.AppendCheckedJSON([]byte("keep"), tuple)
		projected := decoded
		if proj != nil {
			projected = make(value.Row, len(proj))
			for i, c := range proj {
				projected[i] = decoded[c]
			}
		}
		want, wantErr := value.AppendRow([]byte("keep"), projected)
		boxed := make([]any, len(projected))
		for i, v := range projected {
			switch v.K {
			case value.Int:
				boxed[i] = v.I
			case value.Float:
				boxed[i] = v.F
			default:
				boxed[i] = v.S
			}
		}
		ref, refErr := json.Marshal(boxed)
		if gotErr != nil || wantErr != nil || refErr != nil {
			if gotErr == nil || wantErr == nil || refErr == nil || gotErr.Error() != wantErr.Error() || wantErr.Error() != refErr.Error() {
				t.Fatalf("row %v: projection error %v, value encoder error %v, encoding/json error %v", projected, gotErr, wantErr, refErr)
			}
			return
		}
		if string(got) != string(want) || string(want) != "keep"+string(ref) {
			t.Fatalf("row %v:\n projection     %s\n value encoder  %s\n encoding/json  keep%s", projected, got, want, ref)
		}
	})
}

// TestScanRejectionDoesNotAllocate pins the tentpole's allocation
// contract: a scan whose tuples all fail the filter performs no per-tuple
// allocations — only the per-scan setup (compiled filter, scratch row,
// pool machinery) remains.
func TestScanRejectionDoesNotAllocate(t *testing.T) {
	db := buildTestDB(t, 4000, 99, 0)
	q := NewQuery(Eq(1, value.NewInt(-1))) // matches nothing
	run := func() {
		n := 0
		if err := scanVia(db.tbl, MethodTableScan, nil, nil, q, 1, func(heap.RID, value.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatalf("query matched %d rows, fixture broken", n)
		}
	}
	run() // warm the buffer pool so Get hits do not allocate frames
	allocs := testing.AllocsPerRun(10, run)
	// 4000 rejected tuples previously cost >= 2 allocations each
	// (value.Row + payload string); the lazy path pays only per-scan
	// setup. The bound is loose against test-harness noise but far below
	// one allocation per tuple.
	if allocs > 100 {
		t.Errorf("table scan with zero matches allocated %.0f times (want per-scan setup only)", allocs)
	}

	parallel := func() {
		n := 0
		if err := scanVia(db.tbl, MethodTableScan, nil, nil, q, 4, func(heap.RID, value.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatal("parallel scan matched rows")
		}
	}
	parallel()
	pallocs := testing.AllocsPerRun(10, parallel)
	// Parallel machinery allocates per chunk and per worker, never per
	// rejected tuple.
	if pallocs > 1000 {
		t.Errorf("table scan at 4 workers with zero matches allocated %.0f times", pallocs)
	}

	// The probe path reads tuples through the pinned frame (heap.View):
	// probing every index entry and rejecting all of them on the
	// re-filter predicate must not allocate per tuple either.
	probeQ := NewQuery(Le(1, value.NewInt(100)), Eq(0, value.NewInt(-1)))
	probe := func() {
		n := 0
		if err := scanVia(db.tbl, MethodPipelined, db.ix, nil, probeQ, 1, func(heap.RID, value.Row) bool { n++; return true }); err != nil {
			t.Fatal(err)
		}
		if n != 0 {
			t.Fatal("probe matched rows")
		}
	}
	probe()
	ballocs := testing.AllocsPerRun(10, probe)
	if ballocs > 200 {
		t.Errorf("pipelined index scan with zero matches allocated %.0f times", ballocs)
	}
}
