package exec

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/table"
	"repro/internal/value"
)

// aggTestSchema is a small mixed-kind schema for aggregator unit tests.
func aggTestSchema() table.Schema {
	return table.NewSchema(
		table.Column{Name: "g", Kind: value.String},
		table.Column{Name: "i", Kind: value.Int},
		table.Column{Name: "f", Kind: value.Float},
	)
}

// aggTestRows generates deterministic rows whose float payloads are
// exact binary fractions, so sums carry no rounding and references
// computed in any order agree bit for bit.
func aggTestRows(n int, seed int64) []value.Row {
	rng := rand.New(rand.NewSource(seed))
	groups := []string{"boston", "toledo", "jackson", ""}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewString(groups[rng.Intn(len(groups))]),
			value.NewInt(int64(rng.Intn(100) - 50)),
			value.NewFloat(float64(rng.Intn(200)) / 4),
		}
	}
	return rows
}

// TestGroupAggMergeMatchesSerial pins the partial-aggregate merge
// contract: splitting the input into chunks, aggregating each into its
// own GroupAgg and merging in chunk order must equal feeding one
// aggregator serially — for every function, including AVG carried as
// sum+count, and regardless of chunk boundaries.
func TestGroupAggMergeMatchesSerial(t *testing.T) {
	sch := aggTestSchema()
	specs := []AggSpec{
		{Kind: AggCount, Col: -1},
		{Kind: AggSum, Col: 1},
		{Kind: AggSum, Col: 2},
		{Kind: AggAvg, Col: 1},
		{Kind: AggAvg, Col: 2},
		{Kind: AggMin, Col: 1},
		{Kind: AggMax, Col: 2},
		{Kind: AggMin, Col: 0},
	}
	rows := aggTestRows(500, 7)
	for _, groupBy := range [][]int{nil, {0}} {
		serial := NewGroupAgg(sch, specs, groupBy)
		for _, r := range rows {
			serial.Add(r)
		}
		want := serial.Rows()

		for _, nchunks := range []int{1, 2, 7, 100} {
			merged := NewGroupAgg(sch, specs, groupBy)
			chunks := chunkSlices(len(rows), nchunks)
			for _, c := range chunks {
				part := NewGroupAgg(sch, specs, groupBy)
				for _, r := range rows[c[0]:c[1]] {
					part.Add(r)
				}
				merged.Merge(part)
			}
			got := merged.Rows()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("groupBy=%v chunks=%d: merged %v != serial %v", groupBy, nchunks, got, want)
			}
		}
	}
}

// TestGroupAggEmptyInput pins the empty-set contract: no GROUP BY
// yields one global row (COUNT 0, zero-valued SUM/AVG/MIN/MAX), a
// grouped aggregate yields no rows.
func TestGroupAggEmptyInput(t *testing.T) {
	sch := aggTestSchema()
	specs := []AggSpec{
		{Kind: AggCount, Col: -1},
		{Kind: AggSum, Col: 1},
		{Kind: AggAvg, Col: 2},
		{Kind: AggMin, Col: 0},
	}
	global := NewGroupAgg(sch, specs, nil).Rows()
	want := value.Row{value.NewInt(0), value.NewInt(0), value.NewFloat(0), value.NewString("")}
	if len(global) != 1 || !reflect.DeepEqual(global[0], want) {
		t.Errorf("global empty = %v, want [%v]", global, want)
	}
	if grouped := NewGroupAgg(sch, specs, []int{0}).Rows(); len(grouped) != 0 {
		t.Errorf("grouped empty = %v, want none", grouped)
	}
}

// TestGroupAggScratchRowReuse pins that Add does not retain the row it
// is handed: mutating the scratch row after Add must not corrupt group
// keys or min/max state.
func TestGroupAggScratchRowReuse(t *testing.T) {
	sch := aggTestSchema()
	specs := []AggSpec{{Kind: AggMin, Col: 0}, {Kind: AggMax, Col: 1}}
	ga := NewGroupAgg(sch, specs, []int{0})
	scratch := make(value.Row, 3)
	for _, r := range aggTestRows(50, 3) {
		copy(scratch, r)
		ga.Add(scratch)
		scratch[0] = value.NewString("CLOBBERED")
		scratch[1] = value.NewInt(99999)
	}
	for _, row := range ga.Rows() {
		if row[0].S == "CLOBBERED" || row[1].S == "CLOBBERED" || row[2].I == 99999 {
			t.Fatalf("aggregator retained scratch row: %v", row)
		}
	}
}

// sortTestRows builds rows with many key ties so stability is actually
// exercised.
func sortTestRows(n int, seed int64) []value.Row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.NewInt(int64(rng.Intn(10))), // heavy ties
			value.NewInt(int64(i)),            // arrival marker
		}
	}
	return rows
}

// TestSorterTopKMatchesFullSort pins the bounded heap against the full
// sort: for any limit, the top-K rows are exactly the first K of the
// fully sorted result — including stable tie-breaks by input order.
func TestSorterTopKMatchesFullSort(t *testing.T) {
	rows := sortTestRows(300, 11)
	for _, keys := range [][]OrderKey{
		{{Col: 0}},
		{{Col: 0, Desc: true}},
		{{Col: 0, Desc: true}, {Col: 1}},
	} {
		full := NewSorter(keys, 0)
		for _, r := range rows {
			full.Add(r)
		}
		want := full.Rows()
		for _, limit := range []int{1, 7, 299, 300, 1000} {
			topk := NewSorter(keys, limit)
			for _, r := range rows {
				topk.Add(r)
			}
			got := topk.Rows()
			wantN := limit
			if wantN > len(want) {
				wantN = len(want)
			}
			if !reflect.DeepEqual(got, want[:wantN]) {
				t.Fatalf("keys=%v limit=%d: top-K diverges from full sort", keys, limit)
			}
		}
	}
}

// TestSorterClonesRows pins the Sorter side of the RowFunc contract:
// retained rows must survive the caller reusing its scratch row.
func TestSorterClonesRows(t *testing.T) {
	s := NewSorter([]OrderKey{{Col: 0}}, 2)
	scratch := make(value.Row, 1)
	for i := 0; i < 10; i++ {
		scratch[0] = value.NewInt(int64(10 - i))
		s.Add(scratch)
		scratch[0] = value.NewInt(-1)
	}
	for _, r := range s.Rows() {
		if r[0].I == -1 {
			t.Fatal("sorter retained the scratch row")
		}
	}
}

// TestOrFilterMatchesRowSemantics pins CompileOrFilter against the
// row-level OrQuery.Matches on encoded tuples across operator shapes.
func TestOrFilterMatchesRowSemantics(t *testing.T) {
	sch := filterTestSchema()
	iv, fv, sv := value.NewInt, value.NewFloat, value.NewString
	oqs := []OrQuery{
		{Disjuncts: []Query{NewQuery(Eq(0, iv(3))), NewQuery(Eq(2, sv("boston")))}},
		{Disjuncts: []Query{NewQuery(Ge(0, iv(2)), Lt(1, fv(1))), NewQuery(Ne(4, sv("x")))}},
		{Disjuncts: []Query{NewQuery(In(0, iv(1), iv(2))), NewQuery(Between(1, fv(-1), fv(1))), NewQuery(Eq(3, iv(7)))}},
		{Disjuncts: []Query{NewQuery(Eq(0, iv(-99)))}}, // single disjunct
	}
	rng := rand.New(rand.NewSource(5))
	rows := make([]value.Row, 400)
	for i := range rows {
		rows[i] = randFilterRow(rng)
	}
	for _, oq := range oqs {
		f := CompileOrFilter(sch, oq)
		for _, row := range rows {
			tuple, err := sch.AppendRow(nil, row)
			if err != nil {
				t.Fatal(err)
			}
			got, err := f.Matches(tuple)
			if err != nil {
				t.Fatalf("%s: %v", oq, err)
			}
			if want := oq.Matches(row); got != want {
				t.Fatalf("%s on %v: filter=%v rows=%v", oq, row, got, want)
			}
		}
	}
}
