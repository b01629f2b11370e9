package repro

import (
	"context"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// aggRef computes a grouped-aggregate reference naively from full rows
// — count(*), sum(qty int at qtyIdx), avg(price float at priceIdx),
// grouped by groupIdx (none when negative), groups sorted by key —
// mirroring the engine's output contract.
func aggRef(rows []Row, groupIdx, qtyIdx, priceIdx int) []Row {
	type acc struct {
		n    int64
		sumQ int64
		sumP float64
	}
	groups := map[string]*acc{}
	var order []string
	key := func(r Row) string {
		if groupIdx < 0 {
			return ""
		}
		return r[groupIdx].Str()
	}
	for _, r := range rows {
		k := key(r)
		a, ok := groups[k]
		if !ok {
			a = &acc{}
			groups[k] = a
			order = append(order, k)
		}
		a.n++
		a.sumQ += r[qtyIdx].Int()
		a.sumP += r[priceIdx].Float()
	}
	if groupIdx < 0 && len(groups) == 0 {
		groups[""] = &acc{}
		order = []string{""}
	}
	sort.Strings(order)
	var out []Row
	for _, k := range order {
		a := groups[k]
		row := Row{}
		if groupIdx >= 0 {
			row = append(row, StringVal(k))
		}
		avg := 0.0
		if a.n > 0 {
			avg = a.sumP / float64(a.n)
		}
		row = append(row, IntVal(a.n), IntVal(a.sumQ), FloatVal(avg))
		out = append(out, row)
	}
	return out
}

// TestSQLAggregateEquivalence pins every aggregate statement form to a
// naively computed reference and to the native SelectAggregateCtx API,
// on both the natively built and SQL-built databases, through both Exec
// and a script (ExecScriptCtx).
func TestSQLAggregateEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)
	cases := []struct {
		where string
		preds []Pred
	}{
		{"", nil},
		{" WHERE qty = 7", []Pred{Eq("qty", IntVal(7))}},
		{" WHERE qty BETWEEN 3 AND 9", []Pred{Between("qty", IntVal(3), IntVal(9))}},
		{" WHERE qty = 99999", []Pred{Eq("qty", IntVal(99999))}}, // empty input
	}
	for _, c := range cases {
		base := collectNative(t, nat, c.preds...)

		// Ungrouped: one row even over an empty input.
		want := aggRef(base, -1, 1, 2)
		stmt := "SELECT count(*), sum(qty), avg(price) FROM items" + c.where
		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			res, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, stmt, err)
			}
			if !reflect.DeepEqual(res.Columns, []string{"count(*)", "sum(qty)", "avg(price)"}) {
				t.Errorf("%s %q columns = %v", name, stmt, res.Columns)
			}
			rowsEqual(t, name+" "+stmt, res.Rows, want)

			hdr, aggRows, err := db.SelectAggregateCtx(context.Background(), QuerySpec{
				Table: "items",
				Preds: c.preds,
				Aggs: []Agg{
					{Func: Count},
					{Func: Sum, Col: "qty"},
					{Func: Avg, Col: "price"},
				},
			})
			if err != nil {
				t.Fatalf("%s SelectAggregateCtx%s: %v", name, c.where, err)
			}
			if !reflect.DeepEqual(hdr, res.Columns) {
				t.Errorf("%s native header %v != SQL %v", name, hdr, res.Columns)
			}
			rowsEqual(t, name+" native agg"+c.where, aggRows, want)
		}

		// Grouped by city, groups sorted by key.
		want = aggRef(base, 3, 1, 2)
		stmt = "SELECT city, count(*), sum(qty), avg(price) FROM items" + c.where + " GROUP BY city"
		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			res, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, stmt, err)
			}
			rowsEqual(t, name+" "+stmt, res.Rows, want)

			// The batch path must agree statement for statement.
			script, err := db.ExecScriptCtx(context.Background(), stmt+"; "+stmt)
			if err != nil {
				t.Fatal(err)
			}
			for k, sr := range script {
				if sr.Err != nil {
					t.Fatalf("%s batch stmt %d: %v", name, k, sr.Err)
				}
				rowsEqual(t, fmt.Sprintf("%s batched agg [%d]", name, k), sr.Res.Rows, want)
			}
		}
	}

	// MIN/MAX across kinds, and COUNT(col) == COUNT(*) (no NULLs).
	res, err := sql.Exec("SELECT min(qty), max(qty), min(city), max(city), count(city) FROM items WHERE qty BETWEEN 3 AND 9")
	if err != nil {
		t.Fatal(err)
	}
	base := collectNative(t, nat, Between("qty", IntVal(3), IntVal(9)))
	minQ, maxQ := base[0][1].Int(), base[0][1].Int()
	minC, maxC := base[0][3].Str(), base[0][3].Str()
	for _, r := range base {
		if q := r[1].Int(); q < minQ {
			minQ = q
		} else if q > maxQ {
			maxQ = q
		}
		if c := r[3].Str(); c < minC {
			minC = c
		} else if c > maxC {
			maxC = c
		}
	}
	wantRow := Row{IntVal(minQ), IntVal(maxQ), StringVal(minC), StringVal(maxC), IntVal(int64(len(base)))}
	rowsEqual(t, "min/max", res.Rows, []Row{wantRow})
}

// TestSQLSelectListOrderPermutation pins that aggregate SELECT lists
// come back in written order, not canonical group-then-agg order, and
// that a grouping column may appear after (or without) the aggregates.
func TestSQLSelectListOrderPermutation(t *testing.T) {
	rows := fixtureRows(200)
	db := sqlFixture(t, rows)
	canonical, err := db.Exec("SELECT city, count(*) FROM items GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	flipped, err := db.Exec("SELECT count(*), city FROM items GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(flipped.Columns, []string{"count(*)", "city"}) {
		t.Errorf("flipped columns = %v", flipped.Columns)
	}
	if len(flipped.Rows) != len(canonical.Rows) {
		t.Fatalf("row count %d vs %d", len(flipped.Rows), len(canonical.Rows))
	}
	for i := range flipped.Rows {
		if flipped.Rows[i][0].String() != canonical.Rows[i][1].String() ||
			flipped.Rows[i][1].String() != canonical.Rows[i][0].String() {
			t.Errorf("row %d not permuted: %v vs %v", i, flipped.Rows[i], canonical.Rows[i])
		}
	}
	// Aggregate-only output over a grouped query: one row per group.
	only, err := db.Exec("SELECT count(*) FROM items GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}
	for i := range only.Rows {
		if len(only.Rows[i]) != 1 || only.Rows[i][0].String() != canonical.Rows[i][1].String() {
			t.Errorf("agg-only row %d: %v", i, only.Rows[i])
		}
	}
}

// stableSortRows stable-sorts a copy of rows by one column.
func stableSortRows(rows []Row, col int, desc bool) []Row {
	out := append([]Row(nil), rows...)
	sort.SliceStable(out, func(i, j int) bool {
		c := strings.Compare(out[i][col].String(), out[j][col].String())
		// Numeric columns need numeric order, not string order.
		switch out[i][col].Kind() {
		case Int:
			c = int(out[i][col].Int() - out[j][col].Int())
		case Float:
			switch {
			case out[i][col].Float() < out[j][col].Float():
				c = -1
			case out[i][col].Float() > out[j][col].Float():
				c = 1
			default:
				c = 0
			}
		}
		if desc {
			return c > 0
		}
		return c < 0
	})
	return out
}

// TestSQLOrderByEquivalence pins ORDER BY asc/desc with and without
// LIMIT against a stable after-the-fact sort of the unsorted result,
// through Exec, the batch path, and with ORDER BY on an unprojected
// column.
func TestSQLOrderByEquivalence(t *testing.T) {
	rows := fixtureRows(300)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)
	base := collectNative(t, nat, Ge("qty", IntVal(3)))

	cases := []struct {
		stmt string
		want []Row
	}{
		{"SELECT * FROM items WHERE qty >= 3 ORDER BY price", stableSortRows(base, 2, false)},
		{"SELECT * FROM items WHERE qty >= 3 ORDER BY price DESC", stableSortRows(base, 2, true)},
		{"SELECT * FROM items WHERE qty >= 3 ORDER BY price DESC LIMIT 7", stableSortRows(base, 2, true)[:7]},
		{"SELECT * FROM items WHERE qty >= 3 ORDER BY city ASC LIMIT 10", stableSortRows(base, 3, false)[:10]},
	}
	for _, c := range cases {
		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			res, err := db.Exec(c.stmt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, c.stmt, err)
			}
			rowsEqual(t, name+" "+c.stmt, res.Rows, c.want)

			script, err := db.ExecScriptCtx(context.Background(), c.stmt+"; "+c.stmt)
			if err != nil {
				t.Fatal(err)
			}
			for k, sr := range script {
				if sr.Err != nil {
					t.Fatalf("batch %d: %v", k, sr.Err)
				}
				rowsEqual(t, fmt.Sprintf("%s batched [%d] %s", name, k, c.stmt), sr.Res.Rows, c.want)
			}
		}
	}

	// ORDER BY an unprojected column: sort full rows, then project.
	res, err := sql.Exec("SELECT city FROM items WHERE qty >= 3 ORDER BY price DESC LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	want := projectNative(t, nat, []string{"city"}, stableSortRows(base, 2, true)[:5])
	rowsEqual(t, "order by unprojected", res.Rows, want)

	// ORDER BY with GROUP BY: groups ordered by an aggregate.
	ares, err := sql.Exec("SELECT city, count(*) FROM items GROUP BY city ORDER BY count(*) DESC, city")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ares.Rows); i++ {
		a, b := ares.Rows[i-1], ares.Rows[i]
		if a[1].Int() < b[1].Int() || (a[1].Int() == b[1].Int() && a[0].Str() > b[0].Str()) {
			t.Errorf("group order violated at %d: %v then %v", i, a, b)
		}
	}
}

// orKey gives a fixture row a unique identity ((cat, price) is unique
// in fixtureRows) for set-union references.
func orKey(r Row) string { return r[0].String() + "|" + r[2].String() }

// TestSQLOrEquivalence pins OR queries — both union-of-probes and the
// filtered-scan fallback — against a set-union reference, through SQL,
// a script and the native QuerySpec.AnyOf form.
func TestSQLOrEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)

	cases := []struct {
		where     string
		disjuncts [][]Pred
	}{
		{"qty = 3 OR qty = 8", [][]Pred{{Eq("qty", IntVal(3))}, {Eq("qty", IntVal(8))}}},
		{"qty = 3 OR city = 'boston'", [][]Pred{{Eq("qty", IntVal(3))}, {Eq("city", StringVal("boston"))}}},
		{"(qty = 3 AND city = 'toledo') OR price > 45.0",
			[][]Pred{{Eq("qty", IntVal(3)), Eq("city", StringVal("toledo"))}, {Gt("price", FloatVal(45.0))}}},
		// A Ne disjunct cannot probe: the whole OR falls back to one scan.
		{"qty = 3 OR city != 'boston'", [][]Pred{{Eq("qty", IntVal(3))}, {Ne("city", StringVal("boston"))}}},
		// AND distributing over OR (parenthesized) stays equivalent.
		{"qty BETWEEN 3 AND 6 AND (city = 'boston' OR city = 'toledo')",
			[][]Pred{{Between("qty", IntVal(3), IntVal(6)), Eq("city", StringVal("boston"))},
				{Between("qty", IntVal(3), IntVal(6)), Eq("city", StringVal("toledo"))}}},
	}
	for _, c := range cases {
		// Reference: physical-order rows matching at least one disjunct.
		member := map[string]bool{}
		for _, d := range c.disjuncts {
			for _, r := range collectNative(t, nat, d...) {
				member[orKey(r)] = true
			}
		}
		var want []Row
		for _, r := range collectNative(t, nat) {
			if member[orKey(r)] {
				want = append(want, r)
			}
		}

		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			stmt := "SELECT * FROM items WHERE " + c.where
			res, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s %q: %v", name, stmt, err)
			}
			rowsEqual(t, name+" "+stmt, res.Rows, want)

			script, err := db.ExecScriptCtx(context.Background(), stmt+"; "+stmt)
			if err != nil {
				t.Fatal(err)
			}
			for k, sr := range script {
				if sr.Err != nil {
					t.Fatalf("batch %d: %v", k, sr.Err)
				}
				rowsEqual(t, fmt.Sprintf("%s batched OR [%d]", name, k), sr.Res.Rows, want)
			}

			got, err := selectRows(db, QuerySpec{Table: "items", AnyOf: c.disjuncts})
			if err != nil {
				t.Fatalf("%s AnyOf spec (%s): %v", name, c.where, err)
			}
			rowsEqual(t, name+" AnyOf spec "+c.where, got, want)
		}
	}

	// OR + projection + LIMIT: first n of the projected union.
	full, err := sql.Exec("SELECT city, qty FROM items WHERE qty = 3 OR qty = 8")
	if err != nil {
		t.Fatal(err)
	}
	lim, err := sql.Exec("SELECT city, qty FROM items WHERE qty = 3 OR qty = 8 LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "or limit", lim.Rows, full.Rows[:4])

	// OR + aggregation: the paper-shaped aggregate over a disjunction.
	res, err := sql.Exec("SELECT count(*), avg(price) FROM items WHERE qty = 3 OR qty = 8")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int() != int64(len(full.Rows)) {
		t.Errorf("or count = %v, want %d", res.Rows[0][0], len(full.Rows))
	}
	// Via must be Auto for OR specs.
	if _, err := selectRows(sql, QuerySpec{Table: "items", Via: TableScan,
		AnyOf: [][]Pred{{Eq("qty", IntVal(3))}, {Eq("qty", IntVal(8))}}}); err == nil {
		t.Error("forced Via with AnyOf accepted")
	}
}

// TestExplainOrUnionNodes drives the planner fixture (one column per
// access path) through OR EXPLAINs and asserts the union node names
// each disjunct's method, with the fallback engaging when a disjunct
// cannot probe.
func TestExplainOrUnionNodes(t *testing.T) {
	db, _ := planFixture(t)
	// u rides the CM, r its pipelined index; both probes together are
	// far cheaper than one 83ms scan, so the planner unions.
	res, err := db.Exec("EXPLAIN SELECT * FROM plans WHERE u = 25 OR r = 77")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan == nil || len(res.Plan.Nodes) != 2 ||
		res.Plan.Nodes[0].Kind != "union" || res.Plan.Nodes[1].Kind != "filter" {
		t.Fatalf("plan nodes = %+v", res.Plan)
	}
	detail := res.Plan.Nodes[0].Detail
	for _, wantPart := range []string{"cm-scan(cm_u)", "pipelined-index-scan(ix_r)"} {
		if !strings.Contains(detail, wantPart) {
			t.Errorf("union detail %q missing %q", detail, wantPart)
		}
	}
	if res.Rows[0][0].Str() != "union" {
		t.Errorf("EXPLAIN method cell = %q, want union", res.Rows[0][0].Str())
	}

	// The union's rows equal the set-union reference.
	or, err := db.Exec("SELECT * FROM plans WHERE u = 25 OR r = 77")
	if err != nil {
		t.Fatal(err)
	}
	member := map[string]bool{}
	for _, preds := range [][]Pred{
		{Eq("u", IntVal(25))}, {Eq("r", IntVal(77))},
	} {
		for _, r := range mustSelect(t, db, QuerySpec{Table: "plans", Preds: preds}) {
			member[r[3].String()] = true // r is unique
		}
	}
	var want []Row
	for _, r := range mustSelect(t, db, QuerySpec{Table: "plans"}) {
		if member[r[3].String()] {
			want = append(want, r)
		}
	}
	rowsEqual(t, "union rows", or.Rows, want)

	// Summed probe costs past the scan cost fall back by cost: the 44ms
	// sorted sweep on s and two 22ms probes of r tip the CM's 6ms past
	// the 83ms scan. (One probe of r used to be enough: the CM disjunct
	// cost 26ms while it still descended the clustered index.)
	res, err = db.Exec("EXPLAIN SELECT * FROM plans WHERE u = 25 OR s = 100 OR r = 77 OR r = 78")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Nodes[0].Kind != "scan" || !strings.Contains(res.Plan.Nodes[0].Detail, "fallback") {
		t.Errorf("cost fallback nodes = %+v", res.Plan.Nodes)
	}

	// An unindexable disjunct forces the filtered-scan fallback too.
	res, err = db.Exec("EXPLAIN SELECT * FROM plans WHERE u = 25 OR c != 3")
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Nodes[0].Kind != "scan" || !strings.Contains(res.Plan.Nodes[0].Detail, "fallback") {
		t.Errorf("fallback nodes = %+v", res.Plan.Nodes)
	}
	if res.Plan.Method != TableScan {
		t.Errorf("fallback method = %v", res.Plan.Method)
	}
}

// TestExplainAggSortNodes pins the plan-tree EXPLAIN nodes: the filter,
// agg, sort and limit operators appear above the access node, with the
// heap mode reflecting LIMIT.
func TestExplainAggSortNodes(t *testing.T) {
	rows := fixtureRows(200)
	db := sqlFixture(t, rows)
	res, err := db.Exec("EXPLAIN SELECT city, avg(price) FROM items WHERE qty = 7 GROUP BY city ORDER BY avg(price) DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	nodes := res.Plan.Nodes
	if len(nodes) != 5 || nodes[0].Kind != "scan" || nodes[1].Kind != "filter" ||
		nodes[2].Kind != "agg" || nodes[3].Kind != "sort" || nodes[4].Kind != "limit" {
		t.Fatalf("nodes = %+v", nodes)
	}
	if !strings.Contains(nodes[1].Detail, "qty = 7") {
		t.Errorf("filter node = %q", nodes[1].Detail)
	}
	if !strings.Contains(nodes[2].Detail, "avg(price)") || !strings.Contains(nodes[2].Detail, "group by city") {
		t.Errorf("agg node = %q", nodes[2].Detail)
	}
	if !strings.Contains(nodes[3].Detail, "avg(price) desc") || !strings.Contains(nodes[3].Detail, "top-3 heap") {
		t.Errorf("sort node = %q", nodes[3].Detail)
	}
	// The SQL rows mirror the nodes: one row per operator.
	if len(res.Rows) != 5 || res.Rows[2][0].Str() != "agg" || res.Rows[3][0].Str() != "sort" {
		t.Errorf("EXPLAIN rows = %+v", res.Rows)
	}
	// Aggregation decodes only predicated + aggregated + grouped columns.
	if res.Plan.DecodedCols != 3 { // qty, price, city
		t.Errorf("agg decoded_cols = %d, want 3", res.Plan.DecodedCols)
	}

	// Full sort (no LIMIT) says so.
	res, err = db.Exec("EXPLAIN SELECT * FROM items ORDER BY price")
	if err != nil {
		t.Fatal(err)
	}
	last := res.Plan.Nodes[len(res.Plan.Nodes)-1]
	if last.Kind != "sort" || !strings.Contains(last.Detail, "full sort") {
		t.Errorf("sort node = %+v", last)
	}
}

// TestParallelAggregateDeterminism pins the partial-aggregate merge
// contract: a workers=8 database returns byte-identical aggregate
// results to a workers=1 database — float sums included — because
// chunk boundaries are fixed by the page list and partials merge in
// chunk order. It also runs the aggregate through each forced access
// method, which must all agree.
func TestParallelAggregateDeterminism(t *testing.T) {
	rows := fixtureRows(600)
	serial := Open(Config{Workers: 1})
	parallel := Open(Config{Workers: 8})
	for _, db := range []*DB{serial, parallel} {
		tbl, err := db.CreateTable(TableSpec{
			Name: "items",
			Columns: []Column{
				{Name: "cat", Kind: Int}, {Name: "qty", Kind: Int},
				{Name: "price", Kind: Float}, {Name: "city", Kind: String},
			},
			ClusteredBy:  []string{"cat"},
			BucketTuples: 8,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := tbl.Load(rows); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("ix_qty", "qty"); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateCM("cm_qty", CMColumn{Name: "qty"}); err != nil {
			t.Fatal(err)
		}
	}
	specs := []QuerySpec{
		{Table: "items", Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "price"}, {Func: Avg, Col: "price"}}},
		{Table: "items", Preds: []Pred{Between("qty", IntVal(3), IntVal(20))},
			Aggs:    []Agg{{Func: Avg, Col: "price"}, {Func: Min, Col: "city"}, {Func: Max, Col: "qty"}},
			GroupBy: []string{"city"}},
		{Table: "items", AnyOf: [][]Pred{{Eq("qty", IntVal(3))}, {Eq("qty", IntVal(8))}},
			Aggs: []Agg{{Func: Sum, Col: "price"}}},
	}
	for i, spec := range specs {
		sh, sr, err := serial.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %d serial: %v", i, err)
		}
		ph, pr, err := parallel.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("spec %d parallel: %v", i, err)
		}
		if !reflect.DeepEqual(sh, ph) {
			t.Errorf("spec %d headers differ: %v vs %v", i, sh, ph)
		}
		rowsEqual(t, fmt.Sprintf("spec %d serial vs parallel", i), pr, sr)
	}

	// Forced access methods agree with Auto (single-conjunction specs).
	base := QuerySpec{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))},
		Aggs: []Agg{{Func: Count}, {Func: Avg, Col: "price"}}}
	_, want, err := parallel.SelectAggregateCtx(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	for _, via := range []AccessMethod{TableScan, SortedIndexScan, PipelinedIndexScan, CMScan} {
		spec := base
		spec.Via = via
		_, got, err := parallel.SelectAggregateCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("via %v: %v", via, err)
		}
		rowsEqual(t, "agg via "+via.String(), got, want)
	}

	// The clustered-index scan feeds the same fold: a grouped float
	// aggregate over a range of the clustering column is byte-identical
	// to the table scan's, at one worker and at eight.
	onCat := QuerySpec{Table: "items", Preds: []Pred{Between("cat", IntVal(5), IntVal(40))},
		Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "price"}, {Func: Avg, Col: "price"}}, GroupBy: []string{"city"}}
	_, want, err = serial.SelectAggregateCtx(context.Background(), withVia(onCat, TableScan))
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 {
		t.Fatal("clustered-range aggregate matched nothing; fixture broken")
	}
	for _, db := range []*DB{serial, parallel} {
		_, got, err := db.SelectAggregateCtx(context.Background(), withVia(onCat, ClusteredIndexScan))
		if err != nil {
			t.Fatalf("clustered agg workers=%d: %v", db.Workers(), err)
		}
		rowsEqual(t, fmt.Sprintf("agg via clustered workers=%d", db.Workers()), got, want)
	}
}

// TestExecScriptMixedBatchParity is the regression test for the batch
// split: a script mixing projected, unprojected, aggregate, ordered and
// OR SELECTs (plus an erroring one) must return, statement for
// statement, exactly what one-at-a-time Exec returns.
func TestExecScriptMixedBatchParity(t *testing.T) {
	rows := fixtureRows(300)
	db := sqlFixture(t, rows)
	stmts := []string{
		"SELECT * FROM items WHERE qty = 5",
		"SELECT city, qty FROM items WHERE qty BETWEEN 3 AND 6",
		"SELECT count(*), avg(price) FROM items WHERE qty = 5",
		"SELECT city, count(*) FROM items GROUP BY city ORDER BY count(*) DESC LIMIT 3",
		"SELECT * FROM items WHERE qty = 3 OR city = 'boston' LIMIT 6",
		"SELECT ghost FROM items", // binds per-statement, fails alone
		"SELECT price FROM items WHERE qty >= 3 ORDER BY price DESC LIMIT 5",
	}
	results, err := db.ExecScriptCtx(context.Background(), strings.Join(stmts, ";\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(stmts) {
		t.Fatalf("%d results for %d statements", len(results), len(stmts))
	}
	for i, stmt := range stmts {
		single, serr := db.Exec(stmt)
		if serr != nil {
			if results[i].Err == nil {
				t.Errorf("stmt %d: batch succeeded where Exec failed (%v)", i, serr)
			}
			continue
		}
		if results[i].Err != nil {
			t.Errorf("stmt %d: batch failed where Exec succeeded: %v", i, results[i].Err)
			continue
		}
		if !reflect.DeepEqual(results[i].Res.Columns, single.Columns) {
			t.Errorf("stmt %d: batch columns %v != %v", i, results[i].Res.Columns, single.Columns)
		}
		rowsEqual(t, fmt.Sprintf("batch parity stmt %d", i), results[i].Res.Rows, single.Rows)
	}
}

// TestAggregateValidation pins the error surface of the new layer on
// both the SQL and native paths.
func TestAggregateValidation(t *testing.T) {
	rows := fixtureRows(50)
	db := sqlFixture(t, rows)
	for _, bad := range []string{
		"SELECT sum(city) FROM items",                    // sum over string
		"SELECT avg(city) FROM items",                    // avg over string
		"SELECT sum(*) FROM items",                       // star outside count
		"SELECT city, count(*) FROM items",               // ungrouped plain column
		"SELECT qty FROM items GROUP BY city",            // not in group by
		"SELECT * FROM items GROUP BY city",              // star grouped
		"SELECT count(*) FROM items ORDER BY qty",        // order col not grouped
		"SELECT city FROM items ORDER BY avg(price)",     // agg order on plain select
		"SELECT count(ghost) FROM items",                 // unknown agg column
		"SELECT count(*) FROM items GROUP BY ghost",      // unknown group column
		"SELECT count(*) FROM items GROUP BY city, city", // duplicate group column
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) did not fail", bad)
		}
	}
	if _, _, err := db.SelectAggregateCtx(context.Background(), QuerySpec{Table: "items"}); err == nil {
		t.Error("SelectAggregateCtx without Aggs/GroupBy accepted")
	}
	if _, _, err := db.SelectAggregateCtx(context.Background(), QuerySpec{Table: "items",
		Aggs: []Agg{{Func: Sum, Col: "city"}}}); err == nil {
		t.Error("native sum over string accepted")
	}
	if _, _, err := db.SelectAggregateCtx(context.Background(), QuerySpec{Table: "items",
		Aggs: []Agg{{Func: Count}}, OrderBy: []Order{{Col: "qty"}}}); err == nil {
		t.Error("aggregate ORDER BY over non-output column accepted")
	}
	// An aggregate function outside the enum is named by its number, not
	// mistaken for max.
	_, _, err := db.SelectAggregateCtx(context.Background(), QuerySpec{Table: "items",
		Aggs: []Agg{{Func: AggFunc(42), Col: "qty"}}})
	if err == nil || err.Error() != "repro: unknown aggregate function aggfunc(42)" {
		t.Errorf("AggFunc(42): err = %v", err)
	}
	// ORDER BY a hidden aggregate is allowed in SQL (computed, not shown).
	res, err := db.Exec("SELECT city FROM items GROUP BY city ORDER BY count(*) DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "city" || len(res.Rows) > 2 {
		t.Errorf("hidden order agg: %+v", res)
	}
}
