package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// TestSQLDistinct pins SELECT DISTINCT as sugar for GROUP BY over the
// projected columns: results equal the explicit GROUP BY form (one row
// per distinct combination, sorted by the grouped key), through Exec
// and the batch path, with WHERE, ORDER BY and LIMIT composing.
func TestSQLDistinct(t *testing.T) {
	rows := fixtureRows(300)
	db := sqlFixture(t, rows)

	cases := []struct{ distinct, grouped string }{
		{"SELECT DISTINCT city FROM items",
			"SELECT city FROM items GROUP BY city"},
		{"SELECT DISTINCT city, qty FROM items WHERE qty BETWEEN 3 AND 9",
			"SELECT city, qty FROM items WHERE qty BETWEEN 3 AND 9 GROUP BY city, qty"},
		{"SELECT DISTINCT qty FROM items ORDER BY qty DESC LIMIT 4",
			"SELECT qty FROM items GROUP BY qty ORDER BY qty DESC LIMIT 4"},
	}
	for _, c := range cases {
		want, err := db.Exec(c.grouped)
		if err != nil {
			t.Fatalf("%q: %v", c.grouped, err)
		}
		got, err := db.Exec(c.distinct)
		if err != nil {
			t.Fatalf("%q: %v", c.distinct, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Errorf("%q columns = %v, want %v", c.distinct, got.Columns, want.Columns)
		}
		rowsEqual(t, c.distinct, got.Rows, want.Rows)

		script, err := db.ExecScriptCtx(context.Background(), c.distinct+"; "+c.distinct)
		if err != nil {
			t.Fatal(err)
		}
		for k, sr := range script {
			if sr.Err != nil {
				t.Fatalf("batch %d: %v", k, sr.Err)
			}
			rowsEqual(t, fmt.Sprintf("batched distinct [%d] %s", k, c.distinct), sr.Res.Rows, want.Rows)
		}
	}

	// DISTINCT * groups on every column; the fixture has no fully
	// duplicate rows, so the set matches the sorted plain result.
	res, err := db.Exec("SELECT DISTINCT * FROM items WHERE qty = 7")
	if err != nil {
		t.Fatal(err)
	}
	plain, err := db.Exec("SELECT * FROM items WHERE qty = 7")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(plain.Rows) {
		t.Errorf("DISTINCT * returned %d rows, plain %d", len(res.Rows), len(plain.Rows))
	}

	// A column named "distinct" is still addressable: DISTINCT is only
	// a keyword where a select list can follow.
	if _, err := db.Exec("CREATE TABLE kw (distinct INT, v INT) CLUSTERED BY (distinct)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("LOAD INTO kw VALUES (1, 2), (1, 3)"); err != nil {
		t.Fatal(err)
	}
	res, err = db.Exec("SELECT distinct, v FROM kw")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Columns[0] != "distinct" {
		t.Errorf("column named distinct: %+v", res)
	}
	res, err = db.Exec("SELECT DISTINCT distinct FROM kw")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("SELECT DISTINCT distinct = %+v", res.Rows)
	}

	// Validation: DISTINCT rejects aggregates and explicit GROUP BY.
	for _, bad := range []string{
		"SELECT DISTINCT count(*) FROM items",
		"SELECT DISTINCT city FROM items GROUP BY city",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) did not fail", bad)
		}
	}
}

// havingRef filters grouped reference rows by a predicate on one output
// column.
func havingRef(rows []Row, col int, keep func(Value) bool) []Row {
	var out []Row
	for _, r := range rows {
		if keep(r[col]) {
			out = append(out, r)
		}
	}
	return out
}

// TestSQLHaving pins HAVING as a post-aggregate filter: results equal
// the unfiltered grouped query minus the failing groups, hidden
// aggregates work, ORDER BY and LIMIT apply after the filter, and the
// native QuerySpec.Having form agrees with SQL.
func TestSQLHaving(t *testing.T) {
	rows := fixtureRows(400)
	db := sqlFixture(t, rows)

	base, err := db.Exec("SELECT city, count(*), sum(qty) FROM items WHERE qty BETWEEN 3 AND 9 GROUP BY city")
	if err != nil {
		t.Fatal(err)
	}

	// HAVING on an aggregate in the SELECT list.
	res, err := db.Exec("SELECT city, count(*), sum(qty) FROM items WHERE qty BETWEEN 3 AND 9 GROUP BY city HAVING count(*) > 22")
	if err != nil {
		t.Fatal(err)
	}
	want := havingRef(base.Rows, 1, func(v Value) bool { return v.Int() > 22 })
	rowsEqual(t, "having count", res.Rows, want)
	if len(res.Rows) == 0 || len(res.Rows) == len(base.Rows) {
		t.Fatalf("having filter not discriminating: %d of %d groups", len(res.Rows), len(base.Rows))
	}

	// HAVING on a grouped column, AND-composed.
	res, err = db.Exec("SELECT city, count(*), sum(qty) FROM items WHERE qty BETWEEN 3 AND 9 GROUP BY city HAVING city IN ('boston', 'toledo') AND count(*) > 0")
	if err != nil {
		t.Fatal(err)
	}
	want = havingRef(base.Rows, 0, func(v Value) bool { return v.Str() == "boston" || v.Str() == "toledo" })
	rowsEqual(t, "having group col", res.Rows, want)

	// HAVING on a hidden aggregate (not in the SELECT list) with an AVG
	// float comparison, plus ORDER BY and LIMIT after the filter.
	res, err = db.Exec("SELECT city FROM items GROUP BY city HAVING avg(price) >= 24 ORDER BY count(*) DESC LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "city" || len(res.Rows) > 2 {
		t.Errorf("hidden having agg: %+v", res)
	}

	// Ungrouped HAVING filters the single global row.
	res, err = db.Exec("SELECT count(*) FROM items HAVING count(*) > 1000000")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Errorf("ungrouped failing HAVING returned %d rows", len(res.Rows))
	}

	// The native surface: QuerySpec.Having names output columns.
	_, natRows, err := db.SelectAggregateCtx(context.Background(), QuerySpec{
		Table:   "items",
		Preds:   []Pred{Between("qty", IntVal(3), IntVal(9))},
		Aggs:    []Agg{{Func: Count}, {Func: Sum, Col: "qty"}},
		GroupBy: []string{"city"},
		Having:  []Pred{Gt("count(*)", IntVal(22))},
	})
	if err != nil {
		t.Fatal(err)
	}
	sqlRows, err := db.Exec("SELECT city, count(*), sum(qty) FROM items WHERE qty BETWEEN 3 AND 9 GROUP BY city HAVING count(*) > 22")
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "native having", natRows, sqlRows.Rows)

	// EXPLAIN shows the having node between agg and sort.
	exp, err := db.Exec("EXPLAIN SELECT city, count(*) FROM items GROUP BY city HAVING count(*) > 78 ORDER BY city")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]string, len(exp.Plan.Nodes))
	for i, n := range exp.Plan.Nodes {
		kinds[i] = n.Kind
	}
	wantKinds := []string{"scan", "agg", "having", "sort"}
	if !reflect.DeepEqual(kinds, wantKinds) {
		t.Errorf("EXPLAIN kinds = %v, want %v", kinds, wantKinds)
	}

	// Validation surface.
	for _, bad := range []string{
		"SELECT * FROM items HAVING count(*) > 1",                              // no aggregation
		"SELECT city, count(*) FROM items GROUP BY city HAVING qty > 1",        // not grouped
		"SELECT city, count(*) FROM items GROUP BY city HAVING count(*) > 'x'", // kind mismatch
		"SELECT city, count(*) FROM items GROUP BY city HAVING ghost > 1",      // unknown column
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) did not fail", bad)
		}
	}
	if _, _, err := db.SelectAggregateCtx(context.Background(), QuerySpec{
		Table:  "items",
		Aggs:   []Agg{{Func: Count}},
		Having: []Pred{Gt("ghost", IntVal(1))},
	}); err == nil {
		t.Error("native HAVING over unknown output accepted")
	}
}
