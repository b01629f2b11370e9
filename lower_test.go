package repro

import (
	"reflect"
	"testing"

	"repro/internal/plan"
	sqlfe "repro/internal/sql"
)

// TestSQLLowersLikeQuerySpec holds the two binders to one lowering: each
// SQL statement, resolved by internal/sql's binder, must give the same
// plan.Spec query — disjuncts, projection, aggregates, grouping, HAVING,
// ORDER BY and LIMIT — as planSpec makes of the statement's native
// QuerySpec, and an UPDATE the same assignments as UpdateCtx's. Only the
// per-run fields (Ctx, Snap, Obs) are left out, since the statement
// prologue fills those.
func TestSQLLowersLikeQuerySpec(t *testing.T) {
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int}, {Name: "qty", Kind: Int},
			{Name: "price", Kind: Float}, {Name: "city", Kind: String},
		},
		ClusteredBy: []string{"cat"},
	})
	if err != nil {
		t.Fatal(err)
	}
	query := func(s plan.Spec) plan.Spec {
		return plan.Spec{Disjuncts: s.Disjuncts, Proj: s.Proj, Aggs: s.Aggs, GroupBy: s.GroupBy,
			Having: s.Having, OrderBy: s.OrderBy, Limit: s.Limit}
	}
	native := func(spec QuerySpec) plan.Spec {
		t.Helper()
		ps, err := tbl.planSpec(spec)
		if err != nil {
			t.Fatalf("planSpec(%+v): %v", spec, err)
		}
		return query(ps)
	}
	parse := func(src string) sqlfe.Stmt {
		t.Helper()
		stmt, err := sqlfe.Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return stmt
	}
	cat := catalogDB{db}

	for _, c := range []struct {
		sql  string
		spec QuerySpec
	}{
		{"SELECT * FROM items", QuerySpec{}},
		{"SELECT city, qty FROM items WHERE qty = 7", QuerySpec{Cols: []string{"city", "qty"}, Preds: []Pred{Eq("qty", IntVal(7))}}},
		{"SELECT * FROM items WHERE city IN ('boston', 'toledo') AND qty BETWEEN 2 AND 9",
			QuerySpec{Preds: []Pred{In("city", StringVal("boston"), StringVal("toledo")), Between("qty", IntVal(2), IntVal(9))}}},
		{"SELECT cat FROM items WHERE qty < 3 AND qty <= 4 AND price > 1 AND price >= 2.5 AND city <> 'jackson'",
			QuerySpec{Cols: []string{"cat"}, Preds: []Pred{Lt("qty", IntVal(3)), Le("qty", IntVal(4)),
				Gt("price", FloatVal(1)), Ge("price", FloatVal(2.5)), Ne("city", StringVal("jackson"))}}},
		{"SELECT cat, city FROM items WHERE qty = 7 OR city = 'toledo' AND cat > 3",
			QuerySpec{Cols: []string{"cat", "city"}, AnyOf: [][]Pred{{Eq("qty", IntVal(7))}, {Eq("city", StringVal("toledo")), Gt("cat", IntVal(3))}}}},
		{"SELECT DISTINCT city, qty FROM items", QuerySpec{GroupBy: []string{"city", "qty"}}},
		{"SELECT city FROM items WHERE qty < 20 GROUP BY city HAVING avg(price) > 4 ORDER BY count(*) DESC, city",
			QuerySpec{Preds: []Pred{Lt("qty", IntVal(20))}, GroupBy: []string{"city"},
				Aggs:    []Agg{{Func: Avg, Col: "price"}, {Func: Count}},
				Having:  []Pred{Gt("avg(price)", FloatVal(4))},
				OrderBy: []Order{{Col: "count(*)", Desc: true}, {Col: "city"}}}},
		{"SELECT COUNT(*), sum(qty), min(city), max(price) FROM items WHERE cat = 2",
			QuerySpec{Preds: []Pred{Eq("cat", IntVal(2))}, Aggs: []Agg{{Func: Count}, {Func: Sum, Col: "qty"}, {Func: Min, Col: "city"}, {Func: Max, Col: "price"}}}},
		{"SELECT city FROM items WHERE qty >= 4 ORDER BY price DESC LIMIT 3",
			QuerySpec{Cols: []string{"city"}, Preds: []Pred{Ge("qty", IntVal(4))}, OrderBy: []Order{{Col: "price", Desc: true}}, Limit: 3}},
	} {
		b, err := sqlfe.BindSelect(cat, parse(c.sql).(*sqlfe.SelectStmt))
		if err != nil {
			t.Fatalf("%s: %v", c.sql, err)
		}
		if got, want := query(b.Spec), native(c.spec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s\n binds to %+v\n QuerySpec %+v", c.sql, got, want)
		}
	}

	// UPDATE: the WHERE disjuncts as the QuerySpec's AnyOf, the SETs as
	// UpdateCtx's.
	up, err := sqlfe.BindUpdate(cat, parse("UPDATE items SET price = 9, city = 'lowell' WHERE qty = 42 OR cat IN (1, 2)").(*sqlfe.UpdateStmt))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := query(up.Spec), native(QuerySpec{AnyOf: [][]Pred{{Eq("qty", IntVal(42))}, {In("cat", IntVal(1), IntVal(2))}}}); !reflect.DeepEqual(got, want) {
		t.Errorf("UPDATE binds to %+v\n QuerySpec %+v", got, want)
	}
	sets, err := tbl.setClauses([]Set{{Col: "price", Val: FloatVal(9)}, {Col: "city", Val: StringVal("lowell")}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(up.Sets, sets) {
		t.Errorf("UPDATE sets bind to %+v, UpdateCtx's to %+v", up.Sets, sets)
	}

	// DELETE: one conjunction, DeleteCtx's predicates.
	del, err := sqlfe.BindDelete(cat, parse("DELETE FROM items WHERE cat BETWEEN 3 AND 5 AND city != 'boston'").(*sqlfe.DeleteStmt))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := query(del.Spec), native(QuerySpec{Preds: []Pred{Between("cat", IntVal(3), IntVal(5)), Ne("city", StringVal("boston"))}}); !reflect.DeepEqual(got, want) {
		t.Errorf("DELETE binds to %+v\n QuerySpec %+v", got, want)
	}
}
