package sql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/value"
)

// TestParseDistinctHaving pins the parse shapes of the DISTINCT and
// HAVING extensions.
func TestParseDistinctHaving(t *testing.T) {
	stmt, err := Parse("SELECT DISTINCT city, qty FROM items WHERE qty > 3 HAVING count(*) > 5 AND city = 'x' ORDER BY city LIMIT 2")
	if err != nil {
		t.Fatal(err)
	}
	sel := stmt.(*SelectStmt)
	if !sel.Distinct {
		t.Error("DISTINCT not parsed")
	}
	if len(sel.Having) != 2 {
		t.Fatalf("Having = %+v", sel.Having)
	}
	if sel.Having[0].Expr.Fn != AggCount || !sel.Having[0].Expr.Star ||
		sel.Having[0].Op != CondGt || sel.Having[0].Args[0].Int != 5 {
		t.Errorf("having[0] = %+v", sel.Having[0])
	}
	if sel.Having[1].Expr.Col != "city" || sel.Having[1].Op != CondEq {
		t.Errorf("having[1] = %+v", sel.Having[1])
	}

	// BETWEEN and IN ride the same tail as WHERE conditions.
	stmt, err = Parse("SELECT city FROM t GROUP BY city HAVING sum(qty) BETWEEN 1 AND 9 AND avg(price) IN (1, 2)")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if len(sel.Having) != 2 || sel.Having[0].Op != CondBetween || sel.Having[1].Op != CondIn {
		t.Fatalf("Having = %+v", sel.Having)
	}

	// A column named "distinct" stays addressable: the keyword only
	// engages where a select list can follow it.
	stmt, err = Parse("SELECT distinct FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if sel.Distinct || len(sel.Exprs) != 1 || sel.Exprs[0].Col != "distinct" {
		t.Errorf("column-named-distinct parse = %+v", sel)
	}
	stmt, err = Parse("SELECT distinct, v FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sel = stmt.(*SelectStmt)
	if sel.Distinct || len(sel.Exprs) != 2 {
		t.Errorf("distinct-comma parse = %+v", sel)
	}
}

// TestBindDistinctHaving pins the binder's DISTINCT rewrite and HAVING
// resolution, including literal coercion to the output kind and the
// error surface.
func TestBindDistinctHaving(t *testing.T) {
	cat := fakeCatalog{"items": TableMeta{Name: "items", Cols: []ColMeta{
		{Name: "cat", Kind: value.Int},
		{Name: "qty", Kind: value.Int},
		{Name: "price", Kind: value.Float},
		{Name: "city", Kind: value.String},
	}}}

	bind := func(src string) (*BoundSelect, error) {
		t.Helper()
		stmt, err := Parse(src)
		if err != nil {
			t.Fatalf("parse %q: %v", src, err)
		}
		return BindSelect(cat, stmt.(*SelectStmt))
	}

	// DISTINCT rewrites into GROUP BY over the projected columns.
	b, err := bind("SELECT DISTINCT city, qty FROM items")
	if err != nil {
		t.Fatal(err)
	}
	if !b.Spec.IsAggregate() || !reflect.DeepEqual(b.Spec.GroupBy, []int{3, 1}) {
		t.Errorf("distinct bound = %+v", b)
	}
	if len(b.Spec.Aggs) != 0 || len(b.OutPerm) != 2 {
		t.Errorf("distinct aggs/perm = %+v", b)
	}

	// HAVING on a hidden aggregate appends it past the SELECT list, with
	// the literal coerced to the aggregate's kind (AVG -> float).
	b, err = bind("SELECT city FROM items GROUP BY city HAVING avg(price) > 4 AND count(*) <= 9")
	if err != nil {
		t.Fatal(err)
	}
	// Canonical output: city (0), avg(price) (1), count(*) (2).
	wantHaving := []exec.Pred{exec.Gt(1, value.NewFloat(4)), exec.Le(2, value.NewInt(9))}
	if !reflect.DeepEqual(b.Spec.Having, wantHaving) {
		t.Errorf("having = %+v, want %+v", b.Spec.Having, wantHaving)
	}
	if len(b.Spec.Aggs) != 2 {
		t.Errorf("hidden having aggregates not appended: %+v", b.Spec.Aggs)
	}

	for _, c := range []struct{ src, wantErr string }{
		{"SELECT qty FROM items HAVING count(*) > 1", "HAVING needs aggregates"},
		{"SELECT city FROM items GROUP BY city HAVING qty > 1", "not a GROUP BY column"},
		{"SELECT city FROM items GROUP BY city HAVING count(*) > 'x'", "does not fit"},
		{"SELECT city FROM items GROUP BY city HAVING sum(city) > 1", "does not apply"},
		{"SELECT DISTINCT count(*) FROM items", "DISTINCT does not combine"},
		{"SELECT DISTINCT city FROM items GROUP BY city", "DISTINCT with GROUP BY"},
		{"SELECT DISTINCT ghost FROM items", "no column"},
	} {
		_, err := bind(c.src)
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("bind(%q) = %v, want error containing %q", c.src, err, c.wantErr)
		}
	}
}
