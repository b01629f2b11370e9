package sql

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/value"
)

// fakeCatalog is an in-memory Catalog for binder tests.
type fakeCatalog map[string]TableMeta

func (c fakeCatalog) TableMeta(name string) (TableMeta, bool) {
	tm, ok := c[name]
	return tm, ok
}

func testCatalog() fakeCatalog {
	return fakeCatalog{
		"items": {Name: "items", Cols: []ColMeta{
			{Name: "cat", Kind: value.Int},
			{Name: "price", Kind: value.Float},
			{Name: "title", Kind: value.String},
		}},
	}
}

func sel(t *testing.T, src string) *SelectStmt {
	t.Helper()
	return mustParse(t, src).(*SelectStmt)
}

func TestBindSelectStarAndProjection(t *testing.T) {
	cat := testCatalog()
	b, err := BindSelect(cat, sel(t, "SELECT * FROM items"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.Proj != nil || !reflect.DeepEqual(b.Cols, []string{"cat", "price", "title"}) {
		t.Errorf("star projection: %+v", b)
	}
	if !reflect.DeepEqual(b.Spec.Disjuncts, []exec.Query{{}}) || b.Spec.Limit != 0 {
		t.Errorf("no WHERE, no LIMIT: %+v", b.Spec)
	}

	b, err = BindSelect(cat, sel(t, "SELECT title, cat FROM items LIMIT 7"))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(b.Spec.Proj, []int{2, 0}) || b.Spec.Limit != 7 {
		t.Errorf("named projection: %+v", b)
	}

	// LIMIT 0 binds to the plan's negative limit: no rows, nothing run.
	b, err = BindSelect(cat, sel(t, "SELECT cat FROM items LIMIT 0"))
	if err != nil {
		t.Fatal(err)
	}
	if b.Spec.Limit >= 0 {
		t.Errorf("LIMIT 0 bound to Limit %d", b.Spec.Limit)
	}
}

func TestBindSelectCoercion(t *testing.T) {
	cat := testCatalog()
	// Int literal widens to a float column.
	b, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE price > 10"))
	if err != nil {
		t.Fatal(err)
	}
	if got := *b.Spec.Disjuncts[0].Preds[0].Lo; got.K != value.Float || got.F != 10 {
		t.Errorf("int->float coercion: %+v", got)
	}
	// Float literal does not narrow to an int column.
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE cat = 1.5")); err == nil {
		t.Error("float->int narrowing accepted")
	}
	// Strings only bind to string columns.
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE cat = 'x'")); err == nil {
		t.Error("string->int accepted")
	}
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE title = 3")); err == nil {
		t.Error("int->string accepted")
	}
}

func TestBindSelectErrors(t *testing.T) {
	cat := testCatalog()
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM nope")); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := BindSelect(cat, sel(t, "SELECT zz FROM items")); err == nil {
		t.Error("unknown projected column accepted")
	}
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE zz = 1")); err == nil {
		t.Error("unknown predicate column accepted")
	}
	_, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE cat BETWEEN 5 AND 2"))
	if err == nil || !strings.Contains(err.Error(), "inverted") {
		t.Errorf("inverted BETWEEN: %v", err)
	}
}

func TestBindAggSelect(t *testing.T) {
	cat := testCatalog()
	b, err := BindSelect(cat, sel(t, "SELECT count(*), title, avg(price) FROM items GROUP BY title ORDER BY avg(price) DESC, title"))
	if err != nil {
		t.Fatal(err)
	}
	if !b.Spec.IsAggregate() {
		t.Fatal("aggregate select not flagged")
	}
	if !reflect.DeepEqual(b.Cols, []string{"count(*)", "title", "avg(price)"}) {
		t.Errorf("header = %v", b.Cols)
	}
	// Canonical shape is (GroupBy..., Aggs...): title, count(*), avg(price).
	if !reflect.DeepEqual(b.OutPerm, []int{1, 0, 2}) {
		t.Errorf("OutPerm = %v", b.OutPerm)
	}
	if want := []exec.AggSpec{{Kind: exec.AggCount, Col: -1}, {Kind: exec.AggAvg, Col: 1}}; !reflect.DeepEqual(b.Spec.Aggs, want) {
		t.Errorf("aggs = %+v", b.Spec.Aggs)
	}
	if !reflect.DeepEqual(b.Spec.GroupBy, []int{2}) {
		t.Errorf("group by = %v", b.Spec.GroupBy)
	}
	// ORDER BY keys address canonical positions: avg(price) is 2, title 0.
	want := []plan.Order{{Col: 2, Desc: true}, {Col: 0}}
	if !reflect.DeepEqual(b.Spec.OrderBy, want) {
		t.Errorf("order by = %+v", b.Spec.OrderBy)
	}

	// An ORDER BY aggregate the list omits binds as a hidden trailing agg.
	b, err = BindSelect(cat, sel(t, "SELECT title FROM items GROUP BY title ORDER BY sum(price)"))
	if err != nil {
		t.Fatal(err)
	}
	if want := []exec.AggSpec{{Kind: exec.AggSum, Col: 1}}; !reflect.DeepEqual(b.Spec.Aggs, want) || !reflect.DeepEqual(b.OutPerm, []int{0}) {
		t.Errorf("hidden agg: aggs=%+v perm=%v", b.Spec.Aggs, b.OutPerm)
	}
	if b.Spec.OrderBy[0].Col != 1 {
		t.Errorf("hidden agg order position = %d, want 1", b.Spec.OrderBy[0].Col)
	}

	// Duplicate aggregate expressions share one canonical slot.
	b, err = BindSelect(cat, sel(t, "SELECT avg(price), avg(price) FROM items"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Spec.Aggs) != 1 || !reflect.DeepEqual(b.OutPerm, []int{0, 0}) {
		t.Errorf("dedup: aggs=%+v perm=%v", b.Spec.Aggs, b.OutPerm)
	}

	for _, bad := range []string{
		"SELECT sum(title) FROM items",
		"SELECT avg(title) FROM items",
		"SELECT price, count(*) FROM items",              // ungrouped plain column
		"SELECT price FROM items GROUP BY title",         // not in group by
		"SELECT * FROM items GROUP BY title",             // star grouped
		"SELECT count(zz) FROM items",                    // unknown agg column
		"SELECT count(*) FROM items GROUP BY zz",         // unknown group column
		"SELECT count(*) FROM items GROUP BY cat, cat",   // duplicate group column
		"SELECT count(*) FROM items ORDER BY price",      // order key not grouped
		"SELECT cat FROM items ORDER BY avg(price)",      // agg order on plain select
		"SELECT count(*) FROM items ORDER BY sum(title)", // bad hidden agg
	} {
		if _, err := BindSelect(cat, sel(t, bad)); err == nil {
			t.Errorf("BindSelect(%q) did not fail", bad)
		}
	}
}

func TestBindSelectDNFAndOrder(t *testing.T) {
	cat := testCatalog()
	b, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE cat = 1 OR price > 2.5 ORDER BY price DESC"))
	if err != nil {
		t.Fatal(err)
	}
	wantDNF := []exec.Query{
		{Preds: []exec.Pred{exec.Eq(0, value.NewInt(1))}},
		{Preds: []exec.Pred{exec.Gt(1, value.NewFloat(2.5))}},
	}
	if !reflect.DeepEqual(b.Spec.Disjuncts, wantDNF) {
		t.Errorf("bound dnf = %+v", b.Spec.Disjuncts)
	}
	if !reflect.DeepEqual(b.Spec.OrderBy, []plan.Order{{Col: 1, Desc: true}}) {
		t.Errorf("order by = %+v", b.Spec.OrderBy)
	}
	// Every disjunct binds (and fails) independently.
	if _, err := BindSelect(cat, sel(t, "SELECT * FROM items WHERE cat = 1 OR zz = 2")); err == nil {
		t.Error("unknown column in second disjunct accepted")
	}
	// Plain-select ORDER BY may name an unprojected column, not an unknown one.
	if _, err := BindSelect(cat, sel(t, "SELECT cat FROM items ORDER BY price")); err != nil {
		t.Errorf("order by unprojected column rejected: %v", err)
	}
	if _, err := BindSelect(cat, sel(t, "SELECT cat FROM items ORDER BY zz")); err == nil {
		t.Error("order by unknown column accepted")
	}
}

func TestBindInsert(t *testing.T) {
	cat := testCatalog()
	ins := mustParse(t, "INSERT INTO items (title, cat, price) VALUES ('x', 3, 9.5)").(*InsertStmt)
	b, err := BindInsert(cat, ins)
	if err != nil {
		t.Fatal(err)
	}
	want := value.Row{value.NewInt(3), value.NewFloat(9.5), value.NewString("x")}
	if !reflect.DeepEqual(b.Rows[0], want) {
		t.Errorf("reordered row = %+v, want %+v", b.Rows[0], want)
	}

	for _, bad := range []string{
		"INSERT INTO items VALUES (1, 2.5)",                      // arity
		"INSERT INTO items (cat, price) VALUES (1, 2.5)",         // partial columns
		"INSERT INTO items (cat, cat, price) VALUES (1, 2, 3.5)", // duplicate
		"INSERT INTO items (cat, price, zz) VALUES (1, 2.5, 'x')",
		"INSERT INTO items VALUES (1.5, 2.5, 'x')", // kind mismatch
		"INSERT INTO nope VALUES (1)",
	} {
		if _, err := BindInsert(cat, mustParse(t, bad).(*InsertStmt)); err == nil {
			t.Errorf("BindInsert(%q) did not fail", bad)
		}
	}
}

func TestBindDelete(t *testing.T) {
	cat := testCatalog()
	b, err := BindDelete(cat, mustParse(t, "DELETE FROM items WHERE cat != 4").(*DeleteStmt))
	if err != nil {
		t.Fatal(err)
	}
	if want := []exec.Query{{Preds: []exec.Pred{exec.Ne(0, value.NewInt(4))}}}; !reflect.DeepEqual(b.Spec.Disjuncts, want) {
		t.Errorf("bound delete: %+v", b.Spec.Disjuncts)
	}
	if _, err := BindDelete(cat, mustParse(t, "DELETE FROM items WHERE zz = 1").(*DeleteStmt)); err == nil {
		t.Error("unknown column accepted")
	}
}

func TestBindCreateTable(t *testing.T) {
	cat := testCatalog()
	ok := mustParse(t, "CREATE TABLE fresh (a INT, b STRING) CLUSTERED BY (a)").(*CreateTableStmt)
	if err := BindCreateTable(cat, ok); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{
		"CREATE TABLE items (a INT) CLUSTERED BY (a)",    // exists
		"CREATE TABLE f (a INT, a INT) CLUSTERED BY (a)", // dup col
		"CREATE TABLE f (a INT) CLUSTERED BY (zz)",       // unknown clustering col
	} {
		if err := BindCreateTable(cat, mustParse(t, bad).(*CreateTableStmt)); err == nil {
			t.Errorf("BindCreateTable(%q) did not fail", bad)
		}
	}
}

func TestBindCreateIndexAndCM(t *testing.T) {
	cat := testCatalog()
	cols, err := BindCreateIndex(cat, mustParse(t, "CREATE INDEX ix ON items (price, cat)").(*CreateIndexStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []int{1, 0}) {
		t.Errorf("index columns = %v, want [1 0]", cols)
	}
	if _, err := BindCreateIndex(cat, mustParse(t, "CREATE INDEX ix ON items (zz)").(*CreateIndexStmt)); err == nil {
		t.Error("unknown index column accepted")
	}

	cols, err = BindCreateCM(cat, mustParse(t, "CREATE CORRELATION MAP cm ON items (price WIDTH 5, title PREFIX 3)").(*CreateCMStmt))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cols, []int{1, 2}) {
		t.Errorf("CM columns = %v, want [1 2]", cols)
	}
	for _, bad := range []string{
		"CREATE CORRELATION MAP cm ON items (title WIDTH 5)", // width on string
		"CREATE CORRELATION MAP cm ON items (cat PREFIX 2)",  // prefix on int
		"CREATE CORRELATION MAP cm ON items (zz)",
		"CREATE CORRELATION MAP cm ON nope (cat)",
	} {
		if _, err := BindCreateCM(cat, mustParse(t, bad).(*CreateCMStmt)); err == nil {
			t.Errorf("BindCreateCM(%q) did not fail", bad)
		}
	}
}
