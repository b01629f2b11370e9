package repro

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// sqlFixtureScript builds the SQL twin of nativeFixture: every DDL/DML
// statement here has the exact native calls in nativeFixture, and the
// equivalence tests assert the two databases answer identically.
const sqlFixtureScript = `
CREATE TABLE items (cat INT, qty INT, price FLOAT, city STRING) CLUSTERED BY (cat) BUCKET TUPLES 8;
LOAD INTO items VALUES %s;
CREATE INDEX ix_qty ON items (qty);
CREATE CORRELATION MAP cm_qty ON items (qty);
`

// fixtureRows builds a correlated workload: qty tracks cat (soft FD),
// price and city derive deterministically.
func fixtureRows(n int) []Row {
	rows := make([]Row, n)
	cities := []string{"boston", "cambridge", "springfield", "toledo", "jackson"}
	for i := range rows {
		cat := int64(i / 8)
		qty := cat/2 + int64(i%3) // correlated with cat, a few outliers
		rows[i] = Row{
			IntVal(cat),
			IntVal(qty),
			FloatVal(float64(i%50) + 0.5),
			StringVal(cities[i%len(cities)]),
		}
	}
	return rows
}

// sqlLiteralRows renders rows as a VALUES list.
func sqlLiteralRows(rows []Row) string {
	var sb strings.Builder
	for i, r := range rows {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %v, '%s')", r[0].Int(), r[1].Int(), r[2].Float(), r[3].Str())
	}
	return sb.String()
}

// nativeFixture builds the reference database through the native API.
func nativeFixture(t *testing.T, rows []Row) *DB {
	t.Helper()
	db := Open(Config{})
	tbl, err := db.CreateTable(TableSpec{
		Name: "items",
		Columns: []Column{
			{Name: "cat", Kind: Int},
			{Name: "qty", Kind: Int},
			{Name: "price", Kind: Float},
			{Name: "city", Kind: String},
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
	return db
}

// sqlFixture builds the same database purely through DB.Exec.
func sqlFixture(t *testing.T, rows []Row) *DB {
	t.Helper()
	db := Open(Config{})
	script := fmt.Sprintf(sqlFixtureScript, sqlLiteralRows(rows))
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("fixture statement %d: %v", i, r.Err)
		}
	}
	return db
}

// collectNative gathers rows from the native API.
func collectNative(t *testing.T, db *DB, preds ...Pred) []Row {
	t.Helper()
	return mustSelect(t, db, QuerySpec{Table: "items", Preds: preds})
}

// rowsEqual compares result sets positionally.
func rowsEqual(t *testing.T, label string, got, want []Row) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s row %d: arity %d vs %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if got[i][j].String() != want[i][j].String() {
				t.Fatalf("%s row %d col %d: %v != %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestSQLSelectEquivalence asserts every WHERE operator form returns the
// same rows through Exec as through the equivalent native predicates —
// on both the natively built and the SQL-built database.
func TestSQLSelectEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)
	cases := []struct {
		where string
		preds []Pred
	}{
		{"qty = 7", []Pred{Eq("qty", IntVal(7))}},
		{"qty != 7", []Pred{Ne("qty", IntVal(7))}},
		{"qty < 5", []Pred{Lt("qty", IntVal(5))}},
		{"qty <= 5", []Pred{Le("qty", IntVal(5))}},
		{"qty > 20", []Pred{Gt("qty", IntVal(20))}},
		{"qty >= 20", []Pred{Ge("qty", IntVal(20))}},
		{"qty BETWEEN 4 AND 9", []Pred{Between("qty", IntVal(4), IntVal(9))}},
		{"qty IN (3, 8, 13)", []Pred{In("qty", IntVal(3), IntVal(8), IntVal(13))}},
		{"city = 'boston'", []Pred{Eq("city", StringVal("boston"))}},
		{"city != 'boston'", []Pred{Ne("city", StringVal("boston"))}},
		{"price > 30.5", []Pred{Gt("price", FloatVal(30.5))}},
		{"price BETWEEN 10 AND 12.5", []Pred{Between("price", FloatVal(10), FloatVal(12.5))}},
		{"qty >= 4 AND qty < 9 AND city IN ('boston', 'toledo')",
			[]Pred{Ge("qty", IntVal(4)), Lt("qty", IntVal(9)), In("city", StringVal("boston"), StringVal("toledo"))}},
		{"cat BETWEEN 10 AND 20 AND qty != 6",
			[]Pred{Between("cat", IntVal(10), IntVal(20)), Ne("qty", IntVal(6))}},
	}
	for _, c := range cases {
		want := collectNative(t, nat, c.preds...)
		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			res, err := db.Exec("SELECT * FROM items WHERE " + c.where)
			if err != nil {
				t.Fatalf("%s Exec(%q): %v", name, c.where, err)
			}
			rowsEqual(t, name+" WHERE "+c.where, res.Rows, want)
		}
	}
}

// projectNative projects full native rows onto named columns, the
// reference for pushdown equivalence.
func projectNative(t *testing.T, db *DB, cols []string, rows []Row) []Row {
	t.Helper()
	sch := db.Table("items").inner.Schema()
	idx := make([]int, len(cols))
	for i, c := range cols {
		idx[i] = sch.ColIndex(c)
		if idx[i] < 0 {
			t.Fatalf("no column %q", c)
		}
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		pr := make(Row, len(idx))
		for j, ci := range idx {
			pr[j] = r[ci]
		}
		out[i] = pr
	}
	return out
}

// TestSQLProjectionPushdownEquivalence re-runs every WHERE operator form
// of TestSQLSelectEquivalence with a non-trivial projection, through
// three pushdown paths: Exec (single SELECT), ExecScriptCtx (a script
// of the same statements), and the native SelectProject API. Each
// must equal the full native result projected after the fact.
func TestSQLProjectionPushdownEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)
	proj := []string{"city", "qty"} // reordered, partial, mixed kinds
	cases := []struct {
		where string
		preds []Pred
	}{
		{"qty = 7", []Pred{Eq("qty", IntVal(7))}},
		{"qty != 7", []Pred{Ne("qty", IntVal(7))}},
		{"qty < 5", []Pred{Lt("qty", IntVal(5))}},
		{"qty <= 5", []Pred{Le("qty", IntVal(5))}},
		{"qty > 20", []Pred{Gt("qty", IntVal(20))}},
		{"qty >= 20", []Pred{Ge("qty", IntVal(20))}},
		{"qty BETWEEN 4 AND 9", []Pred{Between("qty", IntVal(4), IntVal(9))}},
		{"qty IN (3, 8, 13)", []Pred{In("qty", IntVal(3), IntVal(8), IntVal(13))}},
		{"city = 'boston'", []Pred{Eq("city", StringVal("boston"))}},
		{"city != 'boston'", []Pred{Ne("city", StringVal("boston"))}},
		{"price > 30.5", []Pred{Gt("price", FloatVal(30.5))}},
		{"price BETWEEN 10 AND 12.5", []Pred{Between("price", FloatVal(10), FloatVal(12.5))}},
		{"qty >= 4 AND qty < 9 AND city IN ('boston', 'toledo')",
			[]Pred{Ge("qty", IntVal(4)), Lt("qty", IntVal(9)), In("city", StringVal("boston"), StringVal("toledo"))}},
		{"cat BETWEEN 10 AND 20 AND qty != 6",
			[]Pred{Between("cat", IntVal(10), IntVal(20)), Ne("qty", IntVal(6))}},
	}
	for _, c := range cases {
		want := projectNative(t, nat, proj, collectNative(t, nat, c.preds...))
		stmt := "SELECT city, qty FROM items WHERE " + c.where
		for name, db := range map[string]*DB{"native-built": nat, "sql-built": sql} {
			res, err := db.Exec(stmt)
			if err != nil {
				t.Fatalf("%s Exec(%q): %v", name, stmt, err)
			}
			rowsEqual(t, name+" projected "+c.where, res.Rows, want)

			script, err := db.ExecScriptCtx(context.Background(), stmt+"; "+stmt)
			if err != nil {
				t.Fatalf("%s ExecScriptCtx(%q): %v", name, stmt, err)
			}
			for k, sr := range script {
				if sr.Err != nil {
					t.Fatalf("%s script stmt %d: %v", name, k, sr.Err)
				}
				rowsEqual(t, fmt.Sprintf("%s batched projected %s [%d]", name, c.where, k), sr.Res.Rows, want)
			}

			var got []Row
			err = db.Table("items").SelectProject(proj, func(r Row) bool {
				got = append(got, r)
				return true
			}, c.preds...)
			if err != nil {
				t.Fatalf("%s SelectProject(%q): %v", name, c.where, err)
			}
			rowsEqual(t, name+" SelectProject "+c.where, got, want)
		}
	}
}

// TestSQLExplainDecodedCols pins the EXPLAIN extension that makes
// pushdown observable: decoded_cols counts projected + predicated
// columns, and SELECT * decodes everything.
func TestSQLExplainDecodedCols(t *testing.T) {
	rows := fixtureRows(400)
	db := sqlFixture(t, rows)
	cases := []struct {
		stmt string
		want int
	}{
		{"EXPLAIN SELECT * FROM items WHERE qty = 7", 4},
		{"EXPLAIN SELECT qty FROM items WHERE qty = 7", 1},
		{"EXPLAIN SELECT city FROM items WHERE qty = 7", 2},
		{"EXPLAIN SELECT city, price FROM items WHERE qty = 7 AND cat = 3", 4},
	}
	for _, c := range cases {
		res, err := db.Exec(c.stmt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan.DecodedCols != c.want || res.Plan.TotalCols != 4 {
			t.Errorf("%s: DecodedCols = %d/%d, want %d/4", c.stmt, res.Plan.DecodedCols, res.Plan.TotalCols, c.want)
		}
		if len(res.Columns) != 4 || res.Columns[3] != "decoded_cols" {
			t.Fatalf("%s: columns = %v", c.stmt, res.Columns)
		}
		if res.Rows[0][3].Int() != int64(c.want) {
			t.Errorf("%s: decoded_cols cell = %v, want %d", c.stmt, res.Rows[0][3], c.want)
		}
	}
	// Native surface agrees.
	info, err := db.ExplainSpec(QuerySpec{Table: "items", Preds: []Pred{Eq("qty", IntVal(7))}, Cols: []string{"qty"}})
	if err != nil {
		t.Fatal(err)
	}
	if info.DecodedCols != 1 || info.TotalCols != 4 {
		t.Errorf("ExplainSpec with Cols = %d/%d, want 1/4", info.DecodedCols, info.TotalCols)
	}
}

// TestSelectManyProjection (named for the batch door SelectSpec
// replaced) pins QuerySpec.Cols: rows come back projected
// with the scan decoding only the named + predicated columns, and an
// unknown projection column fails the query.
func TestSelectManyProjection(t *testing.T) {
	rows := fixtureRows(300)
	db := nativeFixture(t, rows)
	qty5 := []Pred{Eq("qty", IntVal(5))}
	projected := mustSelect(t, db, QuerySpec{Table: "items", Preds: qty5, Cols: []string{"price", "city"}})
	want := projectNative(t, db, []string{"price", "city"}, mustSelect(t, db, QuerySpec{Table: "items", Preds: qty5}))
	rowsEqual(t, "SelectSpec projected", projected, want)
	if _, err := selectRows(db, QuerySpec{Table: "items", Preds: qty5, Cols: []string{"ghost"}}); err == nil {
		t.Error("unknown projection column did not fail")
	}
	limited, err := selectRows(db, QuerySpec{Table: "items", Via: CMScan, Preds: qty5, Cols: []string{"cat"}, Limit: 3})
	if err != nil || len(limited) != 3 || len(limited[0]) != 1 {
		t.Errorf("projected CM scan with limit: %v, %v", limited, err)
	}
}

func TestSQLProjectionAndLimit(t *testing.T) {
	rows := fixtureRows(200)
	db := sqlFixture(t, rows)

	res, err := db.Exec("SELECT city, qty FROM items WHERE qty = 5")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Columns, []string{"city", "qty"}) {
		t.Errorf("columns = %v", res.Columns)
	}
	var want []Row
	err = db.SelectSpec(context.Background(), QuerySpec{Table: "items", Preds: []Pred{Eq("qty", IntVal(5))}}, func(r Row) bool {
		want = append(want, Row{r[3], r[1]})
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "projection", res.Rows, want)

	// LIMIT returns the first n rows of the unlimited result.
	full, err := db.Exec("SELECT * FROM items WHERE qty >= 3")
	if err != nil {
		t.Fatal(err)
	}
	limited, err := db.Exec("SELECT * FROM items WHERE qty >= 3 LIMIT 5")
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "limit 5", limited.Rows, full.Rows[:5])

	zero, err := db.Exec("SELECT * FROM items LIMIT 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(zero.Rows) != 0 || len(zero.Columns) != 4 {
		t.Errorf("LIMIT 0: %+v", zero)
	}
}

func TestSQLInsertDeleteEquivalence(t *testing.T) {
	rows := fixtureRows(120)
	nat := nativeFixture(t, rows)
	sql := sqlFixture(t, rows)

	// INSERT: same row through both paths.
	if err := nat.Table("items").Insert(Row{IntVal(999), IntVal(500), FloatVal(1.5), StringVal("nowhere")}); err != nil {
		t.Fatal(err)
	}
	res, err := sql.Exec("INSERT INTO items VALUES (999, 500, 1.5, 'nowhere')")
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Errorf("insert affected = %d", res.Affected)
	}
	// Named-column reordering inserts the same row.
	if err := nat.Table("items").Insert(Row{IntVal(998), IntVal(501), FloatVal(2.5), StringVal("elsewhere")}); err != nil {
		t.Fatal(err)
	}
	if _, err := sql.Exec("INSERT INTO items (city, price, qty, cat) VALUES ('elsewhere', 2.5, 501, 998)"); err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "post-insert",
		collectNative(t, sql, Ge("qty", IntVal(500))),
		collectNative(t, nat, Ge("qty", IntVal(500))))

	// DELETE: same predicate through both paths, same count.
	wantN, err := nat.DeleteCtx(context.Background(), "items", Eq("qty", IntVal(5)))
	if err != nil {
		t.Fatal(err)
	}
	res, err = sql.Exec("DELETE FROM items WHERE qty = 5")
	if err != nil {
		t.Fatal(err)
	}
	if int64(res.Affected) != wantN {
		t.Errorf("delete affected %d, native deleted %d", res.Affected, wantN)
	}
	rowsEqual(t, "post-delete", collectNative(t, sql), collectNative(t, nat))
}

// TestSQLExplainEquivalence asserts EXPLAIN reports exactly what the
// native Explain reports.
func TestSQLExplainEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	db := sqlFixture(t, rows)
	for where, pred := range map[string]Pred{
		"qty = 7":          Eq("qty", IntVal(7)),
		"qty IN (3, 8)":    In("qty", IntVal(3), IntVal(8)),
		"cat = 11":         Eq("cat", IntVal(11)),
		"city != 'boston'": Ne("city", StringVal("boston")),
	} {
		res, err := db.Exec("EXPLAIN SELECT * FROM items WHERE " + where)
		if err != nil {
			t.Fatal(err)
		}
		want, err := db.ExplainSpec(QuerySpec{Table: "items", Preds: []Pred{pred}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == nil || res.Plan.Method != want.Method || res.Plan.Uses != want.Uses ||
			res.Plan.EstimatedCost != want.EstimatedCost {
			t.Errorf("EXPLAIN %q = %+v, native = %+v", where, res.Plan, want)
		}
		if res.Rows[0][0].Str() != want.Method.String() {
			t.Errorf("EXPLAIN row method %q != %q", res.Rows[0][0].Str(), want.Method)
		}
	}
}

func TestSQLAdviseEquivalence(t *testing.T) {
	rows := fixtureRows(400)
	db := sqlFixture(t, rows)
	res, err := db.Exec("ADVISE CM FOR SELECT * FROM items WHERE qty = 7 WITHIN 50 PERCENT")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := db.Table("items").Advise(50, Eq("qty", IntVal(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(recs) {
		t.Fatalf("ADVISE returned %d designs, native %d", len(res.Rows), len(recs))
	}
	for i := range recs {
		if res.Rows[i][0].Str() != recs[i].Design {
			t.Errorf("design %d: %q != %q", i, res.Rows[i][0].Str(), recs[i].Design)
		}
		if res.Rows[i][1].Int() != recs[i].SizeBytes {
			t.Errorf("design %d size: %d != %d", i, res.Rows[i][1].Int(), recs[i].SizeBytes)
		}
	}
}

func TestSQLShowEquivalence(t *testing.T) {
	rows := fixtureRows(200)
	db := sqlFixture(t, rows)

	res, err := db.Exec("SHOW SOFT FDS FOR items MIN STRENGTH 0.5")
	if err != nil {
		t.Fatal(err)
	}
	fds, err := db.Table("items").DiscoverFDs(0.5, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(fds) {
		t.Fatalf("SHOW SOFT FDS: %d rows, native %d", len(res.Rows), len(fds))
	}
	for i, fd := range fds {
		if res.Rows[i][1].Str() != fd.Dependent || res.Rows[i][2].Float() != fd.Strength {
			t.Errorf("fd %d: %v vs %+v", i, res.Rows[i], fd)
		}
	}

	res, err = db.Exec("SHOW TABLES")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Str() != "items" ||
		res.Rows[0][1].Int() != db.Table("items").RowCount() {
		t.Errorf("SHOW TABLES: %+v", res.Rows)
	}

	res, err = db.Exec("SHOW INDEXES FOR items")
	if err != nil {
		t.Fatal(err)
	}
	ixs := db.Table("items").Indexes()
	if len(res.Rows) != len(ixs) || res.Rows[0][0].Str() != ixs[0].Name ||
		res.Rows[0][2].Int() != ixs[0].SizeBytes {
		t.Errorf("SHOW INDEXES: %+v vs %+v", res.Rows, ixs)
	}

	res, err = db.Exec("SHOW CMS FOR items")
	if err != nil {
		t.Fatal(err)
	}
	cms := db.Table("items").CMs()
	if len(res.Rows) != len(cms) || res.Rows[0][0].Str() != cms[0].Name ||
		res.Rows[0][2].Int() != cms[0].SizeBytes {
		t.Errorf("SHOW CMS: %+v vs %+v", res.Rows, cms)
	}

	res, err = db.Exec("SHOW STATS")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || len(res.Columns) != 6 {
		t.Errorf("SHOW STATS: %+v", res)
	}
}

func TestSQLCommitAndErrors(t *testing.T) {
	rows := fixtureRows(50)
	db := sqlFixture(t, rows)
	if _, err := db.Exec("COMMIT items"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("COMMIT"); err != nil {
		t.Fatal(err)
	}

	for _, bad := range []string{
		"SELECT * FROM ghosts",
		"SELECT ghost FROM items",
		"INSERT INTO items VALUES (1)",
		"CREATE TABLE items (a INT) CLUSTERED BY (a)",
		"CREATE INDEX ix ON ghosts (a)",
		"COMMIT ghosts",
		"SELECT * FROM items WHERE",
	} {
		if _, err := db.Exec(bad); err == nil {
			t.Errorf("Exec(%q) did not fail", bad)
		}
	}
}

// TestExecScriptBatching asserts a script's consecutive SELECTs return
// exactly what statement-at-a-time Exec returns, including LIMIT,
// projection, and per-statement errors that do not abort the rest of
// the script.
func TestExecScriptBatching(t *testing.T) {
	rows := fixtureRows(300)
	db := sqlFixture(t, rows)
	script := `
		SELECT * FROM items WHERE qty = 5;
		SELECT city FROM items WHERE qty BETWEEN 3 AND 6 LIMIT 4;
		SELECT * FROM ghosts;
		SELECT * FROM items WHERE city = 'toledo' LIMIT 0;
		INSERT INTO items VALUES (777, 888, 9.5, 'later');
		SELECT * FROM items WHERE qty = 888;
	`
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("%d results", len(results))
	}
	one, err := db.Exec("SELECT * FROM items WHERE qty = 5")
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "batched select", results[0].Res.Rows, one.Rows)

	lim, err := db.Exec("SELECT city FROM items WHERE qty BETWEEN 3 AND 6 LIMIT 4")
	if err != nil {
		t.Fatal(err)
	}
	rowsEqual(t, "batched limit", results[1].Res.Rows, lim.Rows)
	if len(results[1].Res.Rows) != 4 {
		t.Errorf("limit rows = %d", len(results[1].Res.Rows))
	}

	if results[2].Err == nil {
		t.Error("unknown table in batch did not error")
	}
	if results[3].Err != nil || len(results[3].Res.Rows) != 0 {
		t.Errorf("LIMIT 0 in batch: %+v", results[3])
	}
	if results[4].Err != nil || results[4].Res.Affected != 1 {
		t.Errorf("insert after batch: %+v", results[4])
	}
	if results[5].Err != nil || len(results[5].Res.Rows) != 1 {
		t.Errorf("select after insert: %+v", results[5])
	}
}

// TestSQLLoadBuildsBucketDirectory asserts LOAD INTO behaves like the
// native Load (clustered order, bucket directory), not like repeated
// inserts: a CM built afterwards maps distinct clustering values to
// distinct buckets.
func TestSQLLoadBuildsBucketDirectory(t *testing.T) {
	db := Open(Config{})
	script := `
		CREATE TABLE p (state STRING, city STRING) CLUSTERED BY (state) BUCKET TUPLES 1;
		LOAD INTO p VALUES ('MA', 'boston'), ('NH', 'boston'), ('OH', 'toledo'), ('MA', 'cambridge');
		CREATE CORRELATION MAP cm ON p (city);
	`
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("statement %d: %v", i, r.Err)
		}
	}
	info := db.Table("p").CMs()[0]
	// boston -> {MA, NH}, cambridge -> {MA}, toledo -> {OH}: 4 pairs
	// only if the bucket directory distinguishes states.
	if info.Pairs != 4 {
		t.Errorf("CM pairs = %d, want 4 (bucket directory missing?)", info.Pairs)
	}
	// Loading twice must fail like the native API.
	if _, err := db.Exec("LOAD INTO p VALUES ('TX', 'austin')"); err == nil {
		t.Error("second LOAD accepted")
	}
}

// TestAdviseSkipsNePredicates pins the advisor boundary: Ne predicates
// never drive probes, so the advisor ignores them (recommending for the
// indexable rest) and refuses a query with nothing indexable.
func TestAdviseSkipsNePredicates(t *testing.T) {
	rows := fixtureRows(400)
	db := sqlFixture(t, rows)
	tbl := db.Table("items")

	want, err := tbl.Advise(50, Eq("qty", IntVal(7)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := tbl.Advise(50, Eq("qty", IntVal(7)), Ne("city", StringVal("boston")))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || (len(got) > 0 && got[0].Design != want[0].Design) {
		t.Errorf("Ne predicate changed advice: %d/%+v vs %d/%+v",
			len(got), got[:min(1, len(got))], len(want), want[:min(1, len(want))])
	}
	if _, err := tbl.Advise(50, Ne("qty", IntVal(7))); err == nil {
		t.Error("Ne-only Advise did not fail")
	}
	if _, err := db.Exec("ADVISE CM FOR SELECT * FROM items WHERE qty != 7"); err == nil {
		t.Error("Ne-only ADVISE statement did not fail")
	}
}
