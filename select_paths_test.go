package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// TestSelectEntryPointsAgree runs a fixed list of SELECTs — plain,
// projected, LIMIT 0, LIMIT 3, OR, a grouped aggregate whose ORDER BY
// names an aggregate the SELECT list hides (so OutPerm drops a column),
// a bind error and a missing table — through every SQL door and asserts
// identical columns, rows, Rows count and error text: Exec, a
// two-SELECT ExecScriptCtx, ExecScriptStreamCtx with a collecting
// RowStreamer (Row, and RowJSON against the rows' encoding/json bytes),
// and ExecPreparedBatch (PrepareSelect declines the statements that do
// not bind), at one and at four workers. The native query door,
// SelectSpec through the named CM, answers the statement it can express
// with the same rows.
func TestSelectEntryPointsAgree(t *testing.T) {
	stmts := []string{
		"SELECT * FROM items WHERE qty = 7",
		"SELECT city, qty FROM items WHERE qty BETWEEN 4 AND 9",
		"SELECT * FROM items WHERE qty = 7 LIMIT 0",
		"SELECT city FROM items WHERE qty >= 4 LIMIT 3",
		"SELECT cat, city FROM items WHERE qty = 7 OR city = 'toledo'",
		"SELECT city, avg(price) FROM items WHERE qty < 20 GROUP BY city ORDER BY count(*) DESC, city",
		"SELECT nope FROM items",
		"SELECT * FROM ghosts",
	}
	// viaCM gives the native predicates of the statements a SelectSpec
	// through the named CM can answer (SELECT * over one conjunction on
	// qty).
	viaCM := map[string][]Pred{stmts[0]: {Eq("qty", IntVal(7))}}
	// render flattens one outcome for comparison.
	render := func(cols []string, rows []Row, n int, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		var sb strings.Builder
		fmt.Fprintf(&sb, "%v %d rows", cols, n)
		for _, r := range rows {
			sb.WriteString("\n")
			for _, v := range r {
				fmt.Fprintf(&sb, "%d:%s|", v.Kind(), v)
			}
		}
		return sb.String()
	}
	// renderJSON flattens one outcome streamed as encoded rows.
	renderJSON := func(cols []string, rows []string, n int, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return fmt.Sprintf("%v %d rows\n%s", cols, n, strings.Join(rows, "\n"))
	}
	fromScript := func(sr ScriptResult) string {
		if sr.Err != nil {
			return render(nil, nil, 0, sr.Err)
		}
		return render(sr.Res.Columns, sr.Res.Rows, sr.Rows, nil)
	}
	fixture := fmt.Sprintf(sqlFixtureScript, sqlLiteralRows(fixtureRows(400)))
	for _, workers := range []int{1, 4} {
		db := Open(Config{Workers: workers})
		if results, err := db.ExecScriptCtx(context.Background(), fixture); err != nil {
			t.Fatal(err)
		} else if len(results) != 4 || results[3].Err != nil {
			t.Fatalf("fixture: %+v", results)
		}
		sawRows, sawHidden := false, false
		for _, stmt := range stmts {
			name := fmt.Sprintf("workers=%d %s", workers, stmt)
			res, err := db.Exec(stmt)
			var want, wantJSON string
			if err != nil {
				want = render(nil, nil, 0, err)
				wantJSON = want
			} else {
				want = render(res.Columns, res.Rows, len(res.Rows), nil)
				encoded := make([]string, len(res.Rows))
				for i, r := range res.Rows {
					vals := make([]any, len(r))
					for j, v := range r {
						switch v.Kind() {
						case Int:
							vals[j] = v.Int()
						case Float:
							vals[j] = v.Float()
						default:
							vals[j] = v.Str()
						}
					}
					b, merr := json.Marshal(vals)
					if merr != nil {
						t.Fatal(merr)
					}
					encoded[i] = string(b)
				}
				wantJSON = renderJSON(res.Columns, encoded, len(res.Rows), nil)
				sawRows = sawRows || len(res.Rows) > 1
				sawHidden = sawHidden || (len(res.Columns) == 2 && res.Columns[1] == "avg(price)" && len(res.Rows[0]) == 2)
			}

			if preds, ok := viaCM[stmt]; ok {
				rows, verr := selectRows(db, QuerySpec{Table: "items", Via: CMScan, CM: "cm_qty", Preds: preds})
				if got := render(res.Columns, rows, len(rows), verr); got != want {
					t.Errorf("%s: SelectSpec\n got  %s\n want %s", name, got, want)
				}
			}

			batch, berr := db.ExecScriptCtx(context.Background(), stmt+"; "+stmt)
			if berr != nil || len(batch) != 2 {
				t.Fatalf("%s: ExecScriptCtx: %v (%d results)", name, berr, len(batch))
			}
			for k, sr := range batch {
				if got := fromScript(sr); got != want {
					t.Errorf("%s: batch[%d]\n got  %s\n want %s", name, k, got, want)
				}
			}

			var cols []string
			var rows []Row
			streamed, serr := db.ExecScriptStreamCtx(context.Background(), stmt, RowStreamer{
				Begin: func(_ int, c []string) { cols = c },
				Row:   func(_ int, r Row) bool { rows = append(rows, r); return true },
			})
			if serr != nil || len(streamed) != 1 {
				t.Fatalf("%s: ExecScriptStreamCtx: %v (%d results)", name, serr, len(streamed))
			}
			sr := streamed[0]
			if sr.Err == nil && (sr.Res.Rows != nil || fmt.Sprint(sr.Res.Columns) != fmt.Sprint(cols)) {
				t.Errorf("%s: streamed result kept rows or a header %v unlike Begin's %v", name, sr.Res.Columns, cols)
			}
			if got := render(cols, rows, sr.Rows, sr.Err); got != want {
				t.Errorf("%s: streamed\n got  %s\n want %s", name, got, want)
			}

			cols = nil
			var encoded []string
			streamed, serr = db.ExecScriptStreamCtx(context.Background(), stmt, RowStreamer{
				Begin: func(_ int, c []string) { cols = c },
				RowJSON: func(_ int, row []byte, err error) bool {
					if err != nil {
						t.Errorf("%s: RowJSON: %v", name, err)
						return false
					}
					encoded = append(encoded, string(row))
					return true
				},
			})
			if serr != nil || len(streamed) != 1 {
				t.Fatalf("%s: ExecScriptStreamCtx RowJSON: %v (%d results)", name, serr, len(streamed))
			}
			if got := renderJSON(cols, encoded, streamed[0].Rows, streamed[0].Err); got != wantJSON {
				t.Errorf("%s: streamed JSON\n got  %s\n want %s", name, got, wantJSON)
			}

			prep := db.PrepareSelect(stmt)
			if (prep == nil) != (err != nil) {
				t.Fatalf("%s: PrepareSelect = %v with Exec error %v", name, prep, err)
			}
			if prep == nil {
				continue
			}
			for k, sr := range db.ExecPreparedBatch([]context.Context{context.Background()}, []*PreparedSelect{prep, prep}) {
				if got := fromScript(sr); got != want {
					t.Errorf("%s: prepared[%d]\n got  %s\n want %s", name, k, got, want)
				}
				if sr.SQL != stmt {
					t.Errorf("%s: prepared[%d] SQL = %q", name, k, sr.SQL)
				}
			}
		}
		if !sawRows || !sawHidden {
			t.Errorf("workers=%d: fixture too thin (rows %v, hidden ORDER BY aggregate dropped %v)", workers, sawRows, sawHidden)
		}
	}
}

// TestQuerySpecCMNeedsCMScan pins the two ways a named CM can be wrong:
// a name the table has no CM under fails in the planner, and a name
// beside any Via but CMScan fails before planning rather than being
// silently ignored. Neither delivers a row.
func TestQuerySpecCMNeedsCMScan(t *testing.T) {
	db := nativeFixture(t, fixtureRows(200))
	qty7 := []Pred{Eq("qty", IntVal(7))}
	cases := []struct {
		spec QuerySpec
		want string
	}{
		{QuerySpec{Table: "items", Via: CMScan, CM: "nope", Preds: qty7}, `plan: table items has no CM "nope"`},
		{QuerySpec{Table: "items", CM: "cm_qty", Preds: qty7}, `repro: CM "cm_qty" needs Via CMScan, not auto`},
		{QuerySpec{Table: "items", Via: TableScan, CM: "cm_qty", Preds: qty7}, `repro: CM "cm_qty" needs Via CMScan, not table-scan`},
		{QuerySpec{Table: "items", Via: SortedIndexScan, CM: "cm_qty", Preds: qty7}, `repro: CM "cm_qty" needs Via CMScan, not sorted-index-scan`},
	}
	for _, c := range cases {
		rows, err := selectRows(db, c.spec)
		if err == nil || err.Error() != c.want || len(rows) != 0 {
			t.Errorf("%v CM %q: %d rows, err %v; want %s", c.spec.Via, c.spec.CM, len(rows), err, c.want)
		}
		if _, err := db.ExplainSpec(c.spec); err == nil || err.Error() != c.want {
			t.Errorf("EXPLAIN %v CM %q: err %v; want %s", c.spec.Via, c.spec.CM, err, c.want)
		}
	}
	if rows := mustSelect(t, db, QuerySpec{Table: "items", Via: CMScan, CM: "cm_qty", Preds: qty7}); len(rows) == 0 {
		t.Error("the named CM matched nothing; fixture broken")
	}
}
