package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"repro"
)

// startServer boots a server on a loopback port over a fresh DB and
// returns its address plus a shutdown func.
func startServer(t *testing.T) (*repro.DB, string, func()) {
	t.Helper()
	db := repro.Open(repro.Config{})
	srv := New(db, Config{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	return db, ln.Addr().String(), func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// client is a test connection speaking the wire protocol.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &client{conn: conn, r: bufio.NewReaderSize(conn, 1<<20)}
}

func (c *client) close() { c.conn.Close() }

// roundTrip sends one line (raw SQL or JSON) and decodes the response.
func (c *client) roundTrip(t *testing.T, line string) Response {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return resp
}

// mustOK asserts every statement in the response succeeded.
func mustOK(t *testing.T, resp Response) Response {
	t.Helper()
	if resp.Error != "" {
		t.Fatalf("response error: %s", resp.Error)
	}
	for i, r := range resp.Results {
		if r.Error != "" {
			t.Fatalf("statement %d: %s", i, r.Error)
		}
	}
	return resp
}

func TestServerBasicRoundTrips(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	defer c.close()

	mustOK(t, c.roundTrip(t, "CREATE TABLE kv (k INT, v STRING) CLUSTERED BY (k)"))
	mustOK(t, c.roundTrip(t, "LOAD INTO kv VALUES (1, 'one'), (2, 'two'), (3, 'three')"))

	// Raw SQL line.
	resp := mustOK(t, c.roundTrip(t, "SELECT v FROM kv WHERE k >= 2"))
	if len(resp.Results) != 1 || len(resp.Results[0].Rows) != 2 {
		t.Fatalf("select: %+v", resp)
	}
	if resp.Results[0].Rows[0][0] != "two" {
		t.Errorf("row payload: %+v", resp.Results[0].Rows[0])
	}

	// JSON-framed request with several statements: one response line,
	// one result per statement.
	req, _ := json.Marshal(Request{SQL: "SELECT * FROM kv WHERE k = 1; SELECT * FROM kv WHERE k != 1; INSERT INTO kv VALUES (4, 'four')"})
	resp = mustOK(t, c.roundTrip(t, string(req)))
	if len(resp.Results) != 3 {
		t.Fatalf("batched: %+v", resp)
	}
	if len(resp.Results[0].Rows) != 1 || len(resp.Results[1].Rows) != 2 {
		t.Errorf("batched rows: %+v", resp.Results)
	}
	if resp.Results[2].Affected != 1 {
		t.Errorf("insert affected: %+v", resp.Results[2])
	}

	// Numbers survive as JSON numbers (int column round-trips).
	resp = mustOK(t, c.roundTrip(t, "SELECT k FROM kv WHERE v = 'four'"))
	if n, ok := resp.Results[0].Rows[0][0].(float64); !ok || n != 4 {
		t.Errorf("int cell decoded as %#v", resp.Results[0].Rows[0][0])
	}

	// Statement errors are per-statement, not connection-fatal.
	resp = c.roundTrip(t, "SELECT * FROM ghosts; SELECT k FROM kv WHERE k = 1")
	if resp.Error != "" {
		t.Fatalf("line error: %s", resp.Error)
	}
	if resp.Results[0].Error == "" || resp.Results[1].Error != "" {
		t.Errorf("per-statement errors: %+v", resp.Results)
	}

	// Parse errors answer on the line without executing anything.
	resp = c.roundTrip(t, "SELEKT * FROM kv")
	if resp.Error == "" {
		t.Error("parse error not reported")
	}

	// Bad JSON answers too.
	resp = c.roundTrip(t, "{not json")
	if resp.Error == "" {
		t.Error("bad JSON not reported")
	}
}

// TestServerConcurrentClients runs 12 client connections hammering one
// table with mixed reads and writes. Under -race this exercises the
// session goroutines, multi-statement lines and the engine latches
// together; every client must see internally consistent results.
func TestServerConcurrentClients(t *testing.T) {
	db, addr, stop := startServer(t)
	defer stop()

	setup := dial(t, addr)
	mustOK(t, setup.roundTrip(t, "CREATE TABLE grid (c INT, u INT, tag STRING) CLUSTERED BY (c) BUCKET TUPLES 16"))
	var load strings.Builder
	load.WriteString("LOAD INTO grid VALUES ")
	const seedRows = 2000
	for i := 0; i < seedRows; i++ {
		if i > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, %d, 'seed')", i, i/20)
	}
	mustOK(t, setup.roundTrip(t, load.String()))
	mustOK(t, setup.roundTrip(t, "CREATE CORRELATION MAP cm_u ON grid (u)"))
	mustOK(t, setup.roundTrip(t, "CREATE INDEX ix_u ON grid (u)"))
	setup.close()

	const clients = 12
	const rounds = 15
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReaderSize(conn, 1<<20)
			trip := func(line string) (Response, error) {
				if _, err := fmt.Fprintf(conn, "%s\n", line); err != nil {
					return Response{}, err
				}
				raw, err := r.ReadBytes('\n')
				if err != nil {
					return Response{}, err
				}
				var resp Response
				if err := json.Unmarshal(raw, &resp); err != nil {
					return Response{}, err
				}
				return resp, nil
			}
			for round := 0; round < rounds; round++ {
				u := (w*rounds + round) % 100
				switch w % 3 {
				case 0: // writer: insert then read back its tag
					tag := fmt.Sprintf("w%d-%d", w, round)
					resp, err := trip(fmt.Sprintf(
						"INSERT INTO grid VALUES (%d, %d, '%s')", 100000+w*1000+round, u, tag))
					if err != nil {
						errs <- err
						return
					}
					if resp.Error != "" || resp.Results[0].Error != "" {
						errs <- fmt.Errorf("insert: %+v", resp)
						return
					}
					resp, err = trip(fmt.Sprintf("SELECT tag FROM grid WHERE tag = '%s'", tag))
					if err != nil {
						errs <- err
						return
					}
					if len(resp.Results[0].Rows) != 1 {
						errs <- fmt.Errorf("client %d lost its insert %q", w, tag)
						return
					}
				case 1: // batch reader: ';'-separated SELECTs on one line
					resp, err := trip(fmt.Sprintf(
						"SELECT * FROM grid WHERE u = %d; SELECT c FROM grid WHERE u BETWEEN %d AND %d LIMIT 5; EXPLAIN SELECT * FROM grid WHERE u = %d",
						u, u, u+3, u))
					if err != nil {
						errs <- err
						return
					}
					if resp.Error != "" {
						errs <- fmt.Errorf("batch: %s", resp.Error)
						return
					}
					for i, res := range resp.Results {
						if res.Error != "" {
							errs <- fmt.Errorf("batch stmt %d: %s", i, res.Error)
							return
						}
					}
					if n := len(resp.Results[1].Rows); n > 5 {
						errs <- fmt.Errorf("LIMIT 5 returned %d rows", n)
						return
					}
				default: // metadata reader
					resp, err := trip("SHOW TABLES; SHOW CMS FOR grid; SHOW STATS")
					if err != nil {
						errs <- err
						return
					}
					if resp.Error != "" || len(resp.Results) != 3 {
						errs <- fmt.Errorf("show: %+v", resp)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	// Every seed row plus every writer insert must be visible.
	wantInserts := 0
	for w := 0; w < clients; w++ {
		if w%3 == 0 {
			wantInserts += rounds
		}
	}
	if got := db.Table("grid").RowCount(); got != int64(seedRows+wantInserts) {
		t.Errorf("final rowcount %d, want %d", got, seedRows+wantInserts)
	}
}

// TestServerSessionIsolation asserts one session's oversized or broken
// input does not affect another live session.
func TestServerSessionIsolation(t *testing.T) {
	_, addr, stop := startServer(t)
	defer stop()

	good := dial(t, addr)
	defer good.close()
	mustOK(t, good.roundTrip(t, "CREATE TABLE t (a INT) CLUSTERED BY (a)"))

	// A client that sends garbage and hangs up mid-line.
	bad := dial(t, addr)
	fmt.Fprint(bad.conn, "SELECT * FROM t WHERE a = 'unterminated\n")
	bad.conn.(*net.TCPConn).CloseWrite()
	bad.close()

	// The good session keeps working.
	resp := mustOK(t, good.roundTrip(t, "LOAD INTO t VALUES (1), (2); SELECT * FROM t"))
	if len(resp.Results[1].Rows) != 2 {
		t.Errorf("post-garbage select: %+v", resp.Results[1])
	}
}

// TestServerOversizedResultCap asserts a statement whose encoded result
// exceeds the 4 MiB line cap answers with a clean per-statement error
// (naming the statement and its row count) instead of killing the
// connection: the other statements on the line still run and the
// session stays alive for later requests.
func TestServerOversizedResultCap(t *testing.T) {
	db, addr, stop := startServer(t)
	defer stop()

	// Build > 4 MiB of result payload natively — the request-line cap
	// would reject loading this over the wire in one statement.
	if _, err := db.CreateTable(repro.TableSpec{
		Name:        "big",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "body", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", 2<<10)
	rows := make([]repro.Row, 2560) // 2560 * 2 KiB of string payload > 4 MiB encoded
	for i := range rows {
		rows[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(wide)}
	}
	if err := db.Table("big").Load(rows); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	defer c.close()

	resp := c.roundTrip(t, "SELECT * FROM big; SELECT count(*) FROM big")
	if resp.Error != "" {
		t.Fatalf("line error: %s", resp.Error)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("want 2 results, got %d", len(resp.Results))
	}
	// 5,267,434 bytes of the line are fixed; the statement's own
	// elapsed_ns width is not on it.
	checkCapError(t, resp.Results[0].Error, 1, 5267434, 2560)
	if len(resp.Results[0].Rows) != 0 {
		t.Errorf("oversized result still carried %d rows", len(resp.Results[0].Rows))
	}
	if resp.Results[1].Error != "" || len(resp.Results[1].Rows) != 1 {
		t.Fatalf("follow-up statement on the same line: %+v", resp.Results[1])
	}

	// The session survives for later round trips.
	resp = mustOK(t, c.roundTrip(t, "SELECT k FROM big LIMIT 3"))
	if len(resp.Results[0].Rows) != 3 {
		t.Errorf("post-cap select: %+v", resp.Results[0])
	}
}

// paperFixture loads a correlated employees table (city soft-determines
// state, the paper's running example) into db through the SQL surface
// and returns the load script's row count.
func paperFixture(t *testing.T, db *repro.DB) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE employees (state STRING, city STRING, salary INT) CLUSTERED BY (state) BUCKET TUPLES 8;\n")
	sb.WriteString("LOAD INTO employees VALUES ")
	states := []string{"AL", "CA", "MA", "NH", "OH", "TX"}
	cities := []string{"auburn", "fresno", "boston", "nashua", "toledo", "austin"}
	for i := 0; i < 480; i++ {
		si := (i / 80) % len(states)
		ci := si
		if i%17 == 0 { // soft FD: a few cross-state outliers
			ci = (si + 1) % len(cities)
		}
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "('%s', '%s', %d)", states[si], cities[ci], 20000+(i*37)%90000)
	}
	sb.WriteString(";\nCREATE CORRELATION MAP cm_city ON employees (city);")
	results, err := db.ExecScriptCtx(context.Background(), sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("fixture statement %d: %v", i, r.Err)
		}
	}
}

// TestServerPaperAggregateWorkload runs the paper's own query shape —
// SELECT AVG(salary) FROM employees WHERE city = ... — through the wire
// protocol and pins it to the native SelectAggregateCtx result, with the
// EXPLAIN plan showing the agg/sort nodes and a workers=8 server
// byte-identical to a serial engine.
func TestServerPaperAggregateWorkload(t *testing.T) {
	db := repro.Open(repro.Config{Workers: 8})
	paperFixture(t, db)
	srv := New(db, Config{Logf: t.Logf})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	defer func() {
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}()
	c := dial(t, ln.Addr().String())
	defer c.close()

	// The paper's example, verbatim shape, over the wire.
	resp := mustOK(t, c.roundTrip(t, "SELECT AVG(salary) FROM employees WHERE city = 'boston'"))
	if len(resp.Results) != 1 || len(resp.Results[0].Rows) != 1 {
		t.Fatalf("avg response: %+v", resp)
	}
	wireAvg := resp.Results[0].Rows[0][0].(float64)
	hdr, rows, err := db.SelectAggregateCtx(context.Background(), repro.QuerySpec{
		Table: "employees",
		Preds: []repro.Pred{repro.Eq("city", repro.StringVal("boston"))},
		Aggs:  []repro.Agg{{Func: repro.Avg, Col: "salary"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if hdr[0] != "avg(salary)" || resp.Results[0].Columns[0] != "avg(salary)" {
		t.Errorf("headers: native %v, wire %v", hdr, resp.Results[0].Columns)
	}
	if native := rows[0][0].Float(); wireAvg != native {
		t.Errorf("wire avg %v != native %v", wireAvg, native)
	}

	// Grouped + ordered + limited, still one wire line.
	stmt := "SELECT city, avg(salary), count(*) FROM employees GROUP BY city ORDER BY avg(salary) DESC, city LIMIT 4"
	resp = mustOK(t, c.roundTrip(t, stmt))
	_, nativeRows, err := db.SelectAggregateCtx(context.Background(), repro.QuerySpec{
		Table:   "employees",
		Aggs:    []repro.Agg{{Func: repro.Avg, Col: "salary"}, {Func: repro.Count}},
		GroupBy: []string{"city"},
		OrderBy: []repro.Order{{Col: "avg(salary)", Desc: true}, {Col: "city"}},
		Limit:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := resp.Results[0].Rows
	if len(got) != len(nativeRows) {
		t.Fatalf("wire %d rows, native %d", len(got), len(nativeRows))
	}
	for i := range got {
		// Wire order is the SELECT list (city, avg, count); native
		// canonical order is (city, avg, count) too.
		if got[i][0].(string) != nativeRows[i][0].Str() ||
			got[i][1].(float64) != nativeRows[i][1].Float() ||
			int64(got[i][2].(float64)) != nativeRows[i][2].Int() {
			t.Errorf("row %d: wire %v vs native %v", i, got[i], nativeRows[i])
		}
	}

	// Workers=8 must be byte-identical to a fully serial engine.
	serial := repro.Open(repro.Config{Workers: 1})
	paperFixture(t, serial)
	_, serialRows, err := serial.SelectAggregateCtx(context.Background(), repro.QuerySpec{
		Table:   "employees",
		Aggs:    []repro.Agg{{Func: repro.Avg, Col: "salary"}, {Func: repro.Count}},
		GroupBy: []string{"city"},
		OrderBy: []repro.Order{{Col: "avg(salary)", Desc: true}, {Col: "city"}},
		Limit:   4,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range nativeRows {
		for j := range nativeRows[i] {
			if nativeRows[i][j].String() != serialRows[i][j].String() {
				t.Errorf("parallel row %d col %d = %v, serial %v", i, j, nativeRows[i][j], serialRows[i][j])
			}
		}
	}

	// EXPLAIN over the wire surfaces the plan tree: the paper's grouped
	// AVG is fully covered by the city CM, so the access row is the
	// index-only cm-agg node with sort and limit above it.
	resp = mustOK(t, c.roundTrip(t, "EXPLAIN "+stmt))
	kinds := make([]string, 0, len(resp.Results[0].Rows))
	for _, row := range resp.Results[0].Rows {
		kinds = append(kinds, row[0].(string))
	}
	if len(kinds) != 3 || kinds[0] != "cm-agg" || kinds[1] != "sort" || kinds[2] != "limit" {
		t.Errorf("EXPLAIN node rows = %v", kinds)
	}
}
