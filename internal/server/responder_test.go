// Responder tests: the one row encoder is pinned to encoding/json (not
// to itself), one bad value or one oversized statement costs only its
// own statement in either wire mode, the response line as a whole
// honours the 4 MiB cap, and framing a buffered response stays free of
// per-row allocations. Every test name matches the CI race sweep's
// Stream|Coalesce|Auth filter.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro"
)

// encodeRow is the encoder the wire had before appendRow, kept as the
// reference implementation: box every value and let encoding/json
// marshal the row.
func encodeRow(r repro.Row) []any {
	out := make([]any, len(r))
	for i, v := range r {
		switch v.Kind() {
		case repro.Int:
			out[i] = v.Int()
		case repro.Float:
			out[i] = v.Float()
		default:
			out[i] = v.Str()
		}
	}
	return out
}

// FuzzAppendRow asserts appendRow produces encoding/json's bytes for a
// row of every value kind, or fails with the same error.
func FuzzAppendRow(f *testing.F) {
	for _, s := range []string{"", "plain ascii", "<>&", `"quoted" back\slash`, "ctl\x00\x01\b\f\n\r\t\x1f\x7f",
		"sep  ", "bad\xff\xfeutf8", "156µs", "日本語"} {
		f.Add(s, int64(0), 0.0)
	}
	for _, i := range []int64{1, -1, math.MaxInt64, math.MinInt64} {
		f.Add("i", i, 1.0)
	}
	for _, x := range []float64{math.Copysign(0, -1), 1e21, 1e20, 1e-7, 1e-6, 5e-324, 1.7976931348623157e308,
		-1.5, 240, 1e15, 0.1, 123456789.125, math.Inf(1), math.Inf(-1), math.NaN()} {
		f.Add("x", int64(7), x)
	}
	f.Fuzz(func(t *testing.T, s string, i int64, x float64) {
		row := repro.Row{repro.StringVal(s), repro.IntVal(i), repro.FloatVal(x), repro.StringVal(s)}
		want, wantErr := json.Marshal(encodeRow(row))
		got, err := appendRow([]byte("keep"), row)
		if err != nil || wantErr != nil {
			if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
				t.Fatalf("appendRow error %v, encoding/json error %v", err, wantErr)
			}
			return
		}
		if string(got) != "keep"+string(want) {
			t.Fatalf("appendRow\n got  %s\n want keep%s", got, want)
		}
	})
}

// TestStreamNonFiniteFloat pins what a value JSON cannot carry costs: in
// either wire mode the statement that produced it answers with a
// per-statement error naming it, the statements before and after it on
// the line answer as usual, and the session survives. At the parent
// commit a buffered session lost the whole line.
func TestStreamNonFiniteFloat(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{})
	defer stop()
	c := dial(t, addr)
	defer c.close()
	mustOK(t, c.roundTrip(t, "CREATE TABLE f (k INT, x FLOAT) CLUSTERED BY (k)"))
	mustOK(t, c.roundTrip(t, "INSERT INTO f VALUES (1, 1e308)"))
	mustOK(t, c.roundTrip(t, "INSERT INTO f VALUES (2, 1e308)"))
	nan, err := db.CreateTable(repro.TableSpec{
		Name:        "n",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "x", Kind: repro.Float}},
		ClusteredBy: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := nan.Load([]repro.Row{
		{repro.IntVal(1), repro.FloatVal(0.5)},
		{repro.IntVal(2), repro.FloatVal(math.NaN())},
		{repro.IntVal(3), repro.FloatVal(1.5)},
	}); err != nil {
		t.Fatal(err)
	}

	cases := []struct{ line, value string }{
		{"SELECT count(*) FROM f; SELECT sum(x) FROM f; SELECT k FROM f WHERE k = 2", "+Inf"},
		{"SELECT count(*) FROM n; SELECT k, x FROM n; SELECT x FROM n WHERE k = 3", "NaN"},
	}
	check := func(mode string, line, value string, errs []string, rows []int) {
		t.Helper()
		if len(errs) != 3 {
			t.Fatalf("%s %q: %d results, want 3", mode, line, len(errs))
		}
		if !strings.Contains(errs[1], "statement 2") || !strings.Contains(errs[1], value) {
			t.Errorf("%s %q: statement 2 error = %q, want it to name the statement and %s", mode, line, errs[1], value)
		}
		if errs[0] != "" || errs[2] != "" || rows[0] != 1 || rows[2] != 1 {
			t.Errorf("%s %q: neighbours damaged: errors %q, rows %v", mode, line, errs, rows)
		}
		if rows[1] != 0 {
			t.Errorf("%s %q: the failed statement still delivered %d rows", mode, line, rows[1])
		}
	}
	for _, tc := range cases {
		resp := c.roundTrip(t, tc.line)
		if resp.Error != "" {
			t.Fatalf("buffered %q: the whole line failed: %s", tc.line, resp.Error)
		}
		errs, rows := make([]string, len(resp.Results)), make([]int, len(resp.Results))
		for i, r := range resp.Results {
			errs[i], rows[i] = r.Error, len(r.Rows)
		}
		check("buffered", tc.line, tc.value, errs, rows)
	}
	c.setChunk(t, 1) // the NaN row is the second of three: a frame has already left
	for _, tc := range cases {
		chunks, done := c.chunkTrip(t, tc.line)
		if done.Error != "" {
			t.Fatalf("chunked %q: the whole line failed: %s", tc.line, done.Error)
		}
		errs, rows := make([]string, len(done.Results)), make([]int, len(done.Results))
		for i, r := range done.Results {
			errs[i] = r.Error
		}
		for _, cf := range chunks {
			if cf.Stmt != 1 { // frames that left before the bad row stay delivered
				rows[cf.Stmt] += len(cf.Rows)
			}
		}
		check("chunked", tc.line, tc.value, errs, rows)
	}
	c.setChunk(t, 0)
	mustOK(t, c.roundTrip(t, "SELECT count(*) FROM f"))
}

// TestStreamLineCapBoundsTheLine reads the way the server itself reads
// requests — a bufio.Scanner bounded at maxLineBytes — and sends two
// statements that each fit under the cap but not together. The
// statement that would take the line past the cap answers with the
// per-statement cap error; the ones before and after it answer. At the
// parent commit the line was 5,267,528 bytes and cut this client.
func TestStreamLineCapBoundsTheLine(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{})
	defer stop()
	big, err := db.CreateTable(repro.TableSpec{
		Name:        "big",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "body", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", 2<<10)
	rows := make([]repro.Row, 2560) // 2560 * 2 KiB of string payload > 4 MiB encoded
	for i := range rows {
		rows[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(wide)}
	}
	if err := big.Load(rows); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	defer c.close()
	sc := bufio.NewScanner(c.conn)
	sc.Buffer(make([]byte, 64<<10), maxLineBytes)
	c.conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	if _, err := fmt.Fprintln(c.conn, "SELECT * FROM big WHERE k < 1300; SELECT * FROM big WHERE k >= 1300; SELECT count(*) FROM big"); err != nil {
		t.Fatal(err)
	}
	if !sc.Scan() {
		t.Fatalf("a client bounded at the documented line cap was cut: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Error != "" || len(resp.Results) != 3 {
		t.Fatalf("response: error %q, %d results", resp.Error, len(resp.Results))
	}
	if r := resp.Results[0]; r.Error != "" || len(r.Rows) != 1300 {
		t.Errorf("statement 1, which fits: error %q, %d rows", r.Error, len(r.Rows))
	}
	e := resp.Results[1].Error
	for _, want := range []string{"statement 2", "past the 4194304-byte response cap", "(1260 rows)", "add a LIMIT or a tighter WHERE"} {
		if !strings.Contains(e, want) {
			t.Errorf("statement 2 error = %q, want it to contain %q", e, want)
		}
	}
	if r := resp.Results[2]; r.Error != "" || len(r.Rows) != 1 {
		t.Errorf("statement 3, after the capped one: error %q, %d rows", r.Error, len(r.Rows))
	}
}

// TestStreamBufferedResponseAllocs bounds the allocations of framing the
// benchmark's own reply shape, 120 one-int rows, as a buffered response:
// the rows are appended once into a buffer the session reuses. Boxing
// each value for a reflective marshal cost 254 allocations a response.
func TestStreamBufferedResponseAllocs(t *testing.T) {
	res := &repro.Result{Columns: []string{"price"}}
	for i := 0; i < 120; i++ {
		res.Rows = append(res.Rows, repro.Row{repro.IntVal(int64(1000 + i))})
	}
	sr := repro.ScriptResult{Res: res, Rows: 120, Elapsed: 85 * time.Microsecond, PagesRead: 5}
	conn := &captureConn{}
	r := &responder{w: &connWriter{conn: conn}}
	frame := func() {
		conn.buf.Reset()
		r.reset()
		r.result(0, sr)
		if !r.finish() {
			t.Fatal("finish reported a dead connection")
		}
	}
	frame()
	var rows []string
	for i := 0; i < 120; i++ {
		rows = append(rows, fmt.Sprintf("[%d]", 1000+i))
	}
	want := `{"results":[{"columns":["price"],"rows":[` + strings.Join(rows, ",") +
		`],"elapsed_ns":85000,"row_count":120,"pages_read":5}]}` + "\n"
	if got := conn.buf.String(); got != want {
		t.Fatalf("framed line\n got  %s want %s", got, want)
	}
	if allocs := testing.AllocsPerRun(200, frame); allocs > 8 {
		t.Errorf("framing a 120-row buffered response allocates %.0f times, want single digits", allocs)
	}
}
