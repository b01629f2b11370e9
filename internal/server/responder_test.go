// Responder tests: one bad value or one oversized statement costs only
// its own statement in either wire mode, the response line as a whole
// honours the 4 MiB cap, and framing a buffered response into buffers
// the session keeps allocates nothing. (The row encoder itself is pinned
// to encoding/json beside it, in internal/value.) Every test name
// matches the CI race sweep's Stream|Coalesce|Auth filter.
package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/value"
)

// encodeRow is the encoder the wire had before the value encoder, kept
// as the reference implementation: box every value and let
// encoding/json marshal the row.
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

// FuzzAppendRow holds the responder's Row callback — a facade row turned
// into the engine's values and put through the value encoder — to
// encoding/json: the bytes it holds back for a row of every value kind
// are encoding/json's, and a value JSON cannot carry fails the
// statement with encoding/json's error. (FuzzAppendRow in internal/value
// pins the encoder itself.)
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
		r := newResponder(&connWriter{conn: &captureConn{}}, nil)
		r.rs.Begin(0, []string{"s", "i", "x", "s"})
		r.rs.Row(0, row)
		r.rs.End(0)
		if err := r.at(0).err; err != nil || wantErr != nil {
			if err == nil || wantErr == nil || !strings.HasSuffix(err.Error(), ": "+wantErr.Error()) {
				t.Fatalf("Row callback error %v, encoding/json error %v", err, wantErr)
			}
			return
		}
		if string(r.rows) != string(want) {
			t.Fatalf("Row callback held\n got  %s\n want %s", r.rows, want)
		}
	})
}

// appendRow is the value encoder over a facade row: what the
// responder's Row callback puts on the wire for it.
func appendRow(dst []byte, row repro.Row) ([]byte, error) {
	vals := make(value.Row, len(row))
	for i, v := range row {
		switch v.Kind() {
		case repro.Int:
			vals[i] = value.NewInt(v.Int())
		case repro.Float:
			vals[i] = value.NewFloat(v.Float())
		default:
			vals[i] = value.NewString(v.Str())
		}
	}
	return value.AppendRow(dst, vals)
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
	// 5,267,499 bytes of the line are fixed; statement 1's elapsed_ns
	// width is on the line, statement 2's is not.
	fixed := 5267499 + len(strconv.FormatInt(resp.Results[0].ElapsedNS, 10))
	checkCapError(t, resp.Results[1].Error, 2, fixed, 1260)
	if r := resp.Results[2]; r.Error != "" || len(r.Rows) != 1 {
		t.Errorf("statement 3, after the capped one: error %q, %d rows", r.Error, len(r.Rows))
	}
}

// capError is the per-statement cap error in full: statement stmt, the
// line's running total through it in bytes, and its row count.
func capError(stmt, bytes, rows int) string {
	return fmt.Sprintf("server: statement %d result is %d bytes, past the 4194304-byte response cap (%d rows); add a LIMIT or a tighter WHERE",
		stmt, bytes, rows)
}

// checkCapError asserts got is capError(stmt, fixed+width, rows), width
// being that of the statement's own elapsed_ns: the one number a run
// moves that the reply does not carry. At the parent commit every width
// was 7 digits.
func checkCapError(t *testing.T, got string, stmt, fixed, rows int) {
	t.Helper()
	for width := 1; width <= 19; width++ {
		if got == capError(stmt, fixed+width, rows) {
			return
		}
	}
	t.Errorf("cap error = %q, want %q (elapsed_ns of any width)", got, capError(stmt, fixed+7, rows))
}

// TestStreamBufferedHoldIsBounded feeds a buffered reply, through the
// callbacks the facade calls, a 20 MiB statement between two one-row
// ones. The rows held never pass the line cap plus one row; the big
// statement still answers the cap error a reply holding every row
// reports — built here by appendStmt over all of them — and its
// neighbours answer. At the parent commit the hold grew to 20 MiB.
func TestStreamBufferedHoldIsBounded(t *testing.T) {
	body := strings.Repeat("x", 1<<10)
	mkRow := func(i int) repro.Row { return repro.Row{repro.IntVal(int64(i)), repro.StringVal(body)} }
	cols := []string{"k", "body"}
	counts := []int{1, 20 << 10, 1} // the middle statement's ~1 KiB rows pass 20 MiB
	srs := make([]repro.ScriptResult, len(counts))
	for i, n := range counts {
		srs[i] = repro.ScriptResult{Res: &repro.Result{Columns: cols}, Rows: n, Elapsed: time.Duration(i+1) * time.Millisecond}
	}

	conn := &captureConn{}
	r := newResponder(&connWriter{conn: conn}, nil)
	r.reset()
	held, fed := 0, 0
	for stmt, n := range counts {
		r.rs.Begin(stmt, cols)
		for i := 0; i < n; i++ {
			enc, _ := appendRow(nil, mkRow(i))
			if !r.rs.Row(stmt, mkRow(i)) {
				t.Fatal("a buffered reply stopped a statement")
			}
			fed += len(enc)
			if held = len(r.rows); held > maxLineBytes+len(enc) {
				t.Fatalf("statement %d row %d: %d bytes held, past the %d-byte cap plus one %d-byte row",
					stmt+1, i+1, held, maxLineBytes, len(enc))
			}
		}
		r.rs.End(stmt)
	}
	if fed < 20<<20 {
		t.Fatalf("fed %d bytes of rows, want at least 20 MiB", fed)
	}
	for stmt, sr := range srs {
		r.result(stmt, sr)
	}
	if !r.finish() {
		t.Fatal("finish reported a dead connection")
	}

	var all []byte
	for i := 0; i < counts[1]; i++ {
		if i > 0 {
			all = append(all, ',')
		}
		all, _ = appendRow(all, mkRow(i))
	}
	one, _ := appendRow(nil, mkRow(0))
	ref := appendStmt([]byte(`{"results":[`), srs[0], one, 0)
	ref = appendStmt(append(ref, ','), srs[1], all, 0)
	var resp Response
	if err := json.Unmarshal(conn.buf.Bytes(), &resp); err != nil || len(resp.Results) != 3 {
		t.Fatalf("response (%d bytes) did not decode to 3 results: %v", conn.buf.Len(), err)
	}
	if got, want := resp.Results[1].Error, capError(2, len(ref)-len(`{"results":[`), counts[1]); got != want {
		t.Errorf("capped statement's error\n got  %s\n want %s", got, want)
	}
	for _, i := range []int{0, 2} {
		if r := resp.Results[i]; r.Error != "" || len(r.Rows) != 1 {
			t.Errorf("statement %d beside the capped one: error %q, %d rows", i+1, r.Error, len(r.Rows))
		}
	}

	// Two ~3 MiB statements, the first of which then fails: its held
	// rows stay off the line, and the second — which they crowded out of
	// the hold — still reports a count past the cap, not the ~3 MiB its
	// own object would have been.
	conn.buf.Reset()
	r.reset()
	for stmt := 0; stmt < 2; stmt++ {
		r.rs.Begin(stmt, cols)
		for i := 0; i < 3<<10; i++ {
			r.rs.Row(stmt, mkRow(i))
		}
		r.rs.End(stmt)
	}
	r.result(0, repro.ScriptResult{Err: fmt.Errorf("failed after its rows")})
	r.result(1, repro.ScriptResult{Res: &repro.Result{Columns: cols}, Rows: 3 << 10})
	if !r.finish() {
		t.Fatal("finish reported a dead connection")
	}
	resp = Response{}
	if err := json.Unmarshal(conn.buf.Bytes(), &resp); err != nil || len(resp.Results) != 2 {
		t.Fatalf("response (%d bytes) did not decode to 2 results: %v", conn.buf.Len(), err)
	}
	var used int
	if _, err := fmt.Sscanf(resp.Results[1].Error, "server: statement 2 result is %d bytes", &used); err != nil || used <= maxLineBytes {
		t.Errorf("crowded-out statement's error = %q, want a count past the %d-byte cap", resp.Results[1].Error, maxLineBytes)
	}
}

// TestStreamBufferedResponseAllocs bounds the allocations of framing the
// benchmark's own reply shape, 120 one-int rows, as a buffered response
// and as chunk frames of 32 rows: the rows are appended once into a
// buffer the session reuses, and so are the line and each frame, so once
// the first reply has grown them framing allocates nothing. Boxing each
// value for a reflective marshal cost 254 allocations a response; fresh
// line and row buffers per request and a marshalled header, 4.
func TestStreamBufferedResponseAllocs(t *testing.T) {
	res := &repro.Result{Columns: []string{"price"}}
	for i := 0; i < 120; i++ {
		res.Rows = append(res.Rows, repro.Row{repro.IntVal(int64(1000 + i))})
	}
	sr := repro.ScriptResult{Res: res, Rows: 120, Elapsed: 85 * time.Microsecond, PagesRead: 5}
	conn := &captureConn{}
	r := newResponder(&connWriter{s: New(repro.Open(repro.Config{}), Config{}), conn: conn}, nil)
	chunkRows := 0
	frame := func() {
		conn.buf.Reset()
		r.reset()
		r.chunkRows = chunkRows
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
	if allocs := testing.AllocsPerRun(200, frame); allocs > 0 {
		t.Errorf("framing a 120-row buffered response allocates %.0f times, want none", allocs)
	}

	chunkRows = 32
	frame()
	var streamed []string
	var done *rawResponse
	for _, line := range strings.SplitAfter(conn.buf.String(), "\n") {
		if line == "" {
			continue
		}
		var f rawFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("frame %q: %v", line, err)
		}
		if f.Chunk != nil {
			for _, row := range f.Chunk.Rows {
				streamed = append(streamed, string(row))
			}
		} else {
			done = f.Done
		}
	}
	if strings.Join(streamed, ",") != strings.Join(rows, ",") || done == nil ||
		len(done.Results) != 1 || done.Results[0].RowCount != 120 || done.Results[0].Chunks != 4 {
		t.Fatalf("chunked reply: rows %v, done %+v; want the 120 rows in 4 frames", streamed, done)
	}
	if allocs := testing.AllocsPerRun(200, frame); allocs > 0 {
		t.Errorf("framing a 120-row reply in 32-row chunks allocates %.0f times, want none", allocs)
	}
}
