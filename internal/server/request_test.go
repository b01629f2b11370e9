// Request-path tests: what one request line costs between the socket
// and the engine, gated by counts — allocations and bytes of a warm point
// probe — because on a shared host counts are reproducible where timings
// are not; what a session keeps between requests; and which lines the
// server parses itself before the engine does.
package server

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/datagen"
)

// discardConn is a net.Conn whose writes vanish: a client that reads
// every reply at once, costing the server nothing to keep.
type discardConn struct{ net.Conn }

func (discardConn) Write(p []byte) (int, error) { return len(p), nil }

func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// requestCost runs f n times after one warm-up call and returns the mean
// heap allocations and bytes allocated per call, on one P as
// testing.AllocsPerRun measures.
func requestCost(n int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// TestPointProbeRequestAllocs gates the per-request cost of the
// benchmark's point probe, SELECT price FROM items WHERE subcat = k over
// the Figure 6 fixture (60,000 correlated items, ix_subcat, subcat_cm),
// through Server.dispatch with a warm pool and a connection that
// discards what it is sent: every allocation from the request line to
// the reply bytes counts. Rows are encoded straight from the heap tuple
// into buffers the session keeps, so the cost does not grow with the
// ≈ 120 rows a probe returns.
func TestPointProbeRequestAllocs(t *testing.T) {
	db := repro.Open(repro.Config{BufferPoolPages: 4096})
	tbl, err := db.CreateTable(repro.TableSpec{
		Name: "items",
		Columns: []repro.Column{
			{Name: "cat", Kind: repro.Int}, {Name: "subcat", Kind: repro.Int},
			{Name: "price", Kind: repro.Int}, {Name: "desc", Kind: repro.String},
		},
		ClusteredBy: []string{"cat"},
		BucketPages: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	items := datagen.CorrelatedItems(60000)
	rows := make([]repro.Row, len(items))
	for i, it := range items {
		rows[i] = repro.Row{repro.IntVal(it.Cat), repro.IntVal(it.Subcat), repro.IntVal(it.Price), repro.StringVal(it.Desc)}
	}
	if err := tbl.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateIndex("ix_subcat", "subcat"); err != nil {
		t.Fatal(err)
	}
	if err := tbl.CreateCM("subcat_cm", repro.CMColumn{Name: "subcat"}); err != nil {
		t.Fatal(err)
	}

	srv := New(db, Config{})
	r := newResponder(&connWriter{s: srv, conn: discardConn{}}, context.Background())
	var st sessionStats
	authed, chunkRows := true, 0
	const line = "SELECT price FROM items WHERE subcat = 251"
	probe := func() {
		if !srv.dispatch(context.Background(), line, 1, &st, r, &authed, &chunkRows) {
			t.Fatal("dispatch reported a dead connection")
		}
	}
	if probe(); st.rows < 100 {
		t.Fatalf("the probe returned %d rows; fixture broken", st.rows)
	}
	allocs, bytes := requestCost(200, probe)
	t.Logf("warm point probe: %.1f allocations, %.0f bytes per request", allocs, bytes)
	if allocs > 58 || bytes > 4<<10 {
		t.Errorf("a warm point probe costs %.1f allocations and %.0f bytes per request, want at most 58 and %d",
			allocs, bytes, 4<<10)
	}
}

// dispatchLine runs one request line through srv.dispatch on r, in the
// session state given, and returns the reply line the connection got.
func dispatchLine(t *testing.T, srv *Server, r *responder, chunkRows *int, line string) string {
	t.Helper()
	conn := r.w.conn.(*captureConn)
	conn.buf.Reset()
	authed := true
	var st sessionStats
	if !srv.dispatch(context.Background(), line, 1, &st, r, &authed, chunkRows) {
		t.Fatalf("%s: dispatch reported a dead connection", line)
	}
	return conn.buf.String()
}

// TestStreamResponderRetentionCap pins what a session keeps between
// requests. The responder resets as each reply ends: a small reply's
// line and row buffers carry over to the next request, while buffers a
// reply grew past retainBytes are dropped right then, so an idle session
// pins at most retainBytes in each.
func TestStreamResponderRetentionCap(t *testing.T) {
	db := repro.Open(repro.Config{})
	wide, err := db.CreateTable(repro.TableSpec{
		Name:        "wide",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "body", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]repro.Row, 200) // ~200 KiB of rows: past the cap
	for i := range rows {
		rows[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(strings.Repeat("x", 1<<10))}
	}
	if err := wide.Load(rows); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	r := newResponder(&connWriter{s: srv, conn: &captureConn{}}, context.Background())
	chunkRows := 0

	dispatchLine(t, srv, r, &chunkRows, "SELECT k FROM wide WHERE k < 10")
	if cap(r.line) == 0 || cap(r.rows) == 0 {
		t.Fatalf("a small reply's buffers were not kept: line %d, rows %d bytes of capacity", cap(r.line), cap(r.rows))
	}
	line := dispatchLine(t, srv, r, &chunkRows, "SELECT * FROM wide")
	if len(line) <= 2*retainBytes {
		t.Fatalf("the big reply is %d bytes, not past twice the %d-byte cap", len(line), retainBytes)
	}
	if cap(r.line) > retainBytes || cap(r.rows) > retainBytes || cap(r.enc) > retainBytes {
		t.Errorf("after a %d-byte reply the idle session keeps line %d, rows %d, enc %d bytes of capacity, want at most %d",
			len(line), cap(r.line), cap(r.rows), cap(r.enc), retainBytes)
	}
}

// TestStreamWireChunkSetIntercept pins the filter that lets every other
// line be parsed once: a line setting wire_chunk_rows in any letter
// case, after an empty statement or before a comment, is still the
// session setting, and a SELECT whose string literal spells the name
// still runs as SQL.
func TestStreamWireChunkSetIntercept(t *testing.T) {
	db := repro.Open(repro.Config{})
	if _, err := db.ExecScriptCtx(context.Background(), "CREATE TABLE notes (k INT, s STRING) CLUSTERED BY (k); "+
		"INSERT INTO notes VALUES (1, 'wire_chunk_rows'); INSERT INTO notes VALUES (2, 'other')"); err != nil {
		t.Fatal(err)
	}
	srv := New(db, Config{})
	r := newResponder(&connWriter{s: srv, conn: &captureConn{}}, context.Background())
	for _, line := range []string{"SET WIRE_CHUNK_ROWS = 3", "; set wire_chunk_rows=3", "SET wire_chunk_rows = 3 -- note"} {
		chunkRows := 0
		got := dispatchLine(t, srv, r, &chunkRows, line)
		if want := `{"results":[{"message":"SET wire_chunk_rows = 3"}]}` + "\n"; got != want || chunkRows != 3 {
			t.Errorf("%q: reply %q, session chunk rows %d; want %q and 3", line, got, chunkRows, want)
		}
	}
	chunkRows := 0
	got := dispatchLine(t, srv, r, &chunkRows, "SELECT k FROM notes WHERE s = 'wire_chunk_rows'")
	var resp Response
	if err := json.Unmarshal([]byte(got), &resp); err != nil {
		t.Fatal(err)
	}
	if chunkRows != 0 || resp.Error != "" || len(resp.Results) != 1 || resp.Results[0].RowCount != 1 {
		t.Errorf("a SELECT naming the setting in a literal answered %q (session chunk rows %d), want its one row", got, chunkRows)
	}
}

// BenchmarkReplyWrite frames the point probe's reply shape, 120 one-int
// rows on one buffered line, and writes it to a loopback TCP socket that
// a goroutine drains — a warm probe's reply write — with and without a
// WriteTimeout, which sets a write deadline on every write.
func BenchmarkReplyWrite(b *testing.B) {
	res := &repro.Result{Columns: []string{"price"}}
	for i := 0; i < 120; i++ {
		res.Rows = append(res.Rows, repro.Row{repro.IntVal(int64(1000 + i))})
	}
	sr := repro.ScriptResult{Res: res, Rows: 120, Elapsed: 85 * time.Microsecond, PagesRead: 5}
	for _, timeout := range []time.Duration{0, 30 * time.Second} {
		b.Run("write-timeout="+timeout.String(), func(b *testing.B) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer ln.Close()
			client, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer client.Close()
			conn, err := ln.Accept()
			if err != nil {
				b.Fatal(err)
			}
			copied := make(chan struct{})
			go func() {
				defer close(copied)
				io.Copy(io.Discard, client)
			}()
			defer func() {
				conn.Close() // the client reads EOF
				<-copied
			}()
			r := newResponder(&connWriter{conn: conn, timeout: timeout}, context.Background())
			b.ReportAllocs()
			for b.Loop() {
				r.reset()
				r.result(0, sr)
				if !r.finish() {
					b.Fatal("the reply write failed")
				}
			}
		})
	}
}
