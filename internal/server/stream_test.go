// Wire-protocol-v2 and coalescing tests: chunked responses are
// byte-identical to buffered ones at any worker count, oversized
// results complete in frames where buffered mode caps them, slow and
// vanished readers cancel the producing statement without leaking
// goroutines or pinned frames, cross-connection coalescing preserves
// per-statement results and fault isolation, and token auth gates the
// session. Every test name matches the CI race sweep's
// Stream|Coalesce|Auth filter.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
)

// rawStmtResult mirrors StmtResult with rows kept as raw JSON, so
// equivalence tests compare encoded bytes, not decoded values.
type rawStmtResult struct {
	Columns   []string          `json:"columns"`
	Rows      []json.RawMessage `json:"rows"`
	Message   string            `json:"message"`
	Affected  int               `json:"affected"`
	Error     string            `json:"error"`
	RowCount  int               `json:"row_count"`
	PagesRead uint64            `json:"pages_read"`
	Chunks    int               `json:"chunks"`
}

// rawResponse mirrors Response with raw rows.
type rawResponse struct {
	Results []rawStmtResult `json:"results"`
	Error   string          `json:"error"`
}

// rawFrame mirrors Frame with a raw done payload.
type rawFrame struct {
	Chunk *ChunkFrame  `json:"chunk"`
	Done  *rawResponse `json:"done"`
}

// rawTrip sends one line and decodes the buffered response with raw
// row bytes.
func (c *client) rawTrip(t *testing.T, line string) rawResponse {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	var resp rawResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("decode %q: %v", raw, err)
	}
	return resp
}

// setChunk opts the session into chunked mode with n rows per frame.
func (c *client) setChunk(t *testing.T, n int) {
	t.Helper()
	resp := mustOK(t, c.roundTrip(t, fmt.Sprintf("SET wire_chunk_rows = %d", n)))
	if len(resp.Results) != 1 || resp.Results[0].Message != fmt.Sprintf("SET wire_chunk_rows = %d", n) {
		t.Fatalf("SET wire_chunk_rows answer: %+v", resp.Results)
	}
}

// chunkTrip sends one line in chunked mode and collects the full frame
// stream, asserting every frame line stays under the wire line cap.
func (c *client) chunkTrip(t *testing.T, line string) ([]ChunkFrame, rawResponse) {
	t.Helper()
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		t.Fatalf("write: %v", err)
	}
	var chunks []ChunkFrame
	for {
		raw, err := c.r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		if len(raw) > maxLineBytes {
			t.Fatalf("frame is %d bytes, past the %d-byte cap", len(raw), maxLineBytes)
		}
		var f rawFrame
		if err := json.Unmarshal(raw, &f); err != nil {
			t.Fatalf("decode frame %q: %v", raw[:min(len(raw), 200)], err)
		}
		switch {
		case f.Chunk != nil:
			chunks = append(chunks, *f.Chunk)
		case f.Done != nil:
			return chunks, *f.Done
		default:
			t.Fatalf("frame with neither chunk nor done: %q", raw[:min(len(raw), 200)])
		}
	}
}

// streamFixture loads a small correlated table through the SQL surface.
func streamFixture(t *testing.T, db *repro.DB) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE t (c INT, u INT, s STRING) CLUSTERED BY (c) BUCKET PAGES 1; LOAD INTO t VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, 'row-%d')", i, i%20, i)
	}
	sb.WriteString("; CREATE CORRELATION MAP cm_u ON t (u); CREATE TABLE ins (k INT) CLUSTERED BY (k)")
	results, err := db.ExecScriptCtx(context.Background(), sb.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestStreamChunkedMatchesBuffered runs one request line covering every
// statement form — plain SELECT, ordered SELECT, grouped aggregate,
// LIMIT 0, SHOW, EXPLAIN, INSERT and a failing statement — in buffered
// then chunked mode, at one and at eight workers, and asserts the
// reassembled chunk rows are byte-identical to the buffered rows with
// matching columns, counts and errors.
func TestStreamChunkedMatchesBuffered(t *testing.T) {
	// One request line; the INSERT targets a scratch table so the second
	// (chunked) run sees identical result rows everywhere else.
	const script = "SELECT * FROM t WHERE u = 3; " +
		"SELECT s FROM t WHERE c BETWEEN 490 AND 499 ORDER BY c DESC; " +
		"SELECT u, count(*), avg(c) FROM t GROUP BY u ORDER BY u LIMIT 5; " +
		"SELECT * FROM t WHERE u = 3 LIMIT 0; " +
		"SHOW CMS FOR t; " +
		"EXPLAIN SELECT * FROM t WHERE u = 3; " +
		"INSERT INTO ins VALUES (1); " +
		"SELECT * FROM ghosts"
	for _, workers := range []int{1, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			db, _, addr, stop := startServerCfg(t, repro.Config{Workers: workers}, Config{})
			defer stop()
			streamFixture(t, db)

			c := dial(t, addr)
			defer c.close()
			buffered := c.rawTrip(t, script)
			if buffered.Error != "" {
				t.Fatalf("buffered line error: %s", buffered.Error)
			}

			c.setChunk(t, 7) // odd size: most statements span several frames
			chunks, done := c.chunkTrip(t, script)
			if done.Error != "" {
				t.Fatalf("chunked line error: %s", done.Error)
			}
			if len(done.Results) != len(buffered.Results) {
				t.Fatalf("chunked %d results, buffered %d", len(done.Results), len(buffered.Results))
			}

			// Reassemble per-statement rows and first-frame columns.
			rows := make(map[int][]json.RawMessage)
			cols := make(map[int][]string)
			frames := make(map[int]int)
			for _, cf := range chunks {
				if len(cf.Rows) == 0 {
					t.Fatalf("empty chunk frame for stmt %d", cf.Stmt)
				}
				if _, seen := rows[cf.Stmt]; !seen {
					if cf.Columns == nil {
						t.Fatalf("stmt %d first frame lacks columns", cf.Stmt)
					}
					cols[cf.Stmt] = cf.Columns
				} else if cf.Columns != nil {
					t.Fatalf("stmt %d repeated columns on a later frame", cf.Stmt)
				}
				rows[cf.Stmt] = append(rows[cf.Stmt], cf.Rows...)
				frames[cf.Stmt]++
			}

			for i, want := range buffered.Results {
				got := done.Results[i]
				if got.Error != want.Error {
					t.Errorf("stmt %d error: chunked %q, buffered %q", i, got.Error, want.Error)
				}
				if got.Message != want.Message || got.Affected != want.Affected {
					t.Errorf("stmt %d outcome: chunked %q/%d, buffered %q/%d",
						i, got.Message, got.Affected, want.Message, want.Affected)
				}
				if got.RowCount != want.RowCount || len(got.Rows) != 0 {
					t.Errorf("stmt %d rows: chunked count %d (inline %d), buffered count %d",
						i, got.RowCount, len(got.Rows), want.RowCount)
				}
				if got.Chunks != frames[i] {
					t.Errorf("stmt %d reported %d chunks, observed %d frames", i, got.Chunks, frames[i])
				}
				streamed := rows[i]
				if len(streamed) != len(want.Rows) {
					t.Fatalf("stmt %d streamed %d rows, buffered %d", i, len(streamed), len(want.Rows))
				}
				if len(streamed) > 0 && strings.Join(cols[i], ",") != strings.Join(want.Columns, ",") {
					t.Errorf("stmt %d columns: chunked %v, buffered %v", i, cols[i], want.Columns)
				}
				for j := range streamed {
					if string(streamed[j]) != string(want.Rows[j]) {
						t.Fatalf("stmt %d row %d bytes diverge:\nchunked  %s\nbuffered %s",
							i, j, streamed[j], want.Rows[j])
					}
				}
			}

			// The session drops back to buffered mode cleanly.
			c.setChunk(t, 0)
			mustOK(t, c.roundTrip(t, "SELECT count(*) FROM t"))

			// A negative row count is rejected and the session survives.
			resp := c.roundTrip(t, "SET wire_chunk_rows = -1")
			if resp.Error == "" {
				t.Error("negative wire_chunk_rows accepted")
			}
			mustOK(t, c.roundTrip(t, "SELECT count(*) FROM t"))
		})
	}
}

// TestStreamLargeResultBeyondLineCap builds a result whose buffered
// encoding exceeds the 4 MiB response cap and asserts buffered mode
// still answers with the capped per-statement error while chunked mode
// delivers every row, each frame under the line cap.
func TestStreamLargeResultBeyondLineCap(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{})
	defer stop()
	if _, err := db.CreateTable(repro.TableSpec{
		Name:        "big",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "body", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	wide := strings.Repeat("x", 2<<10)
	rows := make([]repro.Row, 2560) // 2560 * 2 KiB of payload > 4 MiB encoded
	for i := range rows {
		rows[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(wide)}
	}
	if err := db.Table("big").Load(rows); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	defer c.close()

	// Buffered: the PR 6 cap error, session intact.
	resp := c.roundTrip(t, "SELECT * FROM big")
	if e := resp.Results[0].Error; !strings.Contains(e, "response cap") {
		t.Fatalf("buffered oversized result error = %q", e)
	}

	// Chunked: the same statement completes, row-complete and in order.
	c.setChunk(t, 256)
	chunks, done := c.chunkTrip(t, "SELECT * FROM big")
	if done.Error != "" || done.Results[0].Error != "" {
		t.Fatalf("chunked oversized result failed: %+v", done)
	}
	total := 0
	for _, cf := range chunks {
		total += len(cf.Rows)
	}
	if total != 2560 || done.Results[0].RowCount != 2560 {
		t.Fatalf("streamed %d rows (summary %d), want 2560", total, done.Results[0].RowCount)
	}
	if done.Results[0].Chunks != len(chunks) {
		t.Errorf("summary chunks %d, observed %d", done.Results[0].Chunks, len(chunks))
	}
	if v := metric(t, db, "server.stream_chunks"); v < int64(len(chunks)) {
		t.Errorf("server.stream_chunks = %d, want >= %d", v, len(chunks))
	}
}

// TestStreamSlowReaderBackpressure stalls a chunked client and asserts
// the producing statement blocks in its frame writes (counted in
// server.backpressure_waits_ns), dies by its statement timeout, and
// leaves no pinned frames or goroutines behind.
func TestStreamSlowReaderBackpressure(t *testing.T) {
	before := runtime.NumGoroutine()
	db, _, addr, stop := startServerCfg(t,
		repro.Config{StatementTimeout: 300 * time.Millisecond},
		Config{WriteTimeout: 600 * time.Millisecond})
	// A fat-row table so the socket buffers fill fast.
	if _, err := db.CreateTable(repro.TableSpec{
		Name:        "fat",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "pad", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("y", 2<<10)
	wide := make([]repro.Row, 8000)
	for i := range wide {
		wide[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(pad)}
	}
	if err := db.Table("fat").Load(wide); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	c.setChunk(t, 1)
	if _, err := fmt.Fprintf(c.conn, "SELECT * FROM fat\n"); err != nil {
		t.Fatal(err)
	}
	// Do not read: the socket buffers fill, the producer blocks in its
	// frame write, and the statement timeout cuts the write.
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, db, "query.timed_out") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("statement never timed out behind the stalled reader")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if v := metric(t, db, "server.backpressure_waits_ns"); v <= 0 {
		t.Errorf("server.backpressure_waits_ns = %d, want > 0", v)
	}
	c.close()
	stop()

	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d pinned frames after the aborted stream", pinned)
	}
	waitGoroutines(t, before)
}

// TestStreamTimeoutMidStreamKeepsSession runs chunked cold scans that
// their statement timeout cuts while the client keeps reading. Frames
// flow until the deadline; the rows held when it passes still go out in
// a frame (at 100,000 rows per frame every row is held until the
// statement ends, so that frame is the only one); the done frame carries
// the timed-out error; and the session answers the next line.
func TestStreamTimeoutMidStreamKeepsSession(t *testing.T) {
	before := runtime.NumGoroutine()
	db, _, addr, stop := startServerCfg(t, slowDiskCfg(), Config{WriteTimeout: time.Second})
	loadWideTable(t, db, 12000)
	c := dial(t, addr)
	for _, chunkRows := range []int{100, 100000} {
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		c.setChunk(t, chunkRows)
		db.SetStatementTimeout(40 * time.Millisecond)
		chunks, done := c.chunkTrip(t, "SELECT * FROM wide")
		db.SetStatementTimeout(0)
		if len(done.Results) != 1 || done.Results[0].Error != context.DeadlineExceeded.Error() {
			t.Fatalf("%d rows per frame: done frame %+v, want one result timed out", chunkRows, done)
		}
		streamed := 0
		for _, ch := range chunks {
			streamed += len(ch.Rows)
		}
		if streamed == 0 || streamed >= 12000 || len(chunks) != done.Results[0].Chunks ||
			chunkRows > 12000 && len(chunks) != 1 {
			t.Fatalf("%d rows per frame: %d rows in %d frames before the timeout, done reports %d frames",
				chunkRows, streamed, len(chunks), done.Results[0].Chunks)
		}

		chunks, done = c.chunkTrip(t, "SELECT count(*) FROM wide")
		if len(done.Results) != 1 || done.Results[0].Error != "" || len(chunks) != 1 || string(chunks[0].Rows[0]) != "[12000]" {
			t.Fatalf("%d rows per frame: the next line got frames %+v, done %+v", chunkRows, chunks, done)
		}
	}
	c.close()
	stop()
	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d pinned frames after the timed-out streams", pinned)
	}
	waitGoroutines(t, before)
}

// TestStreamClientDisconnectMidStream drops a chunked client after a
// few frames of a slow cold scan and asserts the statement cancels,
// frames unpin, the server keeps serving and nothing leaks.
func TestStreamClientDisconnectMidStream(t *testing.T) {
	before := runtime.NumGoroutine()
	db, _, addr, stop := startServerCfg(t, slowDiskCfg(), Config{WriteTimeout: time.Second})
	loadWideTable(t, db, 6000)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	c.setChunk(t, 1)
	if _, err := fmt.Fprintf(c.conn, "SELECT * FROM wide\n"); err != nil {
		t.Fatal(err)
	}
	// Read a few frames to prove the stream started, then vanish.
	for i := 0; i < 3; i++ {
		if _, err := c.r.ReadBytes('\n'); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	c.close()

	deadline := time.Now().Add(10 * time.Second)
	for metric(t, db, "query.cancelled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("query.cancelled never rose after the mid-stream disconnect")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The engine took no damage: a fresh buffered client gets answers.
	c2 := dial(t, addr)
	resp := mustOK(t, c2.roundTrip(t, "SELECT count(*) FROM wide"))
	if len(resp.Results[0].Rows) != 1 {
		t.Fatalf("follow-up query: %+v", resp.Results)
	}
	c2.close()
	stop()

	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d pinned frames after the cancelled stream", pinned)
	}
	waitGoroutines(t, before)
}

// waitGoroutines polls until the goroutine count returns to the given
// baseline (plus scheduler slack).
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoalesceCrossConnection sends point probes from many connections
// into a coalescing server and asserts every session gets its own
// correct rows, the batcher actually formed cross-connection batches,
// and a chunked session's coalesced result still arrives in frames.
func TestCoalesceCrossConnection(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{Workers: 4},
		Config{Coalesce: true, CoalesceWindow: 20 * time.Millisecond, MaxConcurrentStmts: 2})
	defer stop()
	streamFixture(t, db)

	const conns = 8
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				errs <- err
				return
			}
			defer conn.Close()
			r := bufio.NewReaderSize(conn, 1<<20)
			for round := 0; round < 5; round++ {
				k := i*5 + round // distinct key per probe: c = k, s = "row-k"
				if _, err := fmt.Fprintf(conn, "SELECT s FROM t WHERE c = %d\n", k); err != nil {
					errs <- err
					return
				}
				raw, err := r.ReadBytes('\n')
				if err != nil {
					errs <- err
					return
				}
				var resp Response
				if err := json.Unmarshal(raw, &resp); err != nil {
					errs <- err
					return
				}
				if resp.Error != "" || len(resp.Results) != 1 || resp.Results[0].Error != "" {
					errs <- fmt.Errorf("probe %d: %+v", k, resp)
					return
				}
				rows := resp.Results[0].Rows
				if len(rows) != 1 || rows[0][0] != fmt.Sprintf("row-%d", k) {
					errs <- fmt.Errorf("probe %d got %v", k, rows)
					return
				}
			}
			errs <- nil
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	batches := metric(t, db, "server.coalesced_batches")
	stmts := metric(t, db, "server.coalesced_stmts")
	if batches < 1 || stmts != conns*5 {
		t.Fatalf("coalesced_batches = %d, coalesced_stmts = %d (want >=1 and %d)", batches, stmts, conns*5)
	}
	if stmts <= batches {
		t.Errorf("no cross-connection batching: %d stmts in %d batches", stmts, batches)
	}

	// Coalesced + chunked compose: a chunked session's coalescible probe
	// streams its rows in frames with the summary after.
	cc := dial(t, addr)
	defer cc.close()
	cc.setChunk(t, 2)
	chunks, done := cc.chunkTrip(t, "SELECT * FROM t WHERE u = 3")
	if done.Error != "" || done.Results[0].Error != "" {
		t.Fatalf("chunked coalesced probe: %+v", done)
	}
	total := 0
	for _, cf := range chunks {
		total += len(cf.Rows)
	}
	if total == 0 || total != done.Results[0].RowCount {
		t.Fatalf("chunked coalesced probe streamed %d rows, summary %d", total, done.Results[0].RowCount)
	}
}

// TestCoalesceFaultIsolation injects a single disk fault into one
// statement of a coalesced batch and asserts only that statement fails
// while its batchmates succeed, with no pinned frames left behind.
func TestCoalesceFaultIsolation(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{Workers: 4},
		Config{Coalesce: true, CoalesceWindow: 50 * time.Millisecond, CoalesceMax: 8})
	defer stop()

	// Two tables: a is made fully pool-resident (warmed below through
	// every structure a plan could read), b stays fully cold — heap and
	// clustered index — so whichever access paths the planner picks, the
	// only statement of the batch that touches the disk is the one on b.
	results, err := db.ExecScriptCtx(context.Background(),
		"CREATE TABLE a (k INT, v STRING) CLUSTERED BY (k); LOAD INTO a VALUES (1,'a1'), (2,'a2'), (3,'a3');"+
			"CREATE TABLE b (k INT, v STRING) CLUSTERED BY (k); LOAD INTO b VALUES (1,'b1'), (2,'b2')")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	for _, via := range []repro.AccessMethod{repro.TableScan, repro.ClusteredIndexScan} {
		err := db.SelectSpec(context.Background(), repro.QuerySpec{Table: "a", Via: via,
			Preds: []repro.Pred{repro.Ge("k", repro.IntVal(1))}}, func(repro.Row) bool { return true })
		if err != nil {
			t.Fatal(err)
		}
	}
	// Armed now: counters are relative to SetFaultPlan, so the very next
	// disk read — b's first page under any plan, a's probes are pool
	// hits — fails once.
	db.SetFaultPlan(&repro.FaultPlan{FailReadN: 1})
	defer db.SetFaultPlan(nil)

	// Fire the batch: three warm probes on a and one cold probe on b,
	// concurrently, inside one coalescing window.
	type probeResult struct {
		sql  string
		resp Response
		err  error
	}
	stmts := []string{
		"SELECT v FROM a WHERE k = 1",
		"SELECT v FROM a WHERE k = 2",
		"SELECT v FROM a WHERE k = 3",
		"SELECT v FROM b WHERE k = 1",
	}
	out := make(chan probeResult, len(stmts))
	for _, sql := range stmts {
		go func(sql string) {
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				out <- probeResult{sql: sql, err: err}
				return
			}
			defer conn.Close()
			r := bufio.NewReaderSize(conn, 1<<20)
			if _, err := fmt.Fprintf(conn, "%s\n", sql); err != nil {
				out <- probeResult{sql: sql, err: err}
				return
			}
			raw, err := r.ReadBytes('\n')
			if err != nil {
				out <- probeResult{sql: sql, err: err}
				return
			}
			var resp Response
			if err := json.Unmarshal(raw, &resp); err != nil {
				out <- probeResult{sql: sql, err: err}
				return
			}
			out <- probeResult{sql: sql, resp: resp}
		}(sql)
	}
	failed := 0
	for i := 0; i < len(stmts); i++ {
		pr := <-out
		if pr.err != nil {
			t.Fatalf("%s: %v", pr.sql, pr.err)
		}
		if pr.resp.Error != "" || len(pr.resp.Results) != 1 {
			t.Fatalf("%s: %+v", pr.sql, pr.resp)
		}
		sr := pr.resp.Results[0]
		if sr.Error != "" {
			failed++
		}
		if strings.Contains(pr.sql, "FROM b") {
			if !strings.Contains(sr.Error, "injected") {
				t.Errorf("%s: error = %q, want the injected fault", pr.sql, sr.Error)
			}
		} else {
			if sr.Error != "" || len(sr.Rows) != 1 {
				t.Errorf("%s: batchmate damaged by the fault: %+v", pr.sql, sr)
			}
		}
	}
	if failed != 1 {
		t.Errorf("%d statements of the batch failed, want exactly the one on b", failed)
	}

	if v := metric(t, db, "server.coalesced_batches"); v < 1 {
		t.Errorf("server.coalesced_batches = %d, want >= 1", v)
	}
	if v := metric(t, db, "disk.injected_faults"); v != 1 {
		t.Errorf("disk.injected_faults = %d, want 1", v)
	}
	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d pinned frames after the injected fault", pinned)
	}
}

// TestStreamMetricsReset drives every wire-v2 counter nonzero —
// through real traffic where deterministic, directly where timing
// would be flaky — and asserts ResetMetrics zeroes all five.
func TestStreamMetricsReset(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{},
		Config{Coalesce: true, AuthToken: "sesame"})
	defer stop()
	streamFixture(t, db)

	good := dial(t, addr)
	defer good.close()
	mustOK(t, good.roundTrip(t, "AUTH sesame"))
	good.setChunk(t, 4)
	if _, done := good.chunkTrip(t, "SELECT * FROM t WHERE u = 3"); done.Error != "" {
		t.Fatalf("chunked probe: %+v", done)
	}

	bad := dial(t, addr)
	bad.roundTrip(t, "AUTH wrong")
	bad.close()

	// Backpressure waits are the time spent in frame writes, a timing;
	// record one directly — the counter wiring is what this test pins.
	db.MetricCounter("server.backpressure_waits_ns").Add(int64(time.Millisecond))

	names := []string{"server.stream_chunks", "server.backpressure_waits_ns",
		"server.coalesced_batches", "server.coalesced_stmts", "server.auth_failures"}
	for _, name := range names {
		if v := metric(t, db, name); v <= 0 {
			t.Fatalf("%s = %d before reset, want > 0", name, v)
		}
	}
	db.ResetMetrics()
	for _, name := range names {
		if v := metric(t, db, name); v != 0 {
			t.Errorf("%s = %d after ResetMetrics, want 0", name, v)
		}
	}
}

// TestAuthToken pins the auth handshake: the right token opens the
// session, a wrong or missing token gets one clean JSON error and a
// closed connection (counted in server.auth_failures), and a server
// without a token accepts any AUTH line.
func TestAuthToken(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{AuthToken: "open-sesame"})
	defer stop()

	// Right token: session opens and serves.
	c := dial(t, addr)
	resp := mustOK(t, c.roundTrip(t, "AUTH open-sesame"))
	if len(resp.Results) != 1 || resp.Results[0].Message != "AUTH ok" {
		t.Fatalf("AUTH answer: %+v", resp.Results)
	}
	mustOK(t, c.roundTrip(t, "SHOW TABLES"))
	c.close()

	// Wrong token: one error line, then the connection closes.
	c = dial(t, addr)
	resp = c.roundTrip(t, "AUTH wrong")
	if !strings.Contains(resp.Error, "authentication failed") {
		t.Fatalf("wrong-token error = %q", resp.Error)
	}
	if _, err := c.r.ReadBytes('\n'); err == nil {
		t.Fatal("connection stayed open after a failed AUTH")
	}
	c.close()
	if v := metric(t, db, "server.auth_failures"); v != 1 {
		t.Fatalf("server.auth_failures = %d, want 1", v)
	}

	// Missing token: the first SQL line is refused and the connection
	// closes without executing anything.
	c = dial(t, addr)
	resp = c.roundTrip(t, "SHOW TABLES")
	if !strings.Contains(resp.Error, "authentication required") {
		t.Fatalf("unauthed error = %q", resp.Error)
	}
	if _, err := c.r.ReadBytes('\n'); err == nil {
		t.Fatal("connection stayed open after an unauthenticated statement")
	}
	c.close()
	if v := metric(t, db, "server.auth_failures"); v != 2 {
		t.Fatalf("server.auth_failures = %d, want 2", v)
	}

	// A second server over the same DB registers the same names and adds
	// into the same counters.
	_, addr2, stop2 := startServerOn(t, db, Config{AuthToken: "open-sesame"})
	defer stop2()
	c = dial(t, addr2)
	c.roundTrip(t, "AUTH wrong")
	c.close()
	if v := metric(t, db, "server.auth_failures"); v != 3 {
		t.Fatalf("server.auth_failures = %d with a second server's failure, want 3", v)
	}

	// A token-less server accepts any AUTH line, so clients can always
	// send one.
	_, openAddr, openStop := startServer(t)
	defer openStop()
	c = dial(t, openAddr)
	defer c.close()
	resp = mustOK(t, c.roundTrip(t, "AUTH anything-at-all"))
	if resp.Results[0].Message != "AUTH ok" {
		t.Fatalf("token-less AUTH answer: %+v", resp.Results)
	}
	mustOK(t, c.roundTrip(t, "SHOW TABLES"))
}
