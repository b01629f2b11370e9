// Resilience tests: admission control rejects connections over the
// cap with a clean wire-level error, a client disconnect cancels the
// statement it left running, Shutdown drains in-flight work without
// leaking goroutines, a client that stops reading is cut by
// WriteTimeout, an oversized request line is answered, an idle
// connection holds one goroutine, and pipelined lines survive the
// disconnect watcher.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
)

// startServerCfg is startServer with explicit DB and server configs.
func startServerCfg(t *testing.T, dbCfg repro.Config, cfg Config) (*repro.DB, *Server, string, func()) {
	t.Helper()
	db := repro.Open(dbCfg)
	srv, addr, stop := startServerOn(t, db, cfg)
	return db, srv, addr, stop
}

// startServerOn starts a server over an existing DB — a second one
// shares the DB's server.* counters with the first.
func startServerOn(t *testing.T, db *repro.DB, cfg Config) (*Server, string, func()) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	srv := New(db, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	stopped := false
	return srv, ln.Addr().String(), func() {
		if stopped {
			return
		}
		stopped = true
		if err := srv.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	}
}

// loadWideTable creates a table big enough that a cold scan with real
// I/O waits takes tens of milliseconds — room to disconnect or drain
// mid-statement.
func loadWideTable(t *testing.T, db *repro.DB, rows int) {
	t.Helper()
	var sb strings.Builder
	sb.WriteString("CREATE TABLE wide (c INT, u INT) CLUSTERED BY (c) BUCKET PAGES 1; LOAD INTO wide VALUES ")
	for i := 0; i < rows; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d)", i, i%50)
	}
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

// slowDiskCfg makes every page access cost ~2ms of real wait: a
// 15-page scan spans tens of milliseconds with a cancellation check
// after every page, so mid-flight disconnects and drains land inside
// the statement reliably even under the race detector.
func slowDiskCfg() repro.Config {
	return repro.Config{
		IOWaitScale: 1,
		Workers:     1,
		SeqPageCost: 2 * time.Millisecond,
	}
}

// metric reads one counter from the DB's registry.
func metric(t *testing.T, db *repro.DB, name string) int64 {
	t.Helper()
	ms := db.Metrics(name)
	if len(ms) != 1 {
		t.Fatalf("Metrics(%q) returned %d entries", name, len(ms))
	}
	return ms[0].Value
}

// TestAdmissionControl caps the server at one connection and asserts
// the second dialer is turned away with the ErrServerBusy message as a
// well-formed response line, counted in server.rejected, while the
// admitted connection keeps working.
func TestAdmissionControl(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{MaxConns: 1})
	defer stop()

	first := dial(t, addr)
	defer first.close()
	mustOK(t, first.roundTrip(t, "SHOW TABLES")) // admitted and serving

	second := dial(t, addr)
	defer second.close()
	raw, err := bufio.NewReader(second.conn).ReadBytes('\n')
	if err != nil {
		t.Fatalf("rejected connection: reading the busy line: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("busy line %q is not a Response: %v", raw, err)
	}
	if !strings.Contains(resp.Error, "too many connections") {
		t.Fatalf("busy response error = %q, want the ErrServerBusy text", resp.Error)
	}
	if _, err := bufio.NewReader(second.conn).ReadBytes('\n'); err == nil {
		t.Fatal("rejected connection was not closed after the busy line")
	}
	if got := metric(t, db, "server.rejected"); got != 1 {
		t.Fatalf("server.rejected = %d, want 1", got)
	}

	// The admitted session is unaffected, and once it leaves a new
	// dialer gets its slot.
	mustOK(t, first.roundTrip(t, "SHOW TABLES"))
	first.close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		third := dial(t, addr)
		resp, ok := tryRoundTrip(third, "SHOW TABLES")
		third.close()
		if ok && resp.Error == "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slot was not released after the first connection closed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// tryRoundTrip is roundTrip without test fatality, for polling loops.
func tryRoundTrip(c *client, line string) (Response, bool) {
	if _, err := fmt.Fprintf(c.conn, "%s\n", line); err != nil {
		return Response{}, false
	}
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		return Response{}, false
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		return Response{}, false
	}
	return resp, true
}

// TestDisconnectCancelsStatement starts a slow cold scan (real I/O
// waits on), drops the client mid-flight and asserts the server
// cancels the running statement: query.cancelled rises and the engine
// serves the next client immediately.
func TestDisconnectCancelsStatement(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, slowDiskCfg(), Config{})
	defer stop()
	loadWideTable(t, db, 6000)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	if _, err := fmt.Fprintf(c.conn, "SELECT count(*) FROM wide WHERE u = 3\n"); err != nil {
		t.Fatal(err)
	}
	// Give the statement time to start reading, then vanish.
	time.Sleep(5 * time.Millisecond)
	c.close()

	deadline := time.Now().Add(5 * time.Second)
	for metric(t, db, "query.cancelled") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("query.cancelled never rose after the client disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// The engine took no damage: a fresh client gets exact answers.
	c2 := dial(t, addr)
	defer c2.close()
	resp := mustOK(t, c2.roundTrip(t, "SELECT count(*) FROM wide WHERE u = 3"))
	if len(resp.Results) != 1 || len(resp.Results[0].Rows) != 1 {
		t.Fatalf("follow-up query shape: %+v", resp.Results)
	}
}

// TestShutdownDrains issues a statement, calls Shutdown while it runs,
// and asserts the in-flight statement still gets its full response
// before the connection closes — and that the server's goroutines are
// gone afterwards.
func TestShutdownDrains(t *testing.T) {
	before := runtime.NumGoroutine()
	db, srv, addr, _ := startServerCfg(t, slowDiskCfg(), Config{})
	loadWideTable(t, db, 6000)
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	defer c.close()
	if _, err := fmt.Fprintf(c.conn, "SELECT count(*) FROM wide WHERE u = 3\n"); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // let the statement get going

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// The busy session's response arrived complete despite the drain.
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("draining cut off the in-flight response: %v", err)
	}
	var resp Response
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("drained response %q: %v", raw, err)
	}
	if resp.Error != "" || len(resp.Results) != 1 || resp.Results[0].Error != "" {
		t.Fatalf("drained response: %+v", resp)
	}
	// And the server is really gone: new dials fail.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Fatal("server still accepting after Shutdown")
	}

	// No goroutine leaks: everything the server spawned has exited.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after shutdown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestStatementGate bounds concurrent statements to one and asserts a
// second session's statement still completes (it queues at the gate
// rather than erroring) while both sessions stay correct.
func TestStatementGate(t *testing.T) {
	db, _, addr, stop := startServerCfg(t, repro.Config{}, Config{MaxConcurrentStmts: 1})
	defer stop()
	loadWideTable(t, db, 2000)

	a, b := dial(t, addr), dial(t, addr)
	defer a.close()
	defer b.close()
	done := make(chan Response, 2)
	for _, c := range []*client{a, b} {
		go func(c *client) {
			resp, _ := tryRoundTrip(c, "SELECT count(*) FROM wide WHERE u = 3")
			done <- resp
		}(c)
	}
	for i := 0; i < 2; i++ {
		select {
		case resp := <-done:
			if resp.Error != "" || len(resp.Results) != 1 || resp.Results[0].Error != "" {
				t.Fatalf("gated statement %d: %+v", i, resp)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("gated statements deadlocked")
		}
	}
}

// waitSessions polls until srv has at most n sessions, failing after
// within.
func waitSessions(t *testing.T, srv *Server, n int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for srv.active.Load() > int64(n) {
		if time.Now().After(deadline) {
			t.Fatalf("%d sessions still open after %v, want at most %d", srv.active.Load(), within, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWriteTimeoutBoundsBufferedReplies pipelines near-cap buffered
// SELECTs from a client that never reads. Once the socket buffers fill,
// the session's reply write blocks; WriteTimeout must cut it and close
// the session long before the test stops the server.
func TestWriteTimeoutBoundsBufferedReplies(t *testing.T) {
	db, srv, addr, stop := startServerCfg(t, repro.Config{}, Config{WriteTimeout: 200 * time.Millisecond})
	defer stop()
	if _, err := db.CreateTable(repro.TableSpec{
		Name:        "fat",
		Columns:     []repro.Column{{Name: "k", Kind: repro.Int}, {Name: "pad", Kind: repro.String}},
		ClusteredBy: []string{"k"},
	}); err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("y", 2<<10)
	rows := make([]repro.Row, 1780) // ≈ 3.5 MiB encoded: under the line cap
	for i := range rows {
		rows[i] = repro.Row{repro.IntVal(int64(i)), repro.StringVal(pad)}
	}
	if err := db.Table("fat").Load(rows); err != nil {
		t.Fatal(err)
	}

	c := dial(t, addr)
	defer c.close()
	if _, err := c.conn.Write([]byte(strings.Repeat("SELECT * FROM fat\n", 8))); err != nil {
		t.Fatal(err)
	}
	waitSessions(t, srv, 0, 2*time.Second)
}

// TestOversizedRequestLineAnswered sends a line past the 4 MiB request
// cap with no newline: the session answers one error line naming the
// cap and then closes, so the client reads the reason and then EOF.
func TestOversizedRequestLineAnswered(t *testing.T) {
	_, srv, addr, stop := startServerCfg(t, repro.Config{}, Config{})
	defer stop()
	c := dial(t, addr)
	defer c.close()
	if _, err := c.conn.Write(make([]byte, maxLineBytes+1)); err != nil {
		t.Fatal(err)
	}
	raw, err := c.r.ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading the answer to an oversized line: %v", err)
	}
	if want := `{"error":"server: request line is past the 4194304-byte cap"}` + "\n"; string(raw) != want {
		t.Fatalf("oversized line answered %q, want %q", raw, want)
	}
	if extra, err := c.r.ReadBytes('\n'); err != io.EOF {
		t.Fatalf("after the error line: %q, %v; want EOF", extra, err)
	}
	c.close()
	waitSessions(t, srv, 0, 2*time.Second)
}

// TestIdleSessionHoldsOneGoroutine pins what an idle connection costs
// the server: its session goroutine, blocked reading the next line, and
// nothing else.
func TestIdleSessionHoldsOneGoroutine(t *testing.T) {
	_, _, addr, stop := startServerCfg(t, repro.Config{}, Config{})
	defer stop()
	before := runtime.NumGoroutine()
	const conns = 16
	var cs []*client
	for i := 0; i < conns; i++ {
		c := dial(t, addr)
		defer c.close()
		mustOK(t, c.roundTrip(t, "SHOW TABLES"))
		cs = append(cs, c)
	}
	// A watcher a slow round trip started may still be exiting.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+conns+2 {
		if time.Now().After(deadline) {
			t.Fatalf("%d idle connections: goroutines %d → %d, want a rise of at most %d",
				conns, before, runtime.NumGoroutine(), conns+2)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, c := range cs {
		c.close()
	}
	waitGoroutines(t, before)
}

// TestPipelinedLinesSurviveWatcher pipelines cold statements, each of
// which outlives watchDelay and so starts a watcher: all in one write,
// or some sent while the first runs, when a watcher reads their first
// byte — also while the next line still waits whole in the session's
// buffer, so bytes queue for it across two watchers. Every reply
// arrives in order, each what its statement gets alone. A client that
// pipelines and then disconnects mid-statement leaves no session,
// goroutine or pinned frame behind.
func TestPipelinedLinesSurviveWatcher(t *testing.T) {
	before := runtime.NumGoroutine()
	db, srv, addr, stop := startServerCfg(t, slowDiskCfg(), Config{})
	loadWideTable(t, db, 12000)
	// The first two lines read disjoint halves of the table's pages, so
	// each is cold when it runs, and each runs well past 2 × watchDelay.
	lines := []string{"SELECT count(*) FROM wide WHERE u = 3 AND c < 6000\n",
		"SELECT count(*) FROM wide WHERE u = 3 AND c >= 6000\n", "SELECT c, u FROM wide WHERE c < 4\n"}
	c := dial(t, addr)
	var want []rawResponse
	for _, line := range lines {
		want = append(want, c.rawTrip(t, strings.TrimSpace(line)))
	}
	c.close()
	// Each pattern splits the lines into writes 2 × watchDelay apart: by
	// then the statement running has a watcher reading.
	patterns := map[string][]string{
		"one write":        {lines[0] + lines[1] + lines[2]},
		"second mid-run":   {lines[0], lines[1] + lines[2]},
		"third behind two": {lines[0] + lines[1], lines[2]},
	}
	send := func(c *client, writes []string) {
		t.Helper()
		for i, w := range writes {
			if i > 0 {
				time.Sleep(2 * watchDelay)
			}
			if _, err := c.conn.Write([]byte(w)); err != nil {
				t.Fatal(err)
			}
		}
	}

	for name, writes := range patterns {
		t.Run(name, func(t *testing.T) {
			if err := db.ColdCache(); err != nil {
				t.Fatal(err)
			}
			c := dial(t, addr)
			send(c, writes)
			for i := range lines {
				raw, err := c.r.ReadBytes('\n')
				if err != nil {
					t.Fatalf("reply %d: %v", i+1, err)
				}
				var got rawResponse
				if err := json.Unmarshal(raw, &got); err != nil {
					t.Fatalf("reply %d %q: %v", i+1, raw, err)
				}
				for j := range got.Results { // a cold run reads more pages
					got.Results[j].PagesRead = want[i].Results[j].PagesRead
				}
				if !reflect.DeepEqual(got, want[i]) {
					t.Fatalf("reply %d to the pipelined lines\n got  %+v\n want %+v", i+1, got, want[i])
				}
			}
			c.close()

			if err := db.ColdCache(); err != nil {
				t.Fatal(err)
			}
			d := dial(t, addr)
			send(d, writes)
			time.Sleep(5 * time.Millisecond)
			d.close()
			waitSessions(t, srv, 0, 5*time.Second)
		})
	}
	stop()
	if pinned := db.PinnedFrames(); pinned != 0 {
		t.Errorf("%d pinned frames after the pipelined sessions", pinned)
	}
	waitGoroutines(t, before)
}
