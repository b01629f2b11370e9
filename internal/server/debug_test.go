package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"repro"
)

// TestStartDebugOff pins the security default: an empty -debug-addr
// starts nothing, so a deployment that omits the flag has no pprof or
// metrics HTTP surface at all.
func TestStartDebugOff(t *testing.T) {
	db := repro.Open(repro.Config{})
	ln, err := StartDebug("", db)
	if err != nil {
		t.Fatalf("StartDebug(\"\"): %v", err)
	}
	if ln != nil {
		ln.Close()
		t.Fatal("StartDebug(\"\") opened a listener; the debug surface must stay off by default")
	}
}

// TestDebugEndpoints boots the debug listener and checks each route:
// /debug/metrics serves the DB snapshot as a JSON object with ?like
// filtering, /debug/vars serves expvar, /debug/pprof/ serves the
// profile index.
func TestDebugEndpoints(t *testing.T) {
	db := repro.Open(repro.Config{})
	if _, err := db.Exec("CREATE TABLE kv (k INT, v STRING) CLUSTERED BY (k)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("LOAD INTO kv VALUES (1, 'one'), (2, 'two')"); err != nil {
		t.Fatal(err)
	}
	ln, err := StartDebug("127.0.0.1:0", db)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	base := "http://" + ln.Addr().String()

	get := func(path string) (int, []byte) {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s body: %v", path, err)
		}
		return resp.StatusCode, body
	}

	// The full snapshot carries every subsystem's counters.
	code, body := get("/debug/metrics")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics status %d", code)
	}
	var all map[string]int64
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatalf("/debug/metrics is not a JSON object: %v\n%s", err, body)
	}
	for _, name := range []string{"disk.reads", "pool.hits", "wal.appends", "table.rows_written"} {
		if _, ok := all[name]; !ok {
			t.Errorf("/debug/metrics missing %q", name)
		}
	}
	if all["table.rows_written"] != 2 {
		t.Errorf("table.rows_written = %d, want 2", all["table.rows_written"])
	}

	// ?like narrows with SQL-LIKE semantics, same as SHOW METRICS LIKE.
	code, body = get("/debug/metrics?like=pool.%25")
	if code != http.StatusOK {
		t.Fatalf("/debug/metrics?like status %d", code)
	}
	var pool map[string]int64
	if err := json.Unmarshal(body, &pool); err != nil {
		t.Fatal(err)
	}
	if len(pool) == 0 {
		t.Fatal("like=pool.% matched nothing")
	}
	for name := range pool {
		if !strings.HasPrefix(name, "pool.") {
			t.Errorf("like=pool.%% leaked %q", name)
		}
	}

	if code, body = get("/debug/vars"); code != http.StatusOK || !strings.Contains(string(body), "memstats") {
		t.Errorf("/debug/vars status %d, memstats present %v", code, strings.Contains(string(body), "memstats"))
	}
	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
}

// logCapture is a goroutine-safe Logf sink.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (lc *logCapture) logf(format string, args ...any) {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	lc.lines = append(lc.lines, fmt.Sprintf(format, args...))
}

func (lc *logCapture) slowLines() []string {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	var out []string
	for _, l := range lc.lines {
		if strings.Contains(l, "slow query") {
			out = append(out, l)
		}
	}
	return out
}

// TestSlowQueryLog drives the slow-query gate deterministically: with
// IOWaitScale on, a cold scan pays real sleep per simulated seek, so a
// 1 ms threshold always fires on cold I/O and never on a metadata
// statement. The logged line must carry the structured fields and a
// plan summary.
func TestSlowQueryLog(t *testing.T) {
	db := repro.Open(repro.Config{IOWaitScale: 1})
	if _, err := db.Exec("CREATE TABLE items (k INT, grp INT) CLUSTERED BY (k)"); err != nil {
		t.Fatal(err)
	}
	var load strings.Builder
	load.WriteString("LOAD INTO items VALUES ")
	for i := 0; i < 2000; i++ {
		if i > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, %d)", i, i%10)
	}
	if _, err := db.Exec(load.String()); err != nil {
		t.Fatal(err)
	}

	var lc logCapture
	srv := New(db, Config{Logf: lc.logf, SlowQueryMs: 1})
	var st sessionStats

	// Metadata statements stay under any sane threshold: no slow line.
	resp := handleLine(t, srv, "SHOW TABLES", 7, &st)
	if resp.Error != "" || resp.Results[0].Error != "" {
		t.Fatalf("show tables: %+v", resp)
	}
	if lines := lc.slowLines(); len(lines) != 0 {
		t.Fatalf("SHOW TABLES logged as slow: %q", lines)
	}

	// A cold scan pays at least one real-time seek (>= 1 ms): logged.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	resp = handleLine(t, srv, "SELECT count(*) FROM items WHERE grp = 3", 7, &st)
	if resp.Error != "" || resp.Results[0].Error != "" {
		t.Fatalf("scan: %+v", resp)
	}
	lines := lc.slowLines()
	if len(lines) != 1 {
		t.Fatalf("slow lines = %q, want exactly one", lines)
	}
	line := lines[0]
	for _, want := range []string{
		"session=7", "stmt=1", "elapsed_ms=", "rows=1", "pages=",
		`sql="SELECT count(*) FROM items WHERE grp = 3"`,
	} {
		if !strings.Contains(line, want) {
			t.Errorf("slow line %q missing %q", line, want)
		}
	}
	// The plan summary is derived by explaining the statement.
	if !strings.Contains(line, `plan="`) || strings.Contains(line, `plan=""`) {
		t.Errorf("slow line %q lacks a plan summary", line)
	}

	// A server without SlowQueryMs never logs, however slow the query.
	var quiet logCapture
	off := New(db, Config{Logf: quiet.logf})
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	handleLine(t, off, "SELECT count(*) FROM items", 1, &st)
	if lines := quiet.slowLines(); len(lines) != 0 {
		t.Fatalf("slow log fired with the feature off: %q", lines)
	}
}

// TestWireMeasurements asserts every statement result on the wire
// carries its execution measurements: wall time, result row count and
// the disk page-read delta.
func TestWireMeasurements(t *testing.T) {
	db, addr, stop := startServer(t)
	defer stop()
	c := dial(t, addr)
	defer c.close()

	mustOK(t, c.roundTrip(t, "CREATE TABLE m (k INT, v STRING) CLUSTERED BY (k)"))
	var load strings.Builder
	load.WriteString("LOAD INTO m VALUES ")
	for i := 0; i < 500; i++ {
		if i > 0 {
			load.WriteString(", ")
		}
		fmt.Fprintf(&load, "(%d, 'v%d')", i, i)
	}
	mustOK(t, c.roundTrip(t, load.String()))
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	resp := mustOK(t, c.roundTrip(t, "SELECT v FROM m WHERE k >= 100"))
	r := resp.Results[0]
	if r.ElapsedNS <= 0 {
		t.Errorf("elapsed_ns = %d, want > 0", r.ElapsedNS)
	}
	if r.RowCount != len(r.Rows) || r.RowCount != 400 {
		t.Errorf("row_count = %d with %d rows, want 400", r.RowCount, len(r.Rows))
	}
	if r.PagesRead == 0 {
		t.Error("pages_read = 0 after ColdCache; the scan must have hit disk")
	}

	// Errored statements still report their wall time.
	resp = c.roundTrip(t, "SELECT * FROM ghosts")
	if resp.Results[0].Error == "" {
		t.Fatal("expected a per-statement error")
	}
	if resp.Results[0].ElapsedNS <= 0 {
		t.Errorf("errored statement elapsed_ns = %d, want > 0", resp.Results[0].ElapsedNS)
	}
}
