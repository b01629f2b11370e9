// Command cmserver serves the engine over TCP: a line-oriented protocol
// carrying SQL statements in and JSON results out (see the README's
// "cmserver wire protocol" section). Each connection is an independent
// session; concurrent sessions multiplex onto one shared database
// through the engine's table latches, and a request line's statements
// run in order, each streaming its rows into the session's reply.
//
// Run with: go run ./cmd/cmserver -addr :7433 -demo
// then send it one SQL line at a time, e.g. with: nc localhost 7433
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":7433", "TCP listen address")
	workers := flag.Int("workers", 0, "scan worker pool size (0 = GOMAXPROCS)")
	poolPages := flag.Int("pool", 0, "buffer pool pages (0 = default 4096)")
	iowait := flag.Int("iowait", 0, "IOWaitScale: make simulated I/O block for cost/scale (0 = off)")
	demo := flag.Bool("demo", false, "preload the paper's Figure 4 people table")
	quiet := flag.Bool("quiet", false, "suppress session logging")
	slowMs := flag.Int("slow-query-ms", 0, "log statements at or past this wall time in ms (0 = off)")
	debugAddr := flag.String("debug-addr", "", "optional HTTP listen address for /debug/metrics, /debug/vars and /debug/pprof (empty = no listener)")
	stmtTimeoutMs := flag.Int("stmt-timeout-ms", 0, "statement deadline in ms; statements past it fail with a timeout (0 = off)")
	maxConns := flag.Int("max-conns", 0, "admission cap on concurrent sessions; excess connections are rejected with a busy error (0 = unlimited)")
	maxStmts := flag.Int("max-stmts", 0, "cap on request lines executing at once across all sessions; a coalesced batch takes one slot (0 = unlimited)")
	drainMs := flag.Int("drain-ms", 5000, "grace period in ms for in-flight statements on shutdown before connections are cut")
	authToken := flag.String("auth-token", "", "require AUTH <token> as each connection's first line (empty = no auth)")
	writeTimeoutMs := flag.Int("write-timeout-ms", 30000, "write deadline in ms for each reply line or chunk frame; clients that stop reading past it are cut (0 = none)")
	coalesce := flag.Bool("coalesce", false, "coalesce single-SELECT lines from different sessions into cross-connection batches")
	coalesceWindowUs := flag.Int("coalesce-window-us", 200, "coalescing window in µs: a batch flushes this long after its first statement")
	coalesceMax := flag.Int("coalesce-max", 32, "statements per coalesced batch; a full batch flushes immediately")
	flag.Parse()

	db := repro.Open(repro.Config{
		Workers:          *workers,
		BufferPoolPages:  *poolPages,
		IOWaitScale:      *iowait,
		StatementTimeout: time.Duration(*stmtTimeoutMs) * time.Millisecond,
	})
	if *demo {
		if err := loadDemo(db); err != nil {
			log.Fatalf("cmserver: demo data: %v", err)
		}
		log.Printf("cmserver: demo table 'people' loaded (10 rows, CM on city)")
	}

	logf := log.Printf
	if *quiet {
		logf = nil
	}
	srv := server.New(db, server.Config{
		Logf:               logf,
		SlowQueryMs:        *slowMs,
		MaxConns:           *maxConns,
		MaxConcurrentStmts: *maxStmts,
		AuthToken:          *authToken,
		WriteTimeout:       time.Duration(*writeTimeoutMs) * time.Millisecond,
		Coalesce:           *coalesce,
		CoalesceWindow:     time.Duration(*coalesceWindowUs) * time.Microsecond,
		CoalesceMax:        *coalesceMax,
	})

	if dln, err := server.StartDebug(*debugAddr, db); err != nil {
		log.Fatalf("cmserver: debug listener: %v", err)
	} else if dln != nil {
		log.Printf("cmserver: debug endpoint on http://%s/debug/metrics", dln.Addr())
		defer dln.Close()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		log.Printf("cmserver: draining (up to %d ms for in-flight statements)", *drainMs)
		ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*drainMs)*time.Millisecond)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("cmserver: drain cut short: %v", err)
		}
	}()

	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, "cmserver:", err)
		os.Exit(1)
	}
}

// loadDemo creates the paper's running example (Figure 4) so a fresh
// server has something to query.
func loadDemo(db *repro.DB) error {
	script := `
CREATE TABLE people (state STRING, city STRING, salary INT) CLUSTERED BY (state) BUCKET TUPLES 1;
LOAD INTO people VALUES
 ('MA', 'boston', 25000), ('NH', 'boston', 45000), ('MA', 'boston', 50000),
 ('MN', 'manchester', 40000), ('MA', 'cambridge', 110000), ('MS', 'jackson', 80000),
 ('MA', 'springfield', 90000), ('NH', 'manchester', 60000), ('OH', 'springfield', 95000),
 ('OH', 'toledo', 70000);
CREATE CORRELATION MAP city_cm ON people (city);
`
	results, err := db.ExecScriptCtx(context.Background(), script)
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
