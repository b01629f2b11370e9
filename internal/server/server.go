package server

import (
	"bufio"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/metrics"
	sqlfe "repro/internal/sql"
)

// maxLineBytes bounds one request line (a giant INSERT script still
// fits; a runaway client cannot balloon server memory). The same cap
// bounds every line on the way out, newline included: clients mirror it
// on their read side, so a response past it would cut their session
// instead of reporting anything useful.
const maxLineBytes = 4 << 20

// ErrServerBusy is the admission-control rejection: the server is at
// its MaxConns cap. It travels to the client as the error of a one-line
// JSON response before the connection closes, so clients can tell
// "busy, retry later" apart from a network failure.
var ErrServerBusy = errors.New("server: too many connections, try again later")

// Config tunes a Server.
type Config struct {
	// Logf receives connection lifecycle lines; nil disables logging.
	Logf func(format string, args ...any)
	// SlowQueryMs, when positive, logs every statement whose wall time
	// reaches this many milliseconds as one structured key=value line:
	// session, statement index, elapsed, rows, pages, how the statement
	// ended (completed, timeout, cancelled, error), a plan summary
	// (derived lazily by explaining the statement — only slow
	// statements pay for it) and the SQL text.
	SlowQueryMs int
	// MaxConns, when positive, caps concurrent sessions. A connection
	// past the cap is answered with one JSON line carrying ErrServerBusy
	// and closed; each rejection counts into the server.rejected metric.
	MaxConns int
	// MaxConcurrentStmts, when positive, bounds request lines executing
	// at once across all sessions; excess requests wait at the gate and
	// give up cleanly if their connection goes away while queued.
	MaxConcurrentStmts int
	// AuthToken, when non-empty, requires every connection's first line
	// to be "AUTH <token>" (constant-time compare). A wrong or missing
	// token gets one JSON error line and the connection closes; each
	// failure counts into server.auth_failures.
	AuthToken string
	// WriteTimeout, when positive, bounds every reply write, response
	// line or frame: a client that stops reading past it has its session
	// closed, stopping a statement blocked on it. A statement's deadline
	// bounds its frame writes too. Zero leaves the rest unbounded.
	WriteTimeout time.Duration
}

// Server serves the line/JSON protocol over a shared database. Every
// connection gets one session goroutine, which reads its request lines
// and writes every reply itself; a statement that outlives watchDelay
// has a watcher read ahead for the client's disconnect, which cancels
// it. Statements run through DB.ExecScriptStreamCtx in both wire modes,
// so concurrent sessions interleave under the engine's table latches
// exactly like native concurrent callers.
type Server struct {
	db           *repro.DB
	logf         func(format string, args ...any)
	slowQuery    time.Duration // 0 disables the slow-query log
	maxConns     int
	gate         chan struct{} // nil means unbounded statement concurrency
	authToken    string
	writeTimeout time.Duration
	m            counters

	mu       sync.Mutex
	ln       net.Listener
	sessions map[*session]struct{}
	closed   bool

	wg       sync.WaitGroup
	nextSess atomic.Int64
	active   atomic.Int64
}

// counters are the server's own metrics. The server owns and bumps them;
// they are registered in the DB's metric registry (DB.MetricCounter)
// under server.* names, so SHOW METRICS, DB.Metrics and ResetMetrics
// cover them, and every server over one DB adds into the same counters.
// They record regardless of SetMetricsEnabled: one atomic add per chunk
// frame or refused connection, nowhere near a scan hot path.
type counters struct {
	rejected       *metrics.Counter // server.rejected: connections refused at admission (MaxConns)
	chunks         *metrics.Counter // server.stream_chunks: chunk frames sent in streaming mode
	backpressureNS *metrics.Counter // server.backpressure_waits_ns: time producing statements spent inside chunk-frame writes
	authFailures   *metrics.Counter // server.auth_failures: connections that failed token authentication
	gateWaitNS     *metrics.Counter // server.gate_wait_ns: time requests spent queued at the statement gate
	gateWaits      *metrics.Counter // server.gate_waits: requests that found the statement gate full and queued
}

// session is one connection's server-side state, and the connection as
// the session uses it: Read hands over the bytes a watcher took first,
// and Close also cancels the connection context. busy flips around each
// statement execution so Shutdown can tell draining sessions (left to
// finish their statement) from idle ones (closed immediately).
//
// The session reads its lines through itself, net/http's connReader
// pattern: a request that outlives watchDelay starts a watcher, the
// timer's goroutine, that reads at most one byte. EOF or an error means
// the client is gone and cancels the connection context; a byte belongs
// to a pipelined request, and Read returns it before reading on (the
// scanner may hold whole lines ahead of it, so bytes can queue). endWatch
// stops the watcher before the session reads on.
type session struct {
	net.Conn
	busy    atomic.Bool
	cancel  context.CancelFunc // cancels the connection context
	timer   *time.Timer        // runs watch; Reset as each request starts
	watched chan []byte        // what watch read, sent as it exits
	pending []byte             // bytes watchers read, for the next Read
}

// New creates a server over db.
func New(db *repro.DB, cfg Config) *Server {
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var gate chan struct{}
	if cfg.MaxConcurrentStmts > 0 {
		gate = make(chan struct{}, cfg.MaxConcurrentStmts)
	}
	return &Server{
		db:           db,
		logf:         logf,
		slowQuery:    time.Duration(cfg.SlowQueryMs) * time.Millisecond,
		maxConns:     cfg.MaxConns,
		gate:         gate,
		authToken:    cfg.AuthToken,
		writeTimeout: cfg.WriteTimeout,
		sessions:     make(map[*session]struct{}),
		m: counters{
			rejected:       db.MetricCounter("server.rejected"),
			chunks:         db.MetricCounter("server.stream_chunks"),
			backpressureNS: db.MetricCounter("server.backpressure_waits_ns"),
			authFailures:   db.MetricCounter("server.auth_failures"),
			gateWaitNS:     db.MetricCounter("server.gate_wait_ns"),
			gateWaits:      db.MetricCounter("server.gate_waits"),
		},
	}
}

// ListenAndServe listens on addr and serves until Close or Shutdown.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Serve accepts connections on ln until Close or Shutdown. It always
// closes ln.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("server: already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.logf("cmserver: listening on %s", ln.Addr())
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		if s.maxConns > 0 && len(s.sessions) >= s.maxConns {
			s.mu.Unlock()
			s.reject(conn)
			continue
		}
		sess := &session{Conn: conn}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.run(sess)
	}
}

// reject answers an over-capacity connection with one ErrServerBusy
// JSON line and closes it. The write carries a short deadline so a
// stalled client cannot hold up the accept loop.
func (s *Server) reject(conn net.Conn) {
	defer conn.Close()
	s.m.rejected.Inc()
	s.logf("cmserver: rejecting %s: %v", conn.RemoteAddr(), ErrServerBusy)
	r := responder{w: &connWriter{s: s, conn: conn, timeout: time.Second}}
	r.fail(ErrServerBusy.Error())
}

// Close stops accepting, closes every live session — cancelling any
// statement mid-flight — and waits for their goroutines to drain. For a
// graceful stop that lets running statements finish, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for sess := range s.sessions {
		sess.Conn.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown drains the server: it stops accepting, closes idle sessions
// immediately, and lets sessions that are mid-statement finish and
// deliver their response before closing. If ctx expires first, the
// remaining connections are closed — which cancels their in-flight
// statements through the per-connection context — and ctx's error is
// returned after every session goroutine has exited. Either way, no
// goroutines are left behind.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	var idle []net.Conn
	for sess := range s.sessions {
		if !sess.busy.Load() {
			idle = append(idle, sess.Conn)
		}
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, c := range idle {
		c.Close()
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for sess := range s.sessions {
			sess.Conn.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// draining reports whether Close or Shutdown has begun; sessions exit
// after their current statement once it flips.
func (s *Server) draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// run serves one connection on its one goroutine: it reads each request
// line and answers it before reading the next. While a statement runs,
// the session watches for the client going away, which cancels the
// connection context and so the statement.
func (s *Server) run(sess *session) {
	defer s.wg.Done()
	conn := sess.Conn
	id := s.nextSess.Add(1)
	s.active.Add(1)
	s.logf("cmserver: session %d open from %s (%d active)", id, conn.RemoteAddr(), s.active.Load())
	var st sessionStats
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		conn.Close()
		s.active.Add(-1)
		s.logf("cmserver: session %d closed after %d statements (%d rows, %d pages, %v busy) (%d active)",
			id, st.statements, st.rows, st.pages, st.elapsed.Round(time.Microsecond), s.active.Load())
	}()

	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	sess.cancel, sess.watched = connCancel, make(chan []byte, 1)
	sess.timer = time.AfterFunc(time.Hour, sess.watch)
	sess.timer.Stop() // armed per request
	scanner := bufio.NewScanner(sess)
	scanner.Buffer(make([]byte, 64<<10), maxLineBytes)
	r := newResponder(&connWriter{s: s, conn: sess, timeout: s.writeTimeout}, connCtx)
	authed := s.authToken == ""
	chunkRows := 0 // 0 = buffered v1 responses; set by SET wire_chunk_rows
	for scanner.Scan() {
		line := strings.TrimSpace(scanner.Text())
		if line == "" {
			continue
		}
		sess.busy.Store(true)
		sess.timer.Reset(watchDelay)
		ok := s.dispatch(connCtx, line, id, &st, r, &authed, &chunkRows)
		sess.endWatch()
		sess.busy.Store(false)
		if !ok || s.draining() {
			return
		}
	}
	// Reads cut short by our own Close/Shutdown are not worth a log line.
	if err := scanner.Err(); err != nil && !s.draining() {
		s.logf("cmserver: session %d read error: %v", id, err)
		if errors.Is(err, bufio.ErrTooLong) {
			r.fail(fmt.Sprintf("server: request line is past the %d-byte cap", maxLineBytes))
			// Closing on unread input would reset the connection and could
			// lose the answer: send EOF after it and drain for up to a second.
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.CloseWrite()
				tc.SetReadDeadline(time.Now().Add(time.Second))
				io.Copy(io.Discard, tc)
			}
		}
	}
}

// watchDelay is how long a request runs before its session watches for
// the client going away. A cold point probe (≈ 3.3 ms) answers inside
// it: at 1 ms, its watcher's timer added ≈ 70 µs to the probe's p50
// (bench point_cold, 2-vCPU host, GOMAXPROCS 1).
const watchDelay = 10 * time.Millisecond

// Read returns the bytes watchers took first, then the connection's.
func (sess *session) Read(p []byte) (int, error) {
	if len(sess.pending) > 0 {
		n := copy(p, sess.pending)
		sess.pending = sess.pending[n:]
		return n, nil
	}
	return sess.Conn.Read(p)
}

// Close closes the connection and cancels its context, so a statement
// that a failed write stopped ends cancelled.
func (sess *session) Close() error {
	sess.cancel()
	return sess.Conn.Close()
}

// watch is the watcher, on the timer's goroutine. The session sets no
// read deadline but endWatch's, so a deadline error is not the client's.
func (sess *session) watch() {
	b := make([]byte, 1)
	n, err := sess.Conn.Read(b)
	if err != nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		sess.cancel()
	}
	sess.watched <- b[:n]
}

// endWatch stops the timer or, if the watcher started, cuts its read
// short with a deadline in the past and waits for it.
func (sess *session) endWatch() {
	if sess.timer.Stop() {
		return
	}
	sess.Conn.SetReadDeadline(time.Unix(1, 0))
	sess.pending = append(sess.pending, <-sess.watched...)
	sess.Conn.SetReadDeadline(time.Time{})
}

// sessionStats accumulates one session's execution totals for the
// close log line. Only the session goroutine touches it.
type sessionStats struct {
	statements int
	rows       int64
	pages      uint64
	elapsed    time.Duration
}

// dispatch routes one request line: AUTH enforcement first, then the
// SET wire_chunk_rows session intercept — both answered with a plain v1
// line whatever the session's mode — and then execution, answered in the
// session's mode. It reports false when the session must close (failed
// auth, a dead connection, a failed write). The responder is reset once
// the reply is out, ready for the next line.
func (s *Server) dispatch(ctx context.Context, line string, id int64, st *sessionStats, r *responder, authed *bool, chunkRows *int) bool {
	defer r.reset()
	if token, isAuth := cutAuth(line); isAuth && s.authOK(token) {
		*authed = true
		r.result(0, repro.ScriptResult{Res: &repro.Result{Message: "AUTH ok"}})
		return r.finish()
	} else if isAuth || !*authed {
		msg := "server: authentication failed"
		if !isAuth {
			msg = "server: authentication required (send AUTH <token> as the first line)"
		}
		s.m.authFailures.Inc()
		s.logf("cmserver: session %d: %s", id, msg)
		r.fail(msg)
		return false
	}
	sqlText, jsonErr := requestSQL(line)
	if jsonErr != nil {
		r.chunkRows = *chunkRows
		return r.fail(jsonErr.Error())
	}
	if n, ok := parseWireChunkSet(sqlText); ok {
		if n < 0 {
			return r.fail("server: SET wire_chunk_rows takes a non-negative row count")
		}
		*chunkRows = n
		r.result(0, repro.ScriptResult{Res: &repro.Result{Message: fmt.Sprintf("SET wire_chunk_rows = %d", n)}})
		return r.finish()
	}
	r.chunkRows = *chunkRows
	return s.handle(ctx, sqlText, id, st, r)
}

// cutAuth recognizes an AUTH request line and extracts its token.
func cutAuth(line string) (string, bool) {
	if line == "AUTH" {
		return "", true
	}
	return strings.CutPrefix(line, "AUTH ")
}

// authOK checks a presented token against the configured one in
// constant time. Servers without a token accept any AUTH line, so
// clients can send one unconditionally.
func (s *Server) authOK(token string) bool {
	if s.authToken == "" {
		return true
	}
	return subtle.ConstantTimeCompare([]byte(token), []byte(s.authToken)) == 1
}

// requestSQL extracts the SQL text from a request line (raw SQL, or
// the JSON {"sql": ...} form when the line starts with '{').
func requestSQL(line string) (string, error) {
	if !strings.HasPrefix(line, "{") {
		return line, nil
	}
	var req Request
	if err := json.Unmarshal([]byte(line), &req); err != nil {
		return "", fmt.Errorf("server: bad JSON request: %v", err)
	}
	return req.SQL, nil
}

// parseWireChunkSet recognizes a request line that is exactly one
// SET wire_chunk_rows = N statement — the session-level setting the
// server intercepts before the engine (which only knows engine-wide
// settings) would reject it. Only a line that spells wire_chunk_rows is
// parsed here, so every other line is parsed once, by the engine. The
// test is exact: an identifier token is a raw slice of the line, made
// of ASCII letters, digits and '_', whose letter case the parser folds.
func parseWireChunkSet(sqlText string) (int, bool) {
	if !containsFold(sqlText, "wire_chunk_rows") {
		return 0, false
	}
	stmts, _, err := sqlfe.ParseScriptSpans(sqlText)
	if err != nil || len(stmts) != 1 {
		return 0, false
	}
	set, ok := stmts[0].(*sqlfe.SetStmt)
	if !ok || set.Name != "wire_chunk_rows" {
		return 0, false
	}
	return int(set.Value), true
}

// containsFold reports whether s contains word, a lower-case ASCII
// string, in any ASCII letter case.
func containsFold(s, word string) bool {
	for i := 0; i+len(word) <= len(s); i++ {
		j := 0
		for ; j < len(word); j++ {
			if c := s[i+j]; c != word[j] && !('A' <= c && c <= 'Z' && c+'a'-'A' == word[j]) {
				break
			}
		}
		if j == len(word) {
			return true
		}
	}
	return false
}

// handle executes one request line's SQL under the connection's context,
// folds each statement's measurements into the session stats (logging
// the slow ones) and answers through r in the mode r.chunkRows says. The
// line takes a statement-gate slot and runs through ExecScriptStreamCtx
// with r as the live row sink in either mode. It reports false when the
// connection is no longer usable.
func (s *Server) handle(ctx context.Context, sqlText string, sess int64, st *sessionStats, r *responder) bool {
	var gateWait time.Duration
	if s.gate != nil {
		var ok bool
		if gateWait, ok = s.enterGate(ctx); !ok {
			return r.fail("server: request abandoned at the statement gate: " + ctx.Err().Error())
		}
		defer func() { <-s.gate }()
	}
	results, err := s.db.ExecScriptStreamCtx(ctx, sqlText, r.rs)
	if err != nil {
		return r.fail(err.Error())
	}
	for i, res := range results {
		st.statements++
		st.rows += int64(res.Rows)
		st.pages += res.PagesRead
		st.elapsed += res.Elapsed
		if s.slowQuery > 0 && res.Elapsed >= s.slowQuery {
			s.logSlowQuery(sess, i, res, gateWait)
		}
		r.result(i, res)
	}
	return r.finish()
}

// enterGate takes a statement-gate slot, reporting false when ctx ends
// first. A slot free at once costs one channel send and no clock read;
// only a request that queues is timed, and its wait is added to
// server.gate_wait_ns and counted in server.gate_waits, whether it then
// gets the slot or gives up.
func (s *Server) enterGate(ctx context.Context) (wait time.Duration, ok bool) {
	select {
	case s.gate <- struct{}{}:
		return 0, true
	default:
	}
	start := time.Now()
	select {
	case s.gate <- struct{}{}:
		ok = true
	case <-ctx.Done():
	}
	wait = time.Since(start)
	s.m.gateWaitNS.Add(wait.Nanoseconds())
	s.m.gateWaits.Inc()
	return wait, ok
}

// logSlowQuery emits one structured line for a statement at or past the
// slow-query threshold, including how it ended — completed, timeout,
// cancelled (client disconnect) or error — and how long its request
// queued at the statement gate first (gate_wait_ms, 0 without a wait).
func (s *Server) logSlowQuery(sess int64, idx int, r repro.ScriptResult, gateWait time.Duration) {
	plan := ""
	if r.Err == nil {
		plan = s.planSummary(r.SQL)
	}
	s.logf("cmserver: slow query session=%d stmt=%d elapsed_ms=%d gate_wait_ms=%d rows=%d pages=%d outcome=%s plan=%q sql=%q",
		sess, idx+1, r.Elapsed.Milliseconds(), gateWait.Milliseconds(), r.Rows, r.PagesRead, repro.StatementOutcome(r.Err), plan, r.SQL)
}

// planSummary derives a one-line operator summary for the slow-query
// log by explaining the statement — EXPLAIN accepts both SELECT and
// UPDATE, so every plannable slow statement gets one; anything EXPLAIN
// rejects (DDL, INSERT, nested EXPLAIN) reports "". Only statements
// already past the threshold pay this cost.
func (s *Server) planSummary(sql string) string {
	res, err := s.db.Exec("EXPLAIN " + sql)
	if err != nil || res.Plan == nil || len(res.Plan.Nodes) == 0 {
		return ""
	}
	kinds := make([]string, len(res.Plan.Nodes))
	for i, n := range res.Plan.Nodes {
		kinds[i] = n.Kind
	}
	sum := strings.Join(kinds, "->")
	if res.Plan.Uses != "" {
		sum += " uses " + res.Plan.Uses
	}
	return sum
}
