package repro

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/plan"
	sqlfe "repro/internal/sql"
	"repro/internal/value"
)

// This file holds the two things every SQL SELECT shares and the entry
// points built on them. PreparedSelect is the one bound-SELECT object:
// Exec and a script both execute a SELECT through its run method, so
// the table lookup and the SELECT-list permutation exist once (the
// binder has already resolved the rest, LIMIT 0 included, into the
// plan's Spec). ExecScriptStreamCtx is the one script executor:
// statements in order, each measured alone, result rows delivered
// through callbacks as the executor produces them — the server's
// responder encodes them straight onto the wire in both modes, and
// ExecScriptCtx collects them into Res.Rows.

// ErrStreamAborted is the error recorded for a streamed statement whose
// consumer returned false from RowStreamer.Row or RowJSON while the
// statement's context was still live — the server maps a dead client
// connection to it. The executor unwinds cleanly (no pinned frames, no
// goroutines); rows already delivered stay delivered.
var ErrStreamAborted = errors.New("repro: stream consumer aborted the statement")

// RowStreamer receives a script's result rows as the executor produces
// them. Begin is called once per row-producing statement (SELECT, but
// also EXPLAIN, SHOW, ADVISE) with the result header before any of its
// rows; Row delivers the rows in result order and stops the statement
// when it returns false; End marks the statement's last row (it runs
// even when the statement ends in an error after Begin). Statements
// that produce no result rows (INSERT, DDL, COMMIT) trigger none of the
// callbacks — their outcome travels only in the ScriptResult. Rows
// passed to Row are freshly materialized and may be retained. Any nil
// callback is skipped.
type RowStreamer struct {
	Begin func(stmt int, columns []string)
	Row   func(stmt int, row Row) bool
	// RowJSON, when set, receives the rows instead of Row, each encoded
	// as a JSON array of its values — ints and floats as numbers, strings
	// as strings, byte for byte what encoding/json gives — and valid only
	// during the call. A plain SELECT's rows are encoded straight from
	// the heap tuples, so no Row is ever built for them. A row JSON
	// cannot carry (a NaN or infinite float) arrives as encoding/json's
	// error and no bytes, and the consumer decides what it costs.
	RowJSON func(stmt int, row []byte, err error) bool
	End     func(stmt int)
	// Ctx, when set, receives the statement's effective context — the
	// caller's ctx plus the configured statement timeout — just before
	// Begin. A consumer whose Row callback can block (a socket write to
	// a client that stopped reading) bounds the wait by this context's
	// deadline, so a statement deadline or cancellation unblocks it; the
	// statement then fails with the context's error rather than hanging
	// on a stalled consumer. The context is only valid until End.
	Ctx func(stmt int, ctx context.Context)
}

func (rs RowStreamer) begin(stmt int, cols []string) {
	if rs.Begin != nil {
		rs.Begin(stmt, cols)
	}
}

func (rs RowStreamer) end(stmt int) {
	if rs.End != nil {
		rs.End(stmt)
	}
}

func (rs RowStreamer) announceCtx(stmt int, ctx context.Context) {
	if rs.Ctx != nil {
		rs.Ctx(stmt, ctx)
	}
}

// rowOut is one statement's end of a RowStreamer: it hands each result
// row to RowJSON, encoded, when the consumer takes encoded rows and to
// Row otherwise, counting the rows delivered and noting a consumer that
// asked to stop.
type rowOut struct {
	rs      RowStreamer
	stmt    int
	enc     []byte // the row being encoded
	n       int
	aborted bool
}

// put delivers one result row.
func (o *rowOut) put(r value.Row) bool {
	if o.rs.RowJSON == nil {
		return o.delivered(o.rs.Row == nil || o.rs.Row(o.stmt, externalRow(r)))
	}
	var err error
	o.enc, err = value.AppendRow(o.enc[:0], r)
	if err != nil {
		return o.putJSON(nil, err)
	}
	return o.putJSON(o.enc, nil)
}

// putJSON delivers one encoded row, or the error of a row with no JSON
// form (a plain SELECT's come from its heap tuples: plan.Sink.JSON).
func (o *rowOut) putJSON(enc []byte, err error) bool {
	return o.delivered(o.rs.RowJSON(o.stmt, enc, err))
}

func (o *rowOut) delivered(more bool) bool {
	if !more {
		o.aborted = true
		return false
	}
	o.n++
	return true
}

// ExecScriptStreamCtx executes a ';'-separated script, streaming result
// rows to rs instead of buffering them: each returned ScriptResult
// carries the statement's header, its own measurements and its error
// while its Res.Rows stays nil — the rows went through rs.Row (or
// rs.RowJSON) as the scan produced them, so a SELECT of any size runs in
// bounded memory.
// Statements execute strictly in order, each under ctx plus the
// configured statement timeout. ExecScriptCtx is this loop with a
// collecting sink.
//
// When the row callback returns false the running statement stops at row
// granularity and fails with the context's error if ctx is dead, or
// ErrStreamAborted otherwise; statements not yet started fail the same
// way without executing. A parse error fails the whole script and
// nothing executes.
func (db *DB) ExecScriptStreamCtx(ctx context.Context, script string, rs RowStreamer) ([]ScriptResult, error) {
	stmts, texts, err := sqlfe.ParseScriptSpans(script)
	if err != nil {
		return nil, err
	}
	out := make([]ScriptResult, len(stmts))
	for i, stmt := range stmts {
		out[i] = db.measured(texts[i], func() ScriptResult { return db.streamStmt(ctx, stmt, i, rs) })
		if errors.Is(out[i].Err, ErrStreamAborted) {
			// The consumer walked away while the context was still
			// live: there is nobody to stream to, so later statements
			// fail without running. (A dead context instead flows
			// through each remaining statement and fails it fast.)
			for j := i + 1; j < len(stmts); j++ {
				out[j] = ScriptResult{Err: ErrStreamAborted, SQL: texts[j]}
			}
			break
		}
	}
	return out, nil
}

// streamStmt executes one statement, streaming its result rows through
// rs: a SELECT's as the scan produces them; any other statement's — its
// result is small (SHOW, EXPLAIN, ADVISE output or a message) — by
// executing it buffered and replaying them, so the consumer sees one
// uniform row stream and the returned Res keeps only the header. The
// statement's effective context (caller ctx + statement timeout) is
// announced through rs.Ctx before Begin, so a consumer blocked in Row
// unblocks when the deadline fires; the nested deadline readStmt derives
// internally is a no-op shadow of this one.
func (db *DB) streamStmt(ctx context.Context, stmt sqlfe.Stmt, i int, rs RowStreamer) ScriptResult {
	var res *Result
	var produce func(ctx context.Context, out *rowOut) error
	if sel, ok := stmt.(*sqlfe.SelectStmt); ok {
		p, err := db.bindSelect(sel)
		if err != nil {
			return ScriptResult{Err: err}
		}
		res = &Result{Columns: p.bound.Cols}
		produce = p.run
	} else {
		var err error
		if res, err = db.execStmt(ctx, stmt); err != nil || len(res.Columns) == 0 {
			return ScriptResult{Res: res, Err: err}
		}
		rows := res.Rows
		res.Rows = nil
		produce = func(_ context.Context, out *rowOut) error {
			for _, row := range rows {
				if !out.put(row.internal()) {
					break
				}
			}
			return nil
		}
	}
	sctx, cancel := db.stmtCtx(ctx)
	defer cancel()
	rs.announceCtx(i, sctx)
	rs.begin(i, res.Columns)
	defer rs.end(i)
	out := &rowOut{rs: rs, stmt: i}
	err := produce(sctx, out)
	if err == nil && out.aborted {
		if sctx != nil && sctx.Err() != nil {
			err = sctx.Err()
			db.noteOutcome(err)
		} else {
			err = ErrStreamAborted
		}
	}
	if err != nil {
		return ScriptResult{Err: err}
	}
	return ScriptResult{Res: res, Rows: out.n}
}

// PreparedSelect is one parsed-and-bound SELECT — its plan.Spec, header
// and SELECT-list permutation, resolved once by the binder — and the one
// way a SQL SELECT runs: every entry point — Exec and a script — binds
// to one and calls run.
type PreparedSelect struct {
	db    *DB
	bound *sqlfe.BoundSelect
}

// bindSelect binds a parsed SELECT against the live catalog.
func (db *DB) bindSelect(s *sqlfe.SelectStmt) (*PreparedSelect, error) {
	b, err := sqlfe.BindSelect(catalogDB{db}, s)
	if err != nil {
		return nil, err
	}
	return &PreparedSelect{db: db, bound: b}, nil
}

// PrepareSelect parses line and returns a PreparedSelect when it is
// exactly one well-formed SELECT statement over this database: it
// parses and binds as executing the line would, without running it.
// Anything else (a multi-statement script, another statement form, a
// parse or bind error) returns nil; executing the line reports any
// error.
func (db *DB) PrepareSelect(line string) *PreparedSelect {
	stmts, _, err := sqlfe.ParseScriptSpans(line)
	if err != nil || len(stmts) != 1 {
		return nil
	}
	sel, ok := stmts[0].(*sqlfe.SelectStmt)
	if !ok {
		return nil
	}
	p, err := db.bindSelect(sel)
	if err != nil {
		return nil
	}
	return p
}

// run executes the SELECT under ctx with the configured scan fan-out
// and hands its result rows, in SELECT-list order, to out (a consumer
// that stops stops the scan). The bound spec covers every SELECT form —
// projection pushdown, aggregates, ORDER BY, OR, LIMIT. A plain SELECT's
// rows reach an encoding consumer straight from the heap tuples
// (plan.Sink.JSON).
func (p *PreparedSelect) run(ctx context.Context, out *rowOut) error {
	b := p.bound
	tbl := p.db.Table(b.Table)
	if tbl == nil {
		return fmt.Errorf("repro: no table %q", b.Table)
	}
	sink := plan.Sink{Row: out.put}
	if b.Spec.IsAggregate() {
		// Aggregate rows arrive in canonical (GroupBy..., Aggs...) shape;
		// OutPerm restores the SELECT-list order. Hidden HAVING and ORDER
		// BY aggregates sit past every OutPerm index and drop out here.
		// (Plain selects are already projected in list order.)
		pr := make(value.Row, len(b.OutPerm)) // out.put copies what it keeps
		sink.Row = func(r value.Row) bool {
			for j, at := range b.OutPerm {
				pr[j] = r[at]
			}
			return out.put(pr)
		}
	}
	if out.rs.RowJSON != nil {
		sink.JSON = out.putJSON
	}
	_, err := tbl.readStmt(ctx, b.Spec, p.db.workers, runPlain, sink)
	return err
}

// measured runs one statement and stamps its result with its source
// text, the wall time and the engine-wide disk page-read delta.
func (db *DB) measured(text string, run func() ScriptResult) ScriptResult {
	reads0 := db.disk.Stats().Reads
	start := time.Now()
	sr := run()
	sr.SQL, sr.Elapsed, sr.PagesRead = text, time.Since(start), db.disk.Stats().Reads-reads0
	return sr
}
