package server

import (
	"context"
	"fmt"
	"net"
	"strconv"
	"time"
	"unsafe"

	"repro"
	"repro/internal/value"
)

// This file is the responder: the one path from a statement's rows to
// the socket, in either wire mode. A responder is a row sink — the
// facade's RowStreamer callbacks for a live statement, a replay for the
// coalescer's buffered results — that takes each row as the engine's
// JSON row encoding (RowJSON: a plain SELECT's rows come encoded
// straight from the heap tuples; Row: the rows the engine hands over
// decoded, encoded here by the same value encoder) and appends it onto
// the rows it holds back. In chunked mode the held rows leave as a
// chunk frame every wire_chunk_rows rows or at the frame byte budget. A
// buffered reply is the responder that never flushes: it holds each
// statement's rows, at most maxLineBytes of them across the line, until
// the statement's result arrives after the script, and result splices
// them into the statement's object on the response line. Every line
// reaches the socket through the session's connWriter.

// frameBudget is the most row bytes a chunk frame carries: maxLineBytes
// less room for the frame's JSON envelope
// ({"chunk":{"stmt":...,"columns":[...],"rows":[...]}}), so a frame
// flushed just under the budget still encodes under the line cap.
const frameBudget = maxLineBytes - 64<<10

// retainBytes is the most capacity a responder keeps in any one of its
// buffers between replies: replies up to it reuse the session's buffers
// and allocate none, and a buffer a bigger reply grew is dropped when
// that reply ends, so an idle session pins at most this much per buffer.
const retainBytes = 64 << 10

// connWriter is a session's socket writer; write is the only call that
// touches the connection. The session goroutine writes one-line replies
// directly. A chunked reply's lines go through the bounded frames queue,
// drained by a goroutine that lives as long as the session, so a full
// queue blocks the producing statement at chunk granularity — real
// backpressure — until the client reads, the statement deadline fires,
// or the connection dies. The two never overlap: a chunked reply ends by
// waiting for the queue to drain.
type connWriter struct {
	s      *Server
	conn   net.Conn
	cancel context.CancelFunc // cancels the connection context when a queued write fails
	frames chan []byte        // depth Config.ChunkQueue; a nil frame asks for the status on idle
	idle   chan error
}

// write puts one complete line (newline included) on the socket.
func (w *connWriter) write(line []byte) error {
	_, err := w.conn.Write(line)
	return err
}

// drainQueue writes queued frames under the per-frame write deadline
// until the session closes the queue. On a write error it cancels the
// connection context — aborting the producing statement — and discards
// what follows, so the producer never blocks forever on a dead socket.
func (w *connWriter) drainQueue() {
	var err error
	timeout := w.s.writeTimeout
	for line := range w.frames {
		switch {
		case line == nil:
			w.conn.SetWriteDeadline(time.Time{}) // direct writes carry no deadline
			w.idle <- err
		case err == nil:
			if timeout > 0 {
				w.conn.SetWriteDeadline(time.Now().Add(timeout))
			}
			if err = w.write(line); err != nil {
				w.cancel()
			}
		}
	}
}

// send queues one chunk frame. When the queue is full it blocks under
// ctx, recording the wait into server.backpressure_waits_ns, and reports
// false if ctx died first.
func (w *connWriter) send(ctx context.Context, line []byte) bool {
	select {
	case w.frames <- line:
		return true
	default:
	}
	start := time.Now()
	defer func() { w.s.m.backpressureNS.Add(int64(time.Since(start))) }()
	select {
	case w.frames <- line:
		return true
	case <-ctx.Done():
		return false
	}
}

// sendLast queues a chunked reply's final line behind its frames and
// waits for the queue to drain, returning the first write error (nil
// when every frame, this one included, reached the socket).
func (w *connWriter) sendLast(line []byte) error {
	w.frames <- line // drainQueue keeps receiving after a failure: never blocks forever
	w.frames <- nil
	return <-w.idle
}

// responder builds one request's reply. It lives as long as its session,
// reset after every reply, and only the session goroutine touches it.
type responder struct {
	w         *connWriter
	connCtx   context.Context
	chunkRows int // this reply's mode: 0 buffered, else rows per chunk frame

	line []byte            // the response line (chunked: the done frame's payload) under construction
	rs   repro.RowStreamer // the sink as the facade's callbacks

	ctx     context.Context // bounds a blocked frame send: the streaming statement's, else connCtx
	stmt    int
	columns []string  // current statement's header, until its first frame carries it
	vals    value.Row // a Row callback's row, as the value encoder takes it
	enc     []byte    // a Row callback's row, encoded
	rows    []byte    // held-back encoded rows: chunked, the next frame's; buffered, the line's
	nrows   int       // rows in the next frame (chunked)
	spilled int       // bytes of held rows that result left off the line
	per     []stmtWire
}

// stmtWire is what the wire side knows about one statement of the line.
type stmtWire struct {
	from, to int   // its held rows, comma-separated, are rows[from:to] once it ends
	nrows    int   // rows it produced
	size     int   // bytes of those rows encoded, held or not
	over     bool  // buffered: its rows stopped being held at the line cap
	chunks   int   // frames that carried its rows
	err      error // set when its rows could not be put on the wire
}

// newResponder builds a session's responder over w.
func newResponder(w *connWriter, connCtx context.Context) *responder {
	r := &responder{w: w, connCtx: connCtx}
	r.rs = repro.RowStreamer{Ctx: r.setCtx, Begin: r.begin, Row: r.row, RowJSON: r.rowJSON, End: r.end}
	return r
}

// reset readies the responder for the next reply, buffered until
// chunkRows says otherwise. The session's buffers carry over emptied, so
// a run of small replies allocates none; one that a reply grew past
// retainBytes is dropped here instead (the session resets after every
// reply), so a big response pins no memory on an idle session.
func (r *responder) reset() {
	r.chunkRows, r.ctx, r.nrows, r.spilled = 0, r.connCtx, 0, 0
	r.line, r.rows, r.enc = reuse(r.line), reuse(r.rows), reuse(r.enc)
	r.vals, r.per = reuse(r.vals), reuse(r.per)
}

// reuse empties buf for the next reply, or drops it when the last reply
// grew it past retainBytes.
func reuse[T any](buf []T) []T {
	var elem T
	if uintptr(cap(buf))*unsafe.Sizeof(elem) > retainBytes {
		return nil
	}
	return buf[:0]
}

func (r *responder) setCtx(_ int, ctx context.Context) { r.ctx = ctx }

func (r *responder) at(stmt int) *stmtWire {
	for len(r.per) <= stmt {
		r.per = append(r.per, stmtWire{})
	}
	return &r.per[stmt]
}

func (r *responder) begin(stmt int, columns []string) {
	r.stmt, r.columns = stmt, columns
	r.at(stmt).from = len(r.rows)
}

// row is the Row callback, for the rows the engine hands over decoded —
// the coalescer's replay: they go through the value encoder here and
// then on as rowJSON's.
func (r *responder) row(stmt int, row repro.Row) bool {
	r.vals = r.vals[:0]
	for _, v := range row {
		switch v.Kind() {
		case repro.Int:
			r.vals = append(r.vals, value.NewInt(v.Int()))
		case repro.Float:
			r.vals = append(r.vals, value.NewFloat(v.Float()))
		default:
			r.vals = append(r.vals, value.NewString(v.Str()))
		}
	}
	var err error
	r.enc, err = value.AppendRow(r.enc[:0], r.vals)
	return r.rowJSON(stmt, r.enc, err)
}

// rowJSON is the RowJSON callback: it holds back one encoded row
// (encErr: the row has no JSON form). In chunked mode the held rows
// leave first when this one would take their frame past the byte
// budget, and with it at the row count. A row that cannot go on the wire
// fails its statement alone: result reports the error, its held and
// later rows are dropped, and the statement runs on — stopping it would
// make the facade skip the statements after it. It reports false only
// when a frame could not be queued: the statement's context died.
func (r *responder) rowJSON(stmt int, enc []byte, encErr error) bool {
	st := r.at(stmt)
	if st.err != nil {
		return true
	}
	if encErr != nil {
		st.err = fmt.Errorf("server: statement %d row encoding failed: %v", stmt+1, encErr)
	} else if r.chunkRows > 0 && len(enc) > frameBudget {
		st.err = fmt.Errorf("server: statement %d produced a %d-byte row, past the %d-byte frame cap",
			stmt+1, len(enc), maxLineBytes)
	}
	if st.err != nil {
		r.rows, r.nrows = r.rows[:st.from], 0
		return true
	}
	st.nrows++
	st.size += len(enc)
	if r.chunkRows > 0 && r.nrows > 0 && len(r.rows)+1+len(enc) > frameBudget && !r.flush() {
		return false
	}
	// A buffered line carries every held row, so once they could no
	// longer fit under the cap this statement answers the cap error:
	// stop holding its rows, keep counting them for that error.
	if r.chunkRows == 0 && !st.over && len(r.rows)+1+len(enc) > maxLineBytes {
		st.over, r.rows = true, r.rows[:st.from]
	}
	if st.over {
		return true
	}
	if len(r.rows) > st.from {
		r.rows = append(r.rows, ',')
	}
	r.rows = append(r.rows, enc...)
	r.nrows++
	return r.chunkRows == 0 || r.nrows < r.chunkRows || r.flush()
}

func (r *responder) end(stmt int) {
	if r.chunkRows > 0 && r.nrows > 0 {
		r.flush()
	}
	r.at(stmt).to = len(r.rows)
	r.ctx = r.connCtx
}

// flush frames the held rows and queues the frame. The frame owns its
// bytes: drainQueue reads them while the next rows are being encoded.
func (r *responder) flush() bool {
	f := make([]byte, 0, len(r.rows)+128)
	f = strconv.AppendInt(append(f, `{"chunk":{"stmt":`...), int64(r.stmt), 10)
	if len(r.columns) > 0 {
		f = appendColumns(append(f, `,"columns":`...), r.columns)
		r.columns = nil
	}
	f = append(append(append(f, `,"rows":[`...), r.rows...), "]}}\n"...)
	r.rows, r.nrows = r.rows[:0], 0
	if !r.w.send(r.ctx, f) {
		return false
	}
	r.at(r.stmt).chunks++
	r.w.s.m.chunks.Inc()
	return true
}

// result appends statement stmt's object to the response line. Rows
// that arrive buffered in sr (the coalescer) go through the sink first,
// as if the statement were producing them now; the rows held for the
// statement — a buffered reply's whole result — are spliced into the
// object. A statement whose rows could not be put on the wire, or whose
// object would take the line past maxLineBytes, answers with only an
// error; the statements around it are untouched.
func (r *responder) result(stmt int, sr repro.ScriptResult) {
	if sr.Err == nil && sr.Res != nil && len(sr.Res.Rows) > 0 {
		r.begin(stmt, sr.Res.Columns)
		for _, row := range sr.Res.Rows {
			if !r.row(stmt, row) {
				break
			}
		}
		r.end(stmt)
	}
	st := r.at(stmt)
	if st.err != nil {
		sr = repro.ScriptResult{Err: st.err}
	}
	held := r.rows[st.from:st.to]
	if sr.Err != nil {
		r.spilled, held = r.spilled+len(held), nil
	}
	if len(r.line) == 0 {
		r.line = append(r.line, `{"results":[`...)
	} else {
		r.line = append(r.line, ',')
	}
	mark := len(r.line)
	r.line = appendStmt(r.line, sr, held, st.chunks)
	// The line still has to take its closing "]}" and the newline. The
	// count reported is the line's results up to this one with its rows
	// in it — and, for rows it stopped holding, with the rows held for
	// earlier statements that then stayed off the line, which crowded
	// them out.
	if sr.Err == nil && (st.over || len(held) > 0 && len(r.line)+3 > maxLineBytes) {
		used := len(r.line) - len(`{"results":[`)
		if st.over {
			used += len(`,"rows":[]`) + st.size + st.nrows - 1 + r.spilled
		}
		r.spilled += len(held)
		r.line = appendStmt(r.line[:mark], repro.ScriptResult{Err: fmt.Errorf(
			"server: statement %d result is %d bytes, past the %d-byte response cap (%d rows); add a LIMIT or a tighter WHERE",
			stmt+1, used, maxLineBytes, st.nrows)}, nil, 0)
	}
}

// finish closes the response line and delivers it, reporting whether
// the connection is still usable.
func (r *responder) finish() bool {
	if len(r.line) == 0 {
		r.line = append(r.line, "{}"...)
	} else {
		r.line = append(r.line, "]}"...)
	}
	// Room for the done-frame wrapper and the newline; only a line of very
	// many small statements gets here.
	if n := len(r.line) + 10; n > maxLineBytes {
		return r.fail(fmt.Sprintf("server: response is %d bytes, past the %d-byte response cap", n, maxLineBytes))
	}
	return r.deliver()
}

// fail answers the whole line with one error.
func (r *responder) fail(msg string) bool {
	r.line = append(value.AppendString(append(r.line[:0], `{"error":`...), msg), '}')
	return r.deliver()
}

// deliver sends the line: as it is in buffered mode, as the payload of
// the done frame (small: its rows went out in chunk frames) in chunked.
func (r *responder) deliver() bool {
	if r.chunkRows > 0 {
		return r.w.sendLast(append(append([]byte(`{"done":`), r.line...), "}\n"...)) == nil
	}
	return r.w.write(append(r.line, '\n')) == nil
}
