package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strconv"
	"time"
	"unsafe"

	"repro"
	"repro/internal/value"
)

// This file is the responder: the one path from a statement's rows to
// the socket, in either wire mode. A responder is a row sink — the
// facade's RowStreamer callbacks for a live statement — that takes each
// row as the engine's JSON row encoding (RowJSON: a plain SELECT's rows
// come encoded straight from the heap tuples, every other statement's
// through the same value encoder) and appends it onto the rows it holds
// back. In chunked mode the held rows leave as a chunk frame every
// wire_chunk_rows rows or at the frame byte budget. A buffered reply is
// the responder that never flushes: it holds each statement's rows, at
// most maxLineBytes of them across the line, until the statement's
// result arrives after the script, and result splices them into the
// statement's object on the response line. Every line, frames included,
// is written inline by the session goroutine through its connWriter.

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
// touches the connection, and only the session goroutine calls it. A
// client that stops reading blocks the statement in the write —
// backpressure at frame granularity — until the client reads, the write
// deadline fires, or the connection dies.
type connWriter struct {
	s       *Server
	conn    net.Conn      // a session's: closing it cancels the connection context
	timeout time.Duration // Config.WriteTimeout; 0 leaves writes unbounded
}

// write puts one complete line (newline included) on the socket under a
// write deadline: the earlier of now + timeout and, while ctx (nil: none)
// is live, ctx's deadline. It reports false if the line did not get out.
// A write that ctx's deadline cut waits for ctx, so the statement ends
// timed out; if none of the line went out, the stream is whole and the
// session goes on. Any other failure may leave the socket mid-line, so
// it closes the connection, which fails the rest of the request line
// fast.
func (w *connWriter) write(ctx context.Context, line []byte) bool {
	var stmtDeadline time.Time
	if ctx != nil && ctx.Err() == nil {
		stmtDeadline, _ = ctx.Deadline()
	}
	deadline := stmtDeadline
	if w.timeout > 0 && (deadline.IsZero() || time.Until(deadline) > w.timeout) {
		deadline = time.Now().Add(w.timeout)
	}
	n, err := 0, w.conn.SetWriteDeadline(deadline)
	if err == nil {
		if n, err = w.conn.Write(line); err == nil {
			return true
		}
	}
	if !stmtDeadline.IsZero() && deadline.Equal(stmtDeadline) && errors.Is(err, os.ErrDeadlineExceeded) {
		<-ctx.Done() // so the statement ends timed out, not cancelled by the close
		if n == 0 {
			return false
		}
	}
	w.conn.Close()
	return false
}

// responder builds one request's reply. It lives as long as its session,
// reset after every reply, and only the session goroutine touches it.
type responder struct {
	w         *connWriter
	connCtx   context.Context
	chunkRows int // this reply's mode: 0 buffered, else rows per chunk frame

	line []byte            // the response line (chunked: the done frame's payload) under construction
	rs   repro.RowStreamer // the sink as the facade's callbacks

	ctx     context.Context // its deadline bounds the writes: the streaming statement's, else connCtx
	stmt    int
	columns []string // current statement's header, until its first frame carries it
	rows    []byte   // held-back encoded rows: chunked, the next frame's; buffered, the line's
	nrows   int      // rows in the next frame (chunked)
	frame   []byte   // the chunk or done frame being written (chunked)
	spilled int      // bytes of held rows that result left off the line
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
	r.rs = repro.RowStreamer{Ctx: r.setCtx, Begin: r.begin, RowJSON: r.rowJSON, End: r.end}
	return r
}

// reset readies the responder for the next reply, buffered until
// chunkRows says otherwise. The session's buffers carry over emptied, so
// a run of small replies allocates none; one that a reply grew past
// retainBytes is dropped here instead (the session resets after every
// reply), so a big response pins no memory on an idle session.
func (r *responder) reset() {
	r.chunkRows, r.ctx, r.nrows, r.spilled = 0, r.connCtx, 0, 0
	r.line, r.rows, r.frame, r.per = reuse(r.line), reuse(r.rows), reuse(r.frame), reuse(r.per)
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

// rowJSON is the RowJSON callback: it holds back one encoded row
// (encErr: the row has no JSON form). In chunked mode the held rows
// leave first when this one would take their frame past the byte
// budget, and with it at the row count. A row that cannot go on the wire
// fails its statement alone: result reports the error, its held and
// later rows are dropped, and the statement runs on — stopping it would
// make the facade skip the statements after it. It reports false only
// when a frame could not be written.
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

// flush frames the held rows and writes the frame, recording the time
// the statement spends in the write into server.backpressure_waits_ns.
func (r *responder) flush() bool {
	f := strconv.AppendInt(append(r.frame[:0], `{"chunk":{"stmt":`...), int64(r.stmt), 10)
	if len(r.columns) > 0 {
		f = appendColumns(append(f, `,"columns":`...), r.columns)
		r.columns = nil
	}
	r.frame = append(append(append(f, `,"rows":[`...), r.rows...), "]}}\n"...)
	r.rows, r.nrows = r.rows[:0], 0
	start := time.Now()
	ok := r.w.write(r.ctx, r.frame)
	r.w.s.m.backpressureNS.Add(int64(time.Since(start)))
	if !ok {
		return false
	}
	r.at(r.stmt).chunks++
	r.w.s.m.chunks.Inc()
	return true
}

// result appends statement stmt's object to the response line. The rows
// held for the statement — a buffered reply's whole result — are
// spliced into the object. A statement whose rows could not be put on the wire, or whose
// object would take the line past maxLineBytes, answers with only an
// error; the statements around it are untouched.
func (r *responder) result(stmt int, sr repro.ScriptResult) {
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
		r.frame = append(append(append(r.frame[:0], `{"done":`...), r.line...), "}\n"...)
		return r.w.write(r.ctx, r.frame)
	}
	r.line = append(r.line, '\n')
	return r.w.write(r.ctx, r.line)
}
