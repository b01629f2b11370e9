// Package server is the engine's network front door: a line-oriented
// TCP protocol carrying SQL in and JSON results out, multiplexing
// per-connection sessions onto one shared repro.DB. Reads from
// concurrent sessions run in parallel under the engine's table latches;
// a line's ';'-separated statements run in order through
// DB.ExecScriptStreamCtx, each streaming its rows into the session's
// responder in either wire mode.
package server

import (
	"strconv"

	"repro"
	"repro/internal/value"
)

// The wire protocol, newline-delimited in both directions:
//
//	client -> server: one line per request, either raw SQL (which may
//	  contain several ';'-separated statements) or a JSON object
//	  {"sql": "..."} — lines whose first non-blank byte is '{' are JSON.
//	  A line past 4 MiB is answered with one error and the connection
//	  closes.
//	client <- server: exactly one JSON line per request:
//	  {"results": [stmtResult, ...], "error": "..."}
//	where "error" is set only when the line failed as a whole — it did
//	not parse — and "results" is then absent, and each stmtResult is
//	  {"columns": [...], "rows": [[...]], "message": "...",
//	   "affected": N, "error": "...",
//	   "elapsed_ns": N, "row_count": N, "pages_read": N}
//	with "error" set when that statement failed. The three measurement
//	fields report the statement's own server-side wall time, result row
//	count and disk page-read delta (a coalesced SELECT reports its
//	cross-connection batch's time and pages). Ints arrive as JSON
//	numbers, floats as numbers, strings as strings, every value encoded
//	byte for byte as encoding/json would,
//	in both wire modes, by the engine's one JSON row format
//	(internal/value's AppendRow; a plain SELECT's rows are encoded
//	straight from the heap tuples). The 4 MiB cap bounds the whole
//	response line: the statement whose result would take the line's
//	running total past it answers with only an "error" naming the
//	statement, that total and its row count, and so does a statement
//	that produced a value JSON cannot carry (a NaN or infinite float);
//	the statements before and after it answer as usual and the session
//	stays alive. The server holds at most the cap of a line's encoded
//	rows while its script runs, so an oversized result costs its error,
//	not its size in memory. Statements run strictly in order in both
//	modes (no intra-line SELECT batching).
//
// Wire protocol v2 — chunked results. A session opts in with
//
//	SET wire_chunk_rows = N
//
// (a server-side session setting, answered with a plain v1 response;
// N = 0 switches back to buffered mode). While it is set, every
// request is answered by a stream of JSON lines instead of one:
//
//	{"chunk": {"stmt": I, "columns": [...], "rows": [[...], ...]}}  (0+ times)
//	{"done":  {"results": [stmtResult, ...], "error": "..."}}       (exactly once)
//
// Chunk frames carry up to N result rows of statement I (0-based
// within the request line); "columns" appears only on a statement's
// first frame. Frames for a statement arrive in row order and rows
// are encoded exactly as buffered mode encodes them, so the
// concatenation of a statement's chunk rows is byte-identical to the
// "rows" array a buffered response would have carried. The "done"
// frame is the v1 response with each streamed statement's "rows"
// omitted ("row_count" still counts them, and "chunks" reports how
// many frames carried them); its "error" field covers whole-line
// failures exactly as in v1. The 4 MiB line cap still bounds every
// frame — it is a framing limit now, not a result-size limit, so a
// streamed result of any size completes as long as each single row
// fits in a frame.
//
// Authentication. When the server is started with a token, the first
// line of every connection must be
//
//	AUTH <token>
//
// answered with {"results":[{"message":"AUTH ok"}]} on success;
// anything else is answered with one JSON error line and the
// connection closes. Servers without a token accept and answer an
// AUTH line the same way, so clients can always send one.

// Request is the JSON form of one client request line.
type Request struct {
	SQL string `json:"sql"`
}

// appendStmt appends one statement's wire object to dst: the fields in
// the protocol comment's order, empty ones omitted. rows is the
// statement's already-encoded rows, comma-separated, spliced in as the
// "rows" array (a chunked statement's rows went out in its chunk frames
// instead). Every member is written with a leading comma; the first
// one's becomes the opening brace.
func appendStmt(dst []byte, sr repro.ScriptResult, rows []byte, chunks int) []byte {
	open := len(dst)
	str := func(member, s string) {
		if s != "" {
			dst = value.AppendString(append(dst, member...), s)
		}
	}
	num := func(member string, n int64) {
		if n != 0 {
			dst = strconv.AppendInt(append(dst, member...), n, 10)
		}
	}
	if sr.Err != nil {
		str(`,"error":`, sr.Err.Error())
	} else if res := sr.Res; res != nil {
		if len(res.Columns) > 0 {
			dst = appendColumns(append(dst, `,"columns":`...), res.Columns)
		}
		if len(rows) > 0 {
			dst = append(append(append(dst, `,"rows":[`...), rows...), ']')
		}
		str(`,"message":`, res.Message)
		num(`,"affected":`, int64(res.Affected))
	}
	num(`,"elapsed_ns":`, sr.Elapsed.Nanoseconds())
	num(`,"row_count":`, int64(sr.Rows))
	num(`,"pages_read":`, int64(sr.PagesRead))
	num(`,"chunks":`, int64(chunks))
	if len(dst) == open {
		return append(dst, "{}"...)
	}
	dst[open] = '{'
	return append(dst, '}')
}

// appendColumns appends a non-empty result header as a JSON array of
// strings.
func appendColumns(dst []byte, columns []string) []byte {
	for i, c := range columns {
		if i == 0 {
			dst = append(dst, '[')
		} else {
			dst = append(dst, ',')
		}
		dst = value.AppendString(dst, c)
	}
	return append(dst, ']')
}
