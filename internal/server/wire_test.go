package server

import (
	"bytes"
	"encoding/json"
	"net"
	"testing"
	"time"
)

// The server writes its lines with append-style encoders and has no
// types for them; these are the client-side shapes the tests decode
// into, field for field what the protocol comment documents.

// StmtResult is one statement's outcome on the wire.
type StmtResult struct {
	Columns   []string `json:"columns"`
	Rows      [][]any  `json:"rows"`
	Message   string   `json:"message"`
	Affected  int      `json:"affected"`
	Error     string   `json:"error"`
	ElapsedNS int64    `json:"elapsed_ns"`
	RowCount  int      `json:"row_count"`
	PagesRead uint64   `json:"pages_read"`
	Chunks    int      `json:"chunks"`
}

// Response is one buffered response line, or a done frame's payload.
type Response struct {
	Results []StmtResult `json:"results"`
	Error   string       `json:"error"`
}

// ChunkFrame is a chunk frame's payload, rows kept as encoded.
type ChunkFrame struct {
	Stmt    int               `json:"stmt"`
	Columns []string          `json:"columns"`
	Rows    []json.RawMessage `json:"rows"`
}

// captureConn is a net.Conn that keeps what is written to it, for
// driving a responder without a socket.
type captureConn struct {
	net.Conn
	buf bytes.Buffer
}

func (c *captureConn) Write(p []byte) (int, error) { return c.buf.Write(p) }

func (c *captureConn) SetWriteDeadline(time.Time) error { return nil }

// handleLine runs one request line through srv.handle in buffered mode,
// off the network, and decodes the response line.
func handleLine(t *testing.T, srv *Server, sql string, sess int64, st *sessionStats) Response {
	t.Helper()
	conn := &captureConn{}
	r := newResponder(&connWriter{s: srv, conn: conn}, nil)
	r.reset()
	if !srv.handle(nil, sql, sess, st, r) {
		t.Fatalf("%s: handle reported a dead connection", sql)
	}
	var resp Response
	if err := json.Unmarshal(conn.buf.Bytes(), &resp); err != nil {
		t.Fatalf("decode %q: %v", conn.buf.Bytes(), err)
	}
	return resp
}
