package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strconv"
)

// client is one wire connection. It speaks the line protocol the way an
// application would: one SQL line out, one JSON line (or, chunked, a
// frame stream) back.
type client struct {
	conn    net.Conn
	r       *bufio.Reader
	chunked bool
	// keepRows makes do retain each result row's raw JSON for the
	// oracle; the timed loops leave it off and read only the counters.
	keepRows bool
	bytesIn  int64
}

// reply is what the harness needs from one response.
type reply struct {
	rows     int // row_count (chunked: rows carried by the chunk frames)
	affected int
	err      string
	raw      []string // result rows as raw JSON, only with keepRows
}

type wireStmt struct {
	Rows     []json.RawMessage `json:"rows"`
	Affected int               `json:"affected"`
	Error    string            `json:"error"`
	RowCount int               `json:"row_count"`
}

type wireResponse struct {
	Results []wireStmt `json:"results"`
	Error   string     `json:"error"`
}

type wireFrame struct {
	Chunk *struct {
		Rows []json.RawMessage `json:"rows"`
	} `json:"chunk"`
	Done *wireResponse `json:"done"`
}

func dial(addr string, chunkRows int) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &client{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}
	if chunkRows > 0 {
		rep, err := c.do(fmt.Sprintf("SET wire_chunk_rows = %d", chunkRows))
		if err == nil && rep.err != "" {
			err = errors.New(rep.err)
		}
		if err != nil {
			conn.Close()
			return nil, fmt.Errorf("chunk setup: %w", err)
		}
		c.chunked = true
	}
	return c, nil
}

func (c *client) close() { c.conn.Close() }

// do sends one single-statement line and consumes its whole response.
// A non-nil error means the connection is unusable; a statement that
// failed inside the engine comes back in reply.err.
func (c *client) do(sql string) (reply, error) {
	buf := make([]byte, 0, len(sql)+1)
	buf = append(append(buf, sql...), '\n')
	if _, err := c.conn.Write(buf); err != nil {
		return reply{}, err
	}
	if !c.chunked {
		line, err := c.readLine()
		if err != nil {
			return reply{}, err
		}
		return c.parseResponse(line)
	}
	var rep reply
	for {
		line, err := c.readLine()
		if err != nil {
			return reply{}, err
		}
		if bytes.HasPrefix(line, []byte(`{"chunk"`)) {
			if !c.keepRows {
				rep.rows += countChunkRows(line)
				continue
			}
			var f wireFrame
			if err := json.Unmarshal(line, &f); err != nil || f.Chunk == nil {
				return reply{}, fmt.Errorf("bad chunk frame: %v", err)
			}
			rep.rows += len(f.Chunk.Rows)
			for _, r := range f.Chunk.Rows {
				rep.raw = append(rep.raw, string(r))
			}
			continue
		}
		var f wireFrame
		if err := json.Unmarshal(line, &f); err != nil || f.Done == nil {
			return reply{}, fmt.Errorf("bad frame %.80q: %v", line, err)
		}
		done, err := summarize(*f.Done)
		if err != nil {
			return reply{}, err
		}
		if done.rows != rep.rows && done.err == "" {
			return reply{}, fmt.Errorf("done frame counts %d rows, chunks carried %d", done.rows, rep.rows)
		}
		rep.affected, rep.err = done.affected, done.err
		return rep, nil
	}
}

func (c *client) readLine() ([]byte, error) {
	line, err := c.r.ReadBytes('\n')
	c.bytesIn += int64(len(line))
	return line, err
}

// parseResponse reads a buffered response. Large lines are successful
// row-carrying results by construction (errors and write acknowledgements
// carry no rows), so the timed path reads row_count from the line's tail
// instead of decoding every row.
func (c *client) parseResponse(line []byte) (reply, error) {
	if !c.keepRows && len(line) > 1024 {
		if n, ok := tailInt(line, `"row_count":`); ok {
			return reply{rows: n}, nil
		}
	}
	var resp wireResponse
	if err := json.Unmarshal(line, &resp); err != nil {
		return reply{}, fmt.Errorf("bad response %.80q: %v", line, err)
	}
	rep, err := summarize(resp)
	if err == nil && c.keepRows && len(resp.Results) == 1 {
		for _, r := range resp.Results[0].Rows {
			rep.raw = append(rep.raw, string(r))
		}
	}
	return rep, err
}

// summarize folds a one-statement response into a reply.
func summarize(resp wireResponse) (reply, error) {
	if resp.Error != "" {
		return reply{err: resp.Error}, nil
	}
	if len(resp.Results) != 1 {
		return reply{}, fmt.Errorf("response carries %d results, want 1", len(resp.Results))
	}
	r := resp.Results[0]
	return reply{rows: r.RowCount, affected: r.Affected, err: r.Error}, nil
}

// tailInt finds key in the last 160 bytes of line and parses the integer
// after it.
func tailInt(line []byte, key string) (int, bool) {
	tail := line[max(0, len(line)-160):]
	i := bytes.LastIndex(tail, []byte(key))
	if i < 0 {
		return 0, false
	}
	tail = tail[i+len(key):]
	j := 0
	for j < len(tail) && tail[j] >= '0' && tail[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(tail[:j]))
	return n, err == nil
}

// countChunkRows counts the rows of a chunk frame without decoding
// them. The workloads' strings hold no brackets, so inside "rows" every
// '[' after the first opens one row.
func countChunkRows(line []byte) int {
	i := bytes.Index(line, []byte(`"rows":[`))
	if i < 0 {
		return 0
	}
	return bytes.Count(line[i+len(`"rows":[`):], []byte{'['})
}
