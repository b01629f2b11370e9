package server

import (
	"bufio"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"

	"repro"
)

// goldenScript is TestStreamChunkedMatchesBuffered's request line: every
// statement form the wire carries.
const goldenScript = "SELECT * FROM t WHERE u = 3; " +
	"SELECT s FROM t WHERE c BETWEEN 490 AND 499 ORDER BY c DESC; " +
	"SELECT u, count(*), avg(c) FROM t GROUP BY u ORDER BY u LIMIT 5; " +
	"SELECT * FROM t WHERE u = 3 LIMIT 0; " +
	"SHOW CMS FOR t; " +
	"EXPLAIN SELECT * FROM t WHERE u = 3; " +
	"INSERT INTO ins VALUES (1); " +
	"SELECT * FROM ghosts"

var elapsedDigits = regexp.MustCompile(`"elapsed_ns":\d+`)

// goldenSession drives one connection through the fixed exchange and
// returns every line the server wrote, elapsed_ns digits masked.
func goldenSession(t *testing.T) []string {
	t.Helper()
	db, _, addr, stop := startServerCfg(t, repro.Config{Workers: 1}, Config{})
	defer stop()
	streamFixture(t, db)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	r := bufio.NewReaderSize(conn, 1<<20)
	var lines []string
	// exchange sends one request and reads reply lines up to and
	// including the one that starts with last.
	exchange := func(req, last string) {
		t.Helper()
		if _, err := fmt.Fprintf(conn, "%s\n", req); err != nil {
			t.Fatal(err)
		}
		for {
			raw, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%s: read: %v", req, err)
			}
			line := elapsedDigits.ReplaceAllString(strings.TrimSuffix(raw, "\n"), `"elapsed_ns":N`)
			lines = append(lines, line)
			if strings.HasPrefix(line, last) {
				return
			}
		}
	}
	exchange("AUTH anything", "{")
	exchange(goldenScript, "{")
	exchange(`{"sql": "SELECT avg(u), sum(c), min(s) FROM t WHERE c < 4"}`, "{")
	exchange("{not json", "{")
	exchange("SELEKT * FROM t", "{")
	exchange(";", "{")
	exchange("SET wire_chunk_rows = -1", "{")
	exchange("SET wire_chunk_rows = 7", "{")
	exchange(goldenScript, `{"done"`)
	exchange("{not json", `{"done"`)
	exchange("SELEKT * FROM t", `{"done"`)
	exchange(";", `{"done"`)
	exchange("SET wire_chunk_rows = 0", "{")
	exchange("SELECT count(*) FROM ins", "{")
	return lines
}

// wireGolden is every line goldenSession's server wrote at the commit
// before the responder existed (two reflective marshals per buffered
// response, a json.Marshal per chunked row), elapsed_ns digits masked.
var wireGolden = []string{
	`{"results":[{"message":"AUTH ok"}]}`,
	`{"results":[{"columns":["c","u","s"],"rows":[[3,3,"row-3"],[23,3,"row-23"],[43,3,"row-43"],[63,3,"row-63"],[83,3,"row-83"],[103,3,"row-103"],[123,3,"row-123"],[143,3,"row-143"],[163,3,"row-163"],[183,3,"row-183"],[203,3,"row-203"],[223,3,"row-223"],[243,3,"row-243"],[263,3,"row-263"],[283,3,"row-283"],[303,3,"row-303"],[323,3,"row-323"],[343,3,"row-343"],[363,3,"row-363"],[383,3,"row-383"],[403,3,"row-403"],[423,3,"row-423"],[443,3,"row-443"],[463,3,"row-463"],[483,3,"row-483"]],"elapsed_ns":N,"row_count":25},{"columns":["s"],"rows":[["row-499"],["row-498"],["row-497"],["row-496"],["row-495"],["row-494"],["row-493"],["row-492"],["row-491"],["row-490"]],"elapsed_ns":N,"row_count":10},{"columns":["u","count(*)","avg(c)"],"rows":[[0,25,240],[1,25,241],[2,25,242],[3,25,243],[4,25,244]],"elapsed_ns":N,"row_count":5},{"columns":["c","u","s"],"elapsed_ns":N},{"columns":["cm","columns","size_bytes","keys","pairs","c_per_u","stats_bytes"],"rows":[["cm_u","u",620,20,40,2,15605]],"elapsed_ns":N,"row_count":1},{"columns":["method","uses","est_cost","decoded_cols"],"rows":[["table-scan","","156µs",3],["filter","u = 3","",0]],"elapsed_ns":N,"row_count":2},{"message":"INSERT 1","affected":1,"elapsed_ns":N},{"error":"sql: no table \"ghosts\"","elapsed_ns":N}]}`,
	`{"results":[{"columns":["avg(u)","sum(c)","min(s)"],"rows":[[1.5,6,"row-0"]],"elapsed_ns":N,"row_count":1}]}`,
	`{"error":"server: bad JSON request: invalid character 'n' looking for beginning of object key string"}`,
	`{"error":"sql: expected a statement keyword, got \"SELEKT\" (at offset 0)"}`,
	`{}`,
	`{"error":"server: SET wire_chunk_rows takes a non-negative row count"}`,
	`{"results":[{"message":"SET wire_chunk_rows = 7"}]}`,
	`{"chunk":{"stmt":0,"columns":["c","u","s"],"rows":[[3,3,"row-3"],[23,3,"row-23"],[43,3,"row-43"],[63,3,"row-63"],[83,3,"row-83"],[103,3,"row-103"],[123,3,"row-123"]]}}`,
	`{"chunk":{"stmt":0,"rows":[[143,3,"row-143"],[163,3,"row-163"],[183,3,"row-183"],[203,3,"row-203"],[223,3,"row-223"],[243,3,"row-243"],[263,3,"row-263"]]}}`,
	`{"chunk":{"stmt":0,"rows":[[283,3,"row-283"],[303,3,"row-303"],[323,3,"row-323"],[343,3,"row-343"],[363,3,"row-363"],[383,3,"row-383"],[403,3,"row-403"]]}}`,
	`{"chunk":{"stmt":0,"rows":[[423,3,"row-423"],[443,3,"row-443"],[463,3,"row-463"],[483,3,"row-483"]]}}`,
	`{"chunk":{"stmt":1,"columns":["s"],"rows":[["row-499"],["row-498"],["row-497"],["row-496"],["row-495"],["row-494"],["row-493"]]}}`,
	`{"chunk":{"stmt":1,"rows":[["row-492"],["row-491"],["row-490"]]}}`,
	`{"chunk":{"stmt":2,"columns":["u","count(*)","avg(c)"],"rows":[[0,25,240],[1,25,241],[2,25,242],[3,25,243],[4,25,244]]}}`,
	`{"chunk":{"stmt":4,"columns":["cm","columns","size_bytes","keys","pairs","c_per_u","stats_bytes"],"rows":[["cm_u","u",620,20,40,2,15605]]}}`,
	`{"chunk":{"stmt":5,"columns":["method","uses","est_cost","decoded_cols"],"rows":[["table-scan","","156µs",3],["filter","u = 3","",0]]}}`,
	`{"done":{"results":[{"columns":["c","u","s"],"elapsed_ns":N,"row_count":25,"chunks":4},{"columns":["s"],"elapsed_ns":N,"row_count":10,"chunks":2},{"columns":["u","count(*)","avg(c)"],"elapsed_ns":N,"row_count":5,"chunks":1},{"columns":["c","u","s"],"elapsed_ns":N},{"columns":["cm","columns","size_bytes","keys","pairs","c_per_u","stats_bytes"],"elapsed_ns":N,"row_count":1,"chunks":1},{"columns":["method","uses","est_cost","decoded_cols"],"elapsed_ns":N,"row_count":2,"chunks":1},{"message":"INSERT 1","affected":1,"elapsed_ns":N},{"error":"sql: no table \"ghosts\"","elapsed_ns":N}]}}`,
	`{"done":{"error":"server: bad JSON request: invalid character 'n' looking for beginning of object key string"}}`,
	`{"done":{"error":"sql: expected a statement keyword, got \"SELEKT\" (at offset 0)"}}`,
	`{"done":{}}`,
	`{"results":[{"message":"SET wire_chunk_rows = 0"}]}`,
	`{"results":[{"columns":["count(*)"],"rows":[[2]],"elapsed_ns":N,"row_count":1}]}`,
}

// TestStreamGoldenWireBytes pins the bytes on the socket, buffered and
// chunked, to literals captured from the pre-responder encoder: field
// order, omitted fields, escapes, float formatting, frame boundaries
// and the one-line replies (AUTH, SET, bad JSON, parse errors).
func TestStreamGoldenWireBytes(t *testing.T) {
	got := goldenSession(t)
	for i := 0; i < len(got) || i < len(wireGolden); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wireGolden) {
			w = wireGolden[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %s\n want %s", i, g, w)
		}
	}
}
