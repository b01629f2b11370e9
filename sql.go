package repro

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/plan"
	sqlfe "repro/internal/sql"
)

// This file is the top of the SQL front-end: ExecScriptStreamCtx
// (stream.go) parses a script with internal/sql and binds each statement
// against the live catalog, which resolves its names once. A SELECT,
// UPDATE or DELETE binds straight into the plan layer's Spec: SELECT and
// EXPLAIN [ANALYZE] hand it to the read statement SelectSpec and
// ExplainSpec run (runspec.go readStmt), UPDATE and DELETE to the writer
// statement UpdateCtx and DeleteCtx run (writeStmt). INSERT runs
// Insert's statement, and DDL, ADVISE, SHOW SOFT FDS and COMMIT run
// what CreateTable, CreateIndex, CreateCM, Advise, DiscoverFDs and
// Commit do past their name resolution. Every SQL statement therefore
// has exactly the semantics of the equivalent native call — the
// equivalence tests in sql_test.go assert this statement form by
// statement form, and TestSQLLowersLikeQuerySpec that both binders
// resolve a statement alike. Scripts run statements in order, each
// measured alone; ExecScriptCtx is that loop with a sink that collects
// the rows, and Exec runs one statement.

// Result is the outcome of one SQL statement. Row-producing statements
// (SELECT, EXPLAIN, ADVISE, SHOW) fill Columns and Rows; mutating
// statements fill Affected and Message.
type Result struct {
	Columns  []string
	Rows     []Row
	Message  string
	Affected int
	Plan     *PlanInfo // EXPLAIN only
}

// ScriptResult pairs one statement of a script with its outcome and
// its execution measurements (the wire protocol and the server's
// slow-query log report them).
type ScriptResult struct {
	Res *Result
	Err error
	// SQL is the statement's verbatim source text, recovered from the
	// parser's token spans.
	SQL string
	// Rows is the number of result rows (mutating statements report 0
	// here; their row count is Res.Affected).
	Rows int
	// PagesRead is the engine-wide disk page-read delta across the
	// statement — exact when the script runs alone, approximate under
	// concurrent load.
	PagesRead uint64
	// Elapsed is the statement's wall time.
	Elapsed time.Duration
}

// Kind returns the value's dynamic kind.
func (v Value) Kind() Kind { return v.v.K }

// catalogDB adapts DB to the binder's Catalog interface.
type catalogDB struct{ db *DB }

// TableMeta implements sqlfe.Catalog over the live table map.
func (c catalogDB) TableMeta(name string) (sqlfe.TableMeta, bool) {
	t := c.db.Table(name)
	if t == nil {
		return sqlfe.TableMeta{}, false
	}
	sch := t.inner.Schema()
	tm := sqlfe.TableMeta{Name: name, Cols: make([]sqlfe.ColMeta, len(sch.Cols))}
	for i, col := range sch.Cols {
		tm.Cols[i] = sqlfe.ColMeta{Name: col.Name, Kind: col.Kind}
	}
	return tm, true
}

// Exec parses and executes one SQL statement, collecting its result
// rows. It runs through the script executor's per-statement step with no
// context of its own; the configured statement timeout still applies.
func (db *DB) Exec(stmt string) (*Result, error) {
	parsed, err := sqlfe.Parse(stmt)
	if err != nil {
		return nil, err
	}
	var rows []Row
	sr := db.streamStmt(nil, parsed, 0, RowStreamer{Row: func(_ int, row Row) bool {
		rows = append(rows, row)
		return true
	}})
	if sr.Res != nil {
		sr.Res.Rows = rows
	}
	return sr.Res, sr.Err
}

// ExecScriptCtx parses a ';'-separated script and executes its
// statements in order, each reporting its own measurements, under a
// context shared by every statement: cancelling ctx fails the running
// statement with the context's error; later statements still execute
// and fail the same way until the script ends. A parse error fails the
// whole script (nothing executes); execution errors are per-statement
// and do not stop later statements. A nil ctx never cancels; the
// configured statement timeout applies per statement either way. It is
// ExecScriptStreamCtx with a sink that collects each statement's rows
// into its Res.Rows.
func (db *DB) ExecScriptCtx(ctx context.Context, script string) ([]ScriptResult, error) {
	var rows [][]Row
	out, err := db.ExecScriptStreamCtx(ctx, script, RowStreamer{Row: func(stmt int, row Row) bool {
		for len(rows) <= stmt {
			rows = append(rows, nil)
		}
		rows[stmt] = append(rows[stmt], row)
		return true
	}})
	for i, r := range rows {
		if out[i].Res != nil {
			out[i].Res.Rows = r
		}
	}
	return out, err
}

// sqlTable resolves a statement's target table.
func (db *DB) sqlTable(name string) (*Table, error) {
	t := db.Table(name)
	if t == nil {
		return nil, fmt.Errorf("sql: no table %q", name)
	}
	return t, nil
}

// execStmt executes one statement other than a SELECT, which streamStmt
// runs itself, and returns its result with any rows buffered.
func (db *DB) execStmt(ctx context.Context, stmt sqlfe.Stmt) (*Result, error) {
	cat := catalogDB{db}
	switch s := stmt.(type) {
	case *sqlfe.InsertStmt:
		return db.execInsert(ctx, cat, s)
	case *sqlfe.DeleteStmt:
		return db.execDelete(ctx, cat, s)
	case *sqlfe.UpdateStmt:
		return db.execUpdate(ctx, cat, s, runPlain)
	case *sqlfe.CreateTableStmt:
		return db.execCreateTable(cat, s)
	case *sqlfe.CreateIndexStmt:
		return db.execCreateIndex(cat, s)
	case *sqlfe.CreateCMStmt:
		return db.execCreateCM(cat, s)
	case *sqlfe.ExplainStmt:
		return db.execExplain(ctx, cat, s)
	case *sqlfe.AdviseStmt:
		return db.execAdvise(cat, s)
	case *sqlfe.ShowStmt:
		return db.execShow(s)
	case *sqlfe.SetStmt:
		return db.execSet(s)
	case *sqlfe.CommitStmt:
		return db.execCommit(s)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

// execSet applies a SET statement. The engine's only setting is
// statement_timeout, in milliseconds (0 disables), mirroring
// DB.SetStatementTimeout; wire_chunk_rows is a server session setting
// that the wire layer intercepts before statements reach the engine,
// so the error below names it for clients talking to the engine
// directly.
func (db *DB) execSet(s *sqlfe.SetStmt) (*Result, error) {
	switch s.Name {
	case "statement_timeout":
		if s.Value < 0 {
			return nil, fmt.Errorf("sql: SET statement_timeout takes a non-negative millisecond count")
		}
		db.SetStatementTimeout(time.Duration(s.Value) * time.Millisecond)
		return &Result{Message: fmt.Sprintf("SET statement_timeout = %d", s.Value)}, nil
	default:
		return nil, fmt.Errorf("sql: unknown setting %q (supported: statement_timeout; wire_chunk_rows is a server session setting)", s.Name)
	}
}

// execInsert lowers INSERT onto the statement Table.Insert runs — one
// writer statement for all of its rows, so a failure at any row leaves
// none of them — and LOAD onto Table.Load. A rejected row's error names
// its 1-based position.
func (db *DB) execInsert(ctx context.Context, cat sqlfe.Catalog, s *sqlfe.InsertStmt) (*Result, error) {
	b, err := sqlfe.BindInsert(cat, s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(b.Table)
	if err != nil {
		return nil, err
	}
	verb := "INSERT"
	if s.Load {
		verb = "LOAD"
		err = tbl.inner.Load(b.Rows)
	} else {
		err = tbl.insertRows(ctx, b.Rows)
	}
	if err != nil {
		return nil, err
	}
	return &Result{
		Affected: len(b.Rows),
		Message:  fmt.Sprintf("%s %d", verb, len(b.Rows)),
	}, nil
}

func (db *DB) execDelete(ctx context.Context, cat sqlfe.Catalog, s *sqlfe.DeleteStmt) (*Result, error) {
	b, err := sqlfe.BindDelete(cat, s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(b.Table)
	if err != nil {
		return nil, err
	}
	n, _, err := tbl.writeStmt(ctx, true, b.Spec, nil, runPlain)
	if err != nil {
		return nil, err
	}
	return &Result{Affected: int(n), Message: fmt.Sprintf("DELETE %d", n)}, nil
}

// execUpdate runs a bound UPDATE through the compiled update path
// DB.UpdateCtx uses, carrying the full WHERE disjunction through so
// UPDATE ... WHERE a OR b plans its access per disjunct like a SELECT.
// EXPLAIN UPDATE (explainOnly) only compiles it; EXPLAIN ANALYZE UPDATE
// (runAnalyzed) executes it — the rows really change, and Affected
// reports how many.
func (db *DB) execUpdate(ctx context.Context, cat sqlfe.Catalog, s *sqlfe.UpdateStmt, mode stmtMode) (*Result, error) {
	b, err := sqlfe.BindUpdate(cat, s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(b.Table)
	if err != nil {
		return nil, err
	}
	if mode == explainOnly {
		ctx = nil
	}
	n, info, err := tbl.writeStmt(ctx, false, b.Spec, b.Sets, mode)
	if err != nil {
		return nil, err
	}
	switch mode {
	case explainOnly:
		return explainResult(&info), nil
	case runAnalyzed:
		res := analyzeResult(&info)
		res.Affected = int(n)
		return res, nil
	}
	return &Result{Affected: int(n), Message: fmt.Sprintf("UPDATE %d", n)}, nil
}

func (db *DB) execCreateTable(cat sqlfe.Catalog, s *sqlfe.CreateTableStmt) (*Result, error) {
	if err := sqlfe.BindCreateTable(cat, s); err != nil {
		return nil, err
	}
	spec := TableSpec{
		Name:         s.Name,
		ClusteredBy:  s.ClusteredBy,
		BucketPages:  s.BucketPages,
		BucketTuples: s.BucketTuples,
	}
	for _, c := range s.Cols {
		spec.Columns = append(spec.Columns, Column{Name: c.Name, Kind: c.Kind})
	}
	if _, err := db.CreateTable(spec); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("CREATE TABLE %s", s.Name)}, nil
}

func (db *DB) execCreateIndex(cat sqlfe.Catalog, s *sqlfe.CreateIndexStmt) (*Result, error) {
	idx, err := sqlfe.BindCreateIndex(cat, s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(s.Table)
	if err != nil {
		return nil, err
	}
	if err := tbl.createIndex(s.Name, idx); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("CREATE INDEX %s", s.Name)}, nil
}

func (db *DB) execCreateCM(cat sqlfe.Catalog, s *sqlfe.CreateCMStmt) (*Result, error) {
	idx, err := sqlfe.BindCreateCM(cat, s)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(s.Table)
	if err != nil {
		return nil, err
	}
	cols := make([]CMColumn, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = CMColumn{Name: c.Name, Level: c.Level, Width: c.Width, Prefix: c.Prefix}
	}
	if err := tbl.createCM(s.Name, cols, idx); err != nil {
		return nil, err
	}
	return &Result{Message: fmt.Sprintf("CREATE CORRELATION MAP %s", s.Name)}, nil
}

// execExplain handles EXPLAIN [ANALYZE]: the bound statement's plan,
// compiled only, or executed with its actuals measured.
func (db *DB) execExplain(ctx context.Context, cat sqlfe.Catalog, s *sqlfe.ExplainStmt) (*Result, error) {
	mode := explainOnly
	if s.Analyze {
		mode = runAnalyzed
	}
	if s.Upd != nil {
		return db.execUpdate(ctx, cat, s.Upd, mode)
	}
	b, err := sqlfe.BindSelect(cat, s.Sel)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(b.Table)
	if err != nil {
		return nil, err
	}
	if s.Analyze {
		info, err := tbl.analyze(ctx, b.Spec)
		if err != nil {
			return nil, err
		}
		return analyzeResult(&info), nil
	}
	info, err := tbl.readStmt(nil, b.Spec, 0, explainOnly, plan.Sink{})
	if err != nil {
		return nil, err
	}
	return explainResult(&info), nil
}

// explainResult renders a compiled plan for EXPLAIN. One row per plan
// node, bottom-up. The first (access) row keeps the legacy
// method/uses/est_cost/decoded_cols shape — a union node puts "union"
// in the method column and the per-disjunct plans in uses, a cm-agg
// node puts "cm-agg" there with its statistics/sweep summary; the
// remaining rows carry each operator's kind and expressions.
func explainResult(info *PlanInfo) *Result {
	res := &Result{
		Columns: []string{"method", "uses", "est_cost", "decoded_cols"},
		Plan:    info,
	}
	for i, n := range info.Nodes {
		if i == 0 {
			method, uses := info.Method.String(), info.Uses
			if n.Kind == "union" || n.Kind == "cm-agg" {
				method, uses = n.Kind, n.Detail
			}
			res.Rows = append(res.Rows, Row{
				StringVal(method),
				StringVal(uses),
				StringVal(info.EstimatedCost.String()),
				IntVal(int64(info.DecodedCols)),
			})
			continue
		}
		res.Rows = append(res.Rows, Row{
			StringVal(n.Kind),
			StringVal(n.Detail),
			StringVal(""),
			IntVal(0),
		})
	}
	return res
}

// analyzeResult renders an analyzed plan for EXPLAIN ANALYZE: one row
// per operator, bottom-up, the cost model's estimate beside the
// measured work — the paper's estimated-vs-measured comparison
// (Figure 6), live. actual_pages is the disk page-read delta
// attributed to the node (the access node carries the run's I/O; an
// index-only cm-agg answer shows 0); heap-page visits, tuples
// examined and buffer hits total in the summary message.
func analyzeResult(info *PlanInfo) *Result {
	res := &Result{
		Columns: []string{"node", "detail", "est_cost", "actual_rows", "actual_pages", "actual_time"},
		Plan:    info,
	}
	for _, n := range info.Nodes {
		est := ""
		if n.EstCost > 0 {
			est = n.EstCost.String()
		}
		var rows, pages int64
		actualTime := ""
		if n.Actual != nil {
			rows = n.Actual.Rows
			pages = int64(n.Actual.DiskReads)
			actualTime = n.Actual.Elapsed.String()
		}
		res.Rows = append(res.Rows, Row{
			StringVal(n.Kind),
			StringVal(n.Detail),
			StringVal(est),
			IntVal(rows),
			IntVal(pages),
			StringVal(actualTime),
		})
	}
	if a := info.Analyzed; a != nil {
		res.Message = fmt.Sprintf(
			"analyzed: %d rows in %s; %d tuples examined, %d heap pages, %d disk reads, %d buffer hits",
			a.Rows, a.Elapsed, a.TuplesExamined, a.HeapPages, a.DiskReads, a.BufferHits)
		if access := info.Nodes[0].Actual; access != nil {
			if access.FalsePositivePages > 0 {
				res.Message += fmt.Sprintf(", %d false-positive pages", access.FalsePositivePages)
			}
			if access.Chunks > 1 {
				res.Message += fmt.Sprintf(", %d chunks", access.Chunks)
			}
		}
	}
	return res
}

func (db *DB) execAdvise(cat sqlfe.Catalog, s *sqlfe.AdviseStmt) (*Result, error) {
	b, err := sqlfe.BindSelect(cat, s.Sel)
	if err != nil {
		return nil, err
	}
	tbl, err := db.sqlTable(b.Table)
	if err != nil {
		return nil, err
	}
	if len(b.Spec.Disjuncts) != 1 {
		return nil, fmt.Errorf("sql: a conjunctive WHERE is required here (no OR)")
	}
	recs, err := tbl.advise(s.MaxSlowdownPct, b.Spec.Disjuncts[0])
	if err != nil {
		return nil, err
	}
	res := &Result{
		Columns: []string{"design", "size_bytes", "slowdown_pct", "est_runtime", "est_btree_bytes"},
		Message: fmt.Sprintf("%d designs within %.4g%% of the B+Tree estimate", len(recs), s.MaxSlowdownPct),
	}
	for _, r := range recs {
		res.Rows = append(res.Rows, Row{
			StringVal(r.Design),
			IntVal(r.SizeBytes),
			FloatVal(r.SlowdownPct),
			StringVal(r.EstRuntime.String()),
			IntVal(r.EstBTreeSz),
		})
	}
	return res, nil
}

func (db *DB) execShow(s *sqlfe.ShowStmt) (*Result, error) {
	switch s.What {
	case sqlfe.ShowTables:
		res := &Result{Columns: []string{"table", "rows", "heap_pages", "indexes", "cms"}}
		for _, t := range db.allTables() {
			res.Rows = append(res.Rows, Row{
				StringVal(t.Name()),
				IntVal(t.RowCount()),
				IntVal(t.HeapPages()),
				IntVal(int64(len(t.Indexes()))),
				IntVal(int64(len(t.CMs()))),
			})
		}
		return res, nil
	case sqlfe.ShowIndexes:
		tbl, err := db.sqlTable(s.Table)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"index", "columns", "size_bytes", "entries", "height"}}
		for _, ix := range tbl.Indexes() {
			res.Rows = append(res.Rows, Row{
				StringVal(ix.Name),
				StringVal(joinCols(ix.Columns)),
				IntVal(ix.SizeBytes),
				IntVal(ix.Entries),
				IntVal(int64(ix.Height)),
			})
		}
		return res, nil
	case sqlfe.ShowCMs:
		tbl, err := db.sqlTable(s.Table)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"cm", "columns", "size_bytes", "keys", "pairs", "c_per_u", "stats_bytes"}}
		for _, cm := range tbl.CMs() {
			res.Rows = append(res.Rows, Row{
				StringVal(cm.Name),
				StringVal(joinCols(cm.Columns)),
				IntVal(cm.SizeBytes),
				IntVal(int64(cm.Keys)),
				IntVal(cm.Pairs),
				FloatVal(cm.CPerU),
				IntVal(cm.StatsBytes),
			})
		}
		return res, nil
	case sqlfe.ShowStats:
		st := db.Stats()
		return &Result{
			Columns: []string{"reads", "writes", "seeks", "elapsed", "pool_hits", "pool_misses"},
			Rows: []Row{{
				IntVal(int64(st.Reads)),
				IntVal(int64(st.Writes)),
				IntVal(int64(st.Seeks)),
				StringVal(st.Elapsed.String()),
				IntVal(int64(st.PoolHits)),
				IntVal(int64(st.PoolMisses)),
			}},
		}, nil
	case sqlfe.ShowMetrics:
		res := &Result{Columns: []string{"metric", "value"}}
		for _, m := range db.Metrics(s.Like) {
			res.Rows = append(res.Rows, Row{StringVal(m.Name), IntVal(m.Value)})
		}
		return res, nil
	case sqlfe.ShowSoftFDs:
		tbl, err := db.sqlTable(s.Table)
		if err != nil {
			return nil, err
		}
		fds, err := tbl.DiscoverFDs(s.MinStrength, s.Pairs)
		if err != nil {
			return nil, err
		}
		res := &Result{Columns: []string{"determinant", "dependent", "strength"}}
		for _, fd := range fds {
			res.Rows = append(res.Rows, Row{
				StringVal(joinCols(fd.Determinant)),
				StringVal(fd.Dependent),
				FloatVal(fd.Strength),
			})
		}
		return res, nil
	default:
		return nil, fmt.Errorf("sql: unsupported SHOW form")
	}
}

func (db *DB) execCommit(s *sqlfe.CommitStmt) (*Result, error) {
	if s.Table != "" {
		tbl, err := db.sqlTable(s.Table)
		if err != nil {
			return nil, err
		}
		if err := tbl.Commit(); err != nil {
			return nil, err
		}
		return &Result{Message: fmt.Sprintf("COMMIT %s", s.Table)}, nil
	}
	tables := db.allTables() // already in name order
	for _, t := range tables {
		if err := t.Commit(); err != nil {
			return nil, err
		}
	}
	return &Result{Message: fmt.Sprintf("COMMIT %d tables", len(tables))}, nil
}

// joinCols renders a column list for SHOW output.
func joinCols(cols []string) string { return strings.Join(cols, ",") }
