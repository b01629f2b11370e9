package sql

import (
	"fmt"

	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/value"
)

// The binder resolves parsed statements against a Catalog, and resolves
// a SELECT, UPDATE or DELETE straight into the plan layer's vocabulary —
// a plan.Spec of executor predicates, aggregates and orderings over
// column indices and output positions, and exec.SetClauses — so a SQL
// statement's names are resolved once, here: literals become typed values
// coerced to their column's kind, and semantic errors (unknown
// tables/columns, kind mismatches, inapplicable bucketing options)
// surface with statement context, before anything touches the engine.

// ColMeta describes one column to the binder.
type ColMeta struct {
	Name string
	Kind value.Kind
}

// TableMeta describes one table to the binder.
type TableMeta struct {
	Name string
	Cols []ColMeta
}

// colIndex resolves a column name, or -1.
func (t TableMeta) colIndex(name string) int {
	for i, c := range t.Cols {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Catalog supplies table metadata; the facade's DB implements it.
type Catalog interface {
	// TableMeta returns the schema of the named table, ok=false when the
	// table does not exist.
	TableMeta(name string) (TableMeta, bool)
}

// BoundSelect is a SELECT resolved against the catalog: the plan layer's
// Spec, which is every column an index and every literal a typed value,
// plus what a plan does not carry — the table and the result header.
//
// Aggregate selects evaluate in canonical output shape — the GROUP BY
// columns in order followed by the aggregates in order — and OutPerm maps
// each SELECT-list position onto that canonical row, restoring the
// written order (the aggregates may carry hidden trailing entries that
// HAVING or ORDER BY needs but the SELECT list omits).
type BoundSelect struct {
	Table   string
	Cols    []string // result header, SELECT-list order
	OutPerm []int    // aggregate selects: SELECT position -> canonical position
	Spec    plan.Spec
}

// BoundInsert is an INSERT with rows coerced to the table schema.
type BoundInsert struct {
	Table string
	Rows  []value.Row
}

// BoundDelete is a DELETE resolved against the catalog: its WHERE
// conjunction is the Spec's one disjunct.
type BoundDelete struct {
	Table string
	Spec  plan.Spec
}

// BoundUpdate is an UPDATE resolved against the catalog: its WHERE clause
// is the Spec's disjuncts, bound like a SELECT's, and Sets its
// assignments, each value coerced to its column's kind.
type BoundUpdate struct {
	Table string
	Spec  plan.Spec
	Sets  []exec.SetClause
}

// lookupTable fetches table metadata or fails with a uniform error.
func lookupTable(cat Catalog, name string) (TableMeta, error) {
	tm, ok := cat.TableMeta(name)
	if !ok {
		return TableMeta{}, fmt.Errorf("sql: no table %q", name)
	}
	return tm, nil
}

// bindLit coerces a literal to a column kind. Integer literals widen to
// float columns; every other cross-kind use is an error.
func bindLit(l Lit, kind value.Kind, col string) (value.Value, error) {
	switch kind {
	case value.Int:
		if l.Kind == LitInt {
			return value.NewInt(l.Int), nil
		}
	case value.Float:
		switch l.Kind {
		case LitInt:
			return value.NewFloat(float64(l.Int)), nil
		case LitFloat:
			return value.NewFloat(l.Flt), nil
		}
	case value.String:
		if l.Kind == LitString {
			return value.NewString(l.Str), nil
		}
	}
	return value.Value{}, fmt.Errorf("sql: literal %s does not fit %s column %q", l, kind, col)
}

// bindDNF resolves a WHERE clause in disjunctive normal form into the
// plan's disjuncts, one conjunctive exec.Query each; no WHERE clause is
// one empty conjunction.
func bindDNF(tm TableMeta, dnf [][]Cond) ([]exec.Query, error) {
	if len(dnf) == 0 {
		return []exec.Query{{}}, nil
	}
	out := make([]exec.Query, len(dnf))
	for i, conj := range dnf {
		q, err := bindConds(tm, conj)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	return out, nil
}

// bindConds resolves a WHERE conjunction against a table.
func bindConds(tm TableMeta, conds []Cond) (exec.Query, error) {
	var q exec.Query
	if len(conds) > 0 {
		q.Preds = make([]exec.Pred, 0, len(conds))
	}
	for _, c := range conds {
		ci := tm.colIndex(c.Col)
		if ci < 0 {
			return exec.Query{}, fmt.Errorf("sql: table %q has no column %q", tm.Name, c.Col)
		}
		p, err := bindPred(ci, c.Op, c.Args, tm.Cols[ci].Kind, c.Col, "")
		if err != nil {
			return exec.Query{}, err
		}
		q.Preds = append(q.Preds, p)
	}
	return q, nil
}

// bindPred coerces a condition's literals to kind and builds its executor
// predicate over col — a column index for WHERE, a canonical output
// position for HAVING (clause prefixes its errors). name is the operand
// as the statement wrote it.
func bindPred(col int, op CondOp, args []Lit, kind value.Kind, name, clause string) (exec.Pred, error) {
	if op == CondIn {
		vals := make([]value.Value, len(args))
		for i, a := range args {
			v, err := bindLit(a, kind, name)
			if err != nil {
				return exec.Pred{}, err
			}
			vals[i] = v
		}
		return exec.In(col, vals...), nil
	}
	v, err := bindLit(args[0], kind, name)
	if err != nil {
		return exec.Pred{}, err
	}
	switch op {
	case CondEq:
		return exec.Eq(col, v), nil
	case CondNe:
		return exec.Ne(col, v), nil
	case CondLt:
		return exec.Lt(col, v), nil
	case CondLe:
		return exec.Le(col, v), nil
	case CondGt:
		return exec.Gt(col, v), nil
	case CondGe:
		return exec.Ge(col, v), nil
	}
	hi, err := bindLit(args[1], kind, name) // CondBetween
	if err != nil {
		return exec.Pred{}, err
	}
	if v.Compare(hi) > 0 {
		return exec.Pred{}, fmt.Errorf("sql: %sBETWEEN bounds on %q are inverted (%s > %s)", clause, name, args[0], args[1])
	}
	return exec.Between(col, v, hi), nil
}

// BindSelect resolves a SELECT statement: columns to indices, the WHERE
// DNF to executor predicates over typed values, aggregates/GROUP BY/ORDER
// BY validated against the schema (SUM/AVG need numeric columns, plain
// SELECT-list columns of a grouped query must be grouped, ORDER BY keys
// must be resolvable — table columns for plain selects, output columns
// for aggregate ones). LIMIT 0 binds to the Spec's negative Limit: the
// statement, executed or explained, runs nothing.
func BindSelect(cat Catalog, sel *SelectStmt) (*BoundSelect, error) {
	tm, err := lookupTable(cat, sel.Table)
	if err != nil {
		return nil, err
	}
	b := &BoundSelect{Table: sel.Table, Spec: plan.Spec{Limit: max(sel.Limit, 0)}}
	if sel.Limit == 0 {
		b.Spec.Limit = -1
	}
	b.Spec.Disjuncts, err = bindDNF(tm, sel.Where)
	if err != nil {
		return nil, err
	}

	hasAgg := false
	for _, e := range sel.Exprs {
		if e.Fn != AggNone {
			hasAgg = true
		}
	}
	if sel.Distinct {
		// DISTINCT is sugar for GROUP BY over the projected columns: the
		// binder rewrites it here and the grouped executor (which already
		// returns one row per distinct key, sorted) does the rest.
		if hasAgg {
			return nil, fmt.Errorf("sql: DISTINCT does not combine with aggregates (they already collapse rows)")
		}
		if len(sel.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: DISTINCT with GROUP BY is redundant; use one or the other")
		}
		ds := *sel
		if ds.Exprs == nil {
			for _, c := range tm.Cols {
				ds.Exprs = append(ds.Exprs, SelExpr{Col: c.Name})
			}
		}
		seen := map[string]bool{}
		for _, e := range ds.Exprs {
			if !seen[e.Col] {
				seen[e.Col] = true
				ds.GroupBy = append(ds.GroupBy, e.Col)
			}
		}
		return bindAggSelect(tm, &ds, b)
	}
	if hasAgg || len(sel.GroupBy) > 0 {
		return bindAggSelect(tm, sel, b)
	}
	if len(sel.Having) > 0 {
		return nil, fmt.Errorf("sql: HAVING needs aggregates or GROUP BY")
	}

	if sel.Exprs == nil {
		// SELECT * leaves Proj nil: every column, in schema order.
		b.Cols = make([]string, len(tm.Cols))
		for i, c := range tm.Cols {
			b.Cols[i] = c.Name
		}
	} else {
		b.Cols = make([]string, len(sel.Exprs))
		b.Spec.Proj = make([]int, len(sel.Exprs))
		for i, e := range sel.Exprs {
			ci := tm.colIndex(e.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, e.Col)
			}
			b.Spec.Proj[i], b.Cols[i] = ci, e.Col
		}
	}
	for _, o := range sel.OrderBy {
		if o.Expr.Fn != AggNone {
			return nil, fmt.Errorf("sql: ORDER BY %s needs an aggregate or grouped query", o.Expr.Name())
		}
		ci := tm.colIndex(o.Expr.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, o.Expr.Col)
		}
		b.Spec.OrderBy = append(b.Spec.OrderBy, plan.Order{Col: ci, Desc: o.Desc})
	}
	return b, nil
}

// aggKinds maps the dialect's aggregate functions onto the executor's.
var aggKinds = [...]exec.AggKind{
	AggCount: exec.AggCount,
	AggSum:   exec.AggSum,
	AggAvg:   exec.AggAvg,
	AggMin:   exec.AggMin,
	AggMax:   exec.AggMax,
}

// bindAggSelect resolves the aggregate/grouped form of a SELECT. GROUP BY
// columns, HAVING operands and ORDER BY keys resolve to canonical output
// positions.
func bindAggSelect(tm TableMeta, sel *SelectStmt, b *BoundSelect) (*BoundSelect, error) {
	if sel.Exprs == nil {
		return nil, fmt.Errorf("sql: SELECT * cannot be grouped or aggregated")
	}
	spec := &b.Spec
	grouped := map[string]int{} // group column name -> canonical position
	for _, name := range sel.GroupBy {
		ci := tm.colIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("sql: GROUP BY: table %q has no column %q", tm.Name, name)
		}
		if _, dup := grouped[name]; dup {
			return nil, fmt.Errorf("sql: column %q named twice in GROUP BY", name)
		}
		grouped[name] = len(spec.GroupBy)
		spec.GroupBy = append(spec.GroupBy, ci)
	}

	// bindAgg validates one aggregate expression and appends it to Aggs
	// (deduplicating identical expressions), returning its canonical
	// output position.
	bindAgg := func(e SelExpr) (int, error) {
		a := exec.AggSpec{Kind: aggKinds[e.Fn], Col: -1}
		if !e.Star {
			ci := tm.colIndex(e.Col)
			if ci < 0 {
				return 0, fmt.Errorf("sql: table %q has no column %q", tm.Name, e.Col)
			}
			kind := tm.Cols[ci].Kind
			if (e.Fn == AggSum || e.Fn == AggAvg) && kind == value.String {
				return 0, fmt.Errorf("sql: %s does not apply to string column %q", e.Name(), e.Col)
			}
			a.Col = ci
		} else if e.Fn != AggCount {
			return 0, fmt.Errorf("sql: %s(*) is not valid (only COUNT takes *)", e.Fn)
		}
		for i, have := range spec.Aggs {
			if have == a {
				return len(spec.GroupBy) + i, nil
			}
		}
		spec.Aggs = append(spec.Aggs, a)
		return len(spec.GroupBy) + len(spec.Aggs) - 1, nil
	}

	for _, e := range sel.Exprs {
		if e.Fn == AggNone {
			pos, ok := grouped[e.Col]
			if !ok {
				if tm.colIndex(e.Col) < 0 {
					return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, e.Col)
				}
				return nil, fmt.Errorf("sql: column %q must appear in GROUP BY or an aggregate", e.Col)
			}
			b.OutPerm = append(b.OutPerm, pos)
			b.Cols = append(b.Cols, e.Col)
			continue
		}
		pos, err := bindAgg(e)
		if err != nil {
			return nil, err
		}
		b.OutPerm = append(b.OutPerm, pos)
		b.Cols = append(b.Cols, e.Name())
	}

	// outPos resolves a HAVING operand or an ORDER BY key to its canonical
	// output position: a grouped column by name, an aggregate through
	// bindAgg — computed as a hidden trailing aggregate when the SELECT
	// list omits it, which OutPerm never points at, so it stays out of the
	// result.
	outPos := func(clause string, e SelExpr) (int, error) {
		if e.Fn != AggNone {
			return bindAgg(e)
		}
		pos, ok := grouped[e.Col]
		if !ok {
			return 0, fmt.Errorf("sql: %s %q: not a GROUP BY column of this aggregate query", clause, e.Col)
		}
		return pos, nil
	}
	// HAVING literals coerce to the kind of the output they compare with.
	for _, hc := range sel.Having {
		pos, err := outPos("HAVING", hc.Expr)
		if err != nil {
			return nil, err
		}
		p, err := bindPred(pos, hc.Op, hc.Args, outputKind(tm, hc.Expr), hc.Expr.Name(), "HAVING ")
		if err != nil {
			return nil, err
		}
		spec.Having = append(spec.Having, p)
	}
	for _, o := range sel.OrderBy {
		pos, err := outPos("ORDER BY", o.Expr)
		if err != nil {
			return nil, err
		}
		spec.OrderBy = append(spec.OrderBy, plan.Order{Col: pos, Desc: o.Desc})
	}
	return b, nil
}

// outputKind is the result kind of an output expression: COUNT is Int,
// AVG is Float, SUM/MIN/MAX and a grouped column follow the column.
func outputKind(tm TableMeta, e SelExpr) value.Kind {
	switch e.Fn {
	case AggCount:
		return value.Int
	case AggAvg:
		return value.Float
	default:
		if e.Star {
			return value.Int
		}
		return tm.Cols[tm.colIndex(e.Col)].Kind
	}
}

// BindInsert resolves an INSERT statement, reordering named-column rows
// into schema order. Named inserts must cover every column: the engine
// has no NULLs.
func BindInsert(cat Catalog, ins *InsertStmt) (*BoundInsert, error) {
	tm, err := lookupTable(cat, ins.Table)
	if err != nil {
		return nil, err
	}
	perm := make([]int, len(tm.Cols)) // schema position -> tuple position
	if ins.Cols == nil {
		for i := range perm {
			perm[i] = i
		}
	} else {
		if len(ins.Cols) != len(tm.Cols) {
			return nil, fmt.Errorf("sql: INSERT INTO %s names %d of %d columns (all columns are required)",
				tm.Name, len(ins.Cols), len(tm.Cols))
		}
		for i := range perm {
			perm[i] = -1
		}
		for pos, name := range ins.Cols {
			ci := tm.colIndex(name)
			if ci < 0 {
				return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, name)
			}
			if perm[ci] != -1 {
				return nil, fmt.Errorf("sql: column %q named twice in INSERT", name)
			}
			perm[ci] = pos
		}
	}
	b := &BoundInsert{Table: ins.Table}
	for _, tuple := range ins.Rows {
		if len(tuple) != len(tm.Cols) {
			return nil, fmt.Errorf("sql: INSERT tuple has %d values, table %s has %d columns",
				len(tuple), tm.Name, len(tm.Cols))
		}
		row := make(value.Row, len(tm.Cols))
		for ci := range tm.Cols {
			v, err := bindLit(tuple[perm[ci]], tm.Cols[ci].Kind, tm.Cols[ci].Name)
			if err != nil {
				return nil, err
			}
			row[ci] = v
		}
		b.Rows = append(b.Rows, row)
	}
	return b, nil
}

// BindDelete resolves a DELETE statement.
func BindDelete(cat Catalog, del *DeleteStmt) (*BoundDelete, error) {
	tm, err := lookupTable(cat, del.Table)
	if err != nil {
		return nil, err
	}
	q, err := bindConds(tm, del.Where)
	if err != nil {
		return nil, err
	}
	return &BoundDelete{Table: del.Table, Spec: plan.Spec{Disjuncts: []exec.Query{q}}}, nil
}

// BindUpdate resolves an UPDATE statement: assignment targets to column
// indices with their values coerced to the column kinds (duplicate
// targets rejected), and the WHERE clause bound like a SELECT's.
func BindUpdate(cat Catalog, up *UpdateStmt) (*BoundUpdate, error) {
	tm, err := lookupTable(cat, up.Table)
	if err != nil {
		return nil, err
	}
	b := &BoundUpdate{Table: up.Table, Sets: make([]exec.SetClause, 0, len(up.Sets))}
	seen := map[string]bool{}
	for _, s := range up.Sets {
		ci := tm.colIndex(s.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, s.Col)
		}
		if seen[s.Col] {
			return nil, fmt.Errorf("sql: column %q assigned twice in UPDATE", s.Col)
		}
		seen[s.Col] = true
		v, err := bindLit(s.Val, tm.Cols[ci].Kind, s.Col)
		if err != nil {
			return nil, err
		}
		b.Sets = append(b.Sets, exec.SetClause{Col: ci, Val: v})
	}
	b.Spec.Disjuncts, err = bindDNF(tm, up.Where)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// BindCreateTable checks a CREATE TABLE statement: fresh name, distinct
// columns, clustering columns present.
func BindCreateTable(cat Catalog, ct *CreateTableStmt) error {
	if _, ok := cat.TableMeta(ct.Name); ok {
		return fmt.Errorf("sql: table %q exists", ct.Name)
	}
	if len(ct.Cols) == 0 {
		return fmt.Errorf("sql: table %q needs at least one column", ct.Name)
	}
	seen := map[string]bool{}
	for _, c := range ct.Cols {
		if seen[c.Name] {
			return fmt.Errorf("sql: duplicate column %q in CREATE TABLE %s", c.Name, ct.Name)
		}
		seen[c.Name] = true
	}
	if len(ct.ClusteredBy) == 0 {
		return fmt.Errorf("sql: CREATE TABLE %s needs CLUSTERED BY", ct.Name)
	}
	for _, name := range ct.ClusteredBy {
		if !seen[name] {
			return fmt.Errorf("sql: clustering column %q is not a column of %s", name, ct.Name)
		}
	}
	return nil
}

// BindCreateIndex resolves a CREATE INDEX statement's columns to their
// indices.
func BindCreateIndex(cat Catalog, ci *CreateIndexStmt) ([]int, error) {
	tm, err := lookupTable(cat, ci.Table)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(ci.Cols))
	for i, col := range ci.Cols {
		if cols[i] = tm.colIndex(col); cols[i] < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, col)
		}
	}
	return cols, nil
}

// BindCreateCM resolves a CREATE CORRELATION MAP statement's columns to
// their indices, checking that bucketing options fit their column kinds
// (WIDTH needs a numeric column, PREFIX a string column).
func BindCreateCM(cat Catalog, cc *CreateCMStmt) ([]int, error) {
	tm, err := lookupTable(cat, cc.Table)
	if err != nil {
		return nil, err
	}
	cols := make([]int, len(cc.Cols))
	for i, col := range cc.Cols {
		if cols[i] = tm.colIndex(col.Name); cols[i] < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, col.Name)
		}
		kind := tm.Cols[cols[i]].Kind
		if col.Width > 0 && kind == value.String {
			return nil, fmt.Errorf("sql: WIDTH does not apply to string column %q (use PREFIX)", col.Name)
		}
		if col.Prefix > 0 && kind != value.String {
			return nil, fmt.Errorf("sql: PREFIX does not apply to %s column %q (use WIDTH)", kind, col.Name)
		}
	}
	return cols, nil
}
