package sql

import (
	"fmt"

	"repro/internal/value"
)

// The binder resolves parsed statements against a Catalog: column names
// become indices, literals become typed values coerced to their column's
// kind, and semantic errors (unknown tables/columns, kind mismatches,
// inapplicable bucketing options) surface here with statement context,
// before anything touches the engine.

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

// BoundCond is a Cond with its column resolved and literals typed. For
// CondBetween Vals is [lo, hi]; for CondIn it is the member list; every
// other operator carries one value.
type BoundCond struct {
	Col    string
	ColIdx int
	Op     CondOp
	Vals   []value.Value
}

// BoundAgg is one aggregate of a bound SELECT: the function and the
// resolved column (ColIdx -1 for COUNT(*)).
type BoundAgg struct {
	Fn     AggFn
	Col    string
	ColIdx int
}

// BoundOrder is one resolved ORDER BY key. For plain selects Name is a
// table column; for aggregate selects it is an output column — a
// GROUP BY column name or a canonical aggregate name (SelExpr.Name).
type BoundOrder struct {
	Name string
	Desc bool
}

// BoundHaving is one resolved HAVING conjunct: the output column it
// filters on (a GROUP BY column name or canonical aggregate name —
// aggregates the SELECT list omits are computed as hidden trailing
// entries, like ORDER BY keys) with literals coerced to that output's
// kind (COUNT and integer SUM are Int, AVG is Float, MIN/MAX and
// grouped columns follow the column).
type BoundHaving struct {
	Name string
	Op   CondOp
	Vals []value.Value
}

// BoundSelect is a SELECT resolved against the catalog.
//
// Aggregate selects (Aggs or GroupBy non-empty) evaluate in canonical
// output shape — the GROUP BY columns in GroupBy order followed by Aggs
// in order — and OutPerm maps each SELECT-list position onto that
// canonical row, restoring the written order (Aggs may carry hidden
// trailing entries that ORDER BY needs but the SELECT list omits).
type BoundSelect struct {
	Table string
	Proj  []int    // plain selects: projected column indices, SELECT-list order
	Cols  []string // result header, SELECT-list order
	Where [][]BoundCond
	Limit int // -1 means no limit

	Aggs       []BoundAgg
	GroupBy    []string // resolved GROUP BY column names
	GroupByIdx []int
	Having     []BoundHaving
	OrderBy    []BoundOrder
	OutPerm    []int // aggregate selects: SELECT position -> canonical position
}

// IsAggregate reports whether the SELECT computes aggregates or groups
// (GROUP BY without aggregates is a distinct-values query).
func (b *BoundSelect) IsAggregate() bool { return len(b.Aggs) > 0 || len(b.GroupBy) > 0 }

// BoundInsert is an INSERT with rows coerced to the table schema.
type BoundInsert struct {
	Table string
	Rows  []value.Row
}

// BoundDelete is a DELETE resolved against the catalog.
type BoundDelete struct {
	Table string
	Where []BoundCond
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

// bindDNF resolves a WHERE clause in disjunctive normal form.
func bindDNF(tm TableMeta, dnf [][]Cond) ([][]BoundCond, error) {
	if len(dnf) == 0 {
		return nil, nil
	}
	out := make([][]BoundCond, 0, len(dnf))
	for _, conj := range dnf {
		b, err := bindConds(tm, conj)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

// bindConds resolves a WHERE conjunction against a table.
func bindConds(tm TableMeta, conds []Cond) ([]BoundCond, error) {
	out := make([]BoundCond, 0, len(conds))
	for _, c := range conds {
		ci := tm.colIndex(c.Col)
		if ci < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, c.Col)
		}
		kind := tm.Cols[ci].Kind
		bc := BoundCond{Col: c.Col, ColIdx: ci, Op: c.Op}
		for _, a := range c.Args {
			v, err := bindLit(a, kind, c.Col)
			if err != nil {
				return nil, err
			}
			bc.Vals = append(bc.Vals, v)
		}
		if c.Op == CondBetween && bc.Vals[0].Compare(bc.Vals[1]) > 0 {
			return nil, fmt.Errorf("sql: BETWEEN bounds on %q are inverted (%s > %s)",
				c.Col, c.Args[0], c.Args[1])
		}
		out = append(out, bc)
	}
	return out, nil
}

// BindSelect resolves a SELECT statement: columns to indices, the WHERE
// DNF to typed conditions, aggregates/GROUP BY/ORDER BY validated
// against the schema (SUM/AVG need numeric columns, plain SELECT-list
// columns of a grouped query must be grouped, ORDER BY keys must be
// resolvable — table columns for plain selects, output columns for
// aggregate ones).
func BindSelect(cat Catalog, sel *SelectStmt) (*BoundSelect, error) {
	tm, err := lookupTable(cat, sel.Table)
	if err != nil {
		return nil, err
	}
	b := &BoundSelect{Table: sel.Table, Limit: sel.Limit}
	b.Where, err = bindDNF(tm, sel.Where)
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
		for i, c := range tm.Cols {
			b.Proj = append(b.Proj, i)
			b.Cols = append(b.Cols, c.Name)
		}
	} else {
		for _, e := range sel.Exprs {
			ci := tm.colIndex(e.Col)
			if ci < 0 {
				return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, e.Col)
			}
			b.Proj = append(b.Proj, ci)
			b.Cols = append(b.Cols, e.Col)
		}
	}
	for _, o := range sel.OrderBy {
		if o.Expr.Fn != AggNone {
			return nil, fmt.Errorf("sql: ORDER BY %s needs an aggregate or grouped query", o.Expr.Name())
		}
		if tm.colIndex(o.Expr.Col) < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", tm.Name, o.Expr.Col)
		}
		b.OrderBy = append(b.OrderBy, BoundOrder{Name: o.Expr.Col, Desc: o.Desc})
	}
	return b, nil
}

// bindAggSelect resolves the aggregate/grouped form of a SELECT.
func bindAggSelect(tm TableMeta, sel *SelectStmt, b *BoundSelect) (*BoundSelect, error) {
	if sel.Exprs == nil {
		return nil, fmt.Errorf("sql: SELECT * cannot be grouped or aggregated")
	}
	grouped := map[string]int{} // group column name -> canonical position
	for _, name := range sel.GroupBy {
		ci := tm.colIndex(name)
		if ci < 0 {
			return nil, fmt.Errorf("sql: GROUP BY: table %q has no column %q", tm.Name, name)
		}
		if _, dup := grouped[name]; dup {
			return nil, fmt.Errorf("sql: column %q named twice in GROUP BY", name)
		}
		grouped[name] = len(b.GroupBy)
		b.GroupBy = append(b.GroupBy, name)
		b.GroupByIdx = append(b.GroupByIdx, ci)
	}

	// bindAgg validates one aggregate expression and appends it to Aggs
	// (deduplicating identical expressions), returning its canonical
	// output position.
	bindAgg := func(e SelExpr) (int, error) {
		a := BoundAgg{Fn: e.Fn, Col: e.Col, ColIdx: -1}
		if !e.Star {
			ci := tm.colIndex(e.Col)
			if ci < 0 {
				return 0, fmt.Errorf("sql: table %q has no column %q", tm.Name, e.Col)
			}
			kind := tm.Cols[ci].Kind
			if (e.Fn == AggSum || e.Fn == AggAvg) && kind == value.String {
				return 0, fmt.Errorf("sql: %s does not apply to string column %q", e.Name(), e.Col)
			}
			a.ColIdx = ci
		} else if e.Fn != AggCount {
			return 0, fmt.Errorf("sql: %s(*) is not valid (only COUNT takes *)", e.Fn)
		}
		for i, have := range b.Aggs {
			if have == a {
				return len(b.GroupBy) + i, nil
			}
		}
		b.Aggs = append(b.Aggs, a)
		return len(b.GroupBy) + len(b.Aggs) - 1, nil
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

	// HAVING conjuncts resolve like ORDER BY keys: grouped columns by
	// name, aggregates by canonical name (computed as hidden trailing
	// aggregates when the SELECT list omits them), with literals coerced
	// to the referenced output's kind.
	for _, hc := range sel.Having {
		var kind value.Kind
		if hc.Expr.Fn == AggNone {
			if _, ok := grouped[hc.Expr.Col]; !ok {
				return nil, fmt.Errorf("sql: HAVING %q: not a GROUP BY column of this aggregate query", hc.Expr.Col)
			}
			kind = tm.Cols[tm.colIndex(hc.Expr.Col)].Kind
		} else {
			if _, err := bindAgg(hc.Expr); err != nil {
				return nil, err
			}
			kind = aggOutputKind(tm, hc.Expr)
		}
		name := hc.Expr.Name()
		bh := BoundHaving{Name: name, Op: hc.Op}
		for _, a := range hc.Args {
			v, err := bindLit(a, kind, name)
			if err != nil {
				return nil, err
			}
			bh.Vals = append(bh.Vals, v)
		}
		if hc.Op == CondBetween && bh.Vals[0].Compare(bh.Vals[1]) > 0 {
			return nil, fmt.Errorf("sql: HAVING BETWEEN bounds on %q are inverted (%s > %s)",
				name, hc.Args[0], hc.Args[1])
		}
		b.Having = append(b.Having, bh)
	}

	for _, o := range sel.OrderBy {
		if o.Expr.Fn == AggNone {
			if _, ok := grouped[o.Expr.Col]; !ok {
				return nil, fmt.Errorf("sql: ORDER BY %q: not a GROUP BY column of this aggregate query", o.Expr.Col)
			}
			b.OrderBy = append(b.OrderBy, BoundOrder{Name: o.Expr.Col, Desc: o.Desc})
			continue
		}
		// An aggregate ORDER BY key the SELECT list omits is computed as
		// a hidden trailing aggregate; OutPerm never points at it, so it
		// stays out of the result.
		if _, err := bindAgg(o.Expr); err != nil {
			return nil, err
		}
		b.OrderBy = append(b.OrderBy, BoundOrder{Name: o.Expr.Name(), Desc: o.Desc})
	}
	return b, nil
}

// aggOutputKind is the result kind of an aggregate expression: COUNT is
// Int, AVG is Float, SUM/MIN/MAX follow their column.
func aggOutputKind(tm TableMeta, e SelExpr) value.Kind {
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
	where, err := bindConds(tm, del.Where)
	if err != nil {
		return nil, err
	}
	return &BoundDelete{Table: del.Table, Where: where}, nil
}

// BoundSet is one resolved assignment of an UPDATE: the target column
// and the value (coerced to the column's kind) every matching row takes.
type BoundSet struct {
	Col    string
	ColIdx int
	Val    value.Value
}

// BoundUpdate is an UPDATE resolved against the catalog. Where follows
// BoundSelect.Where: disjunctive normal form, nil for update-all.
type BoundUpdate struct {
	Table string
	Sets  []BoundSet
	Where [][]BoundCond
}

// BindUpdate resolves an UPDATE statement: assignment targets to column
// indices with their values coerced to the column kinds (duplicate
// targets rejected), and the WHERE clause bound like a SELECT's.
func BindUpdate(cat Catalog, up *UpdateStmt) (*BoundUpdate, error) {
	tm, err := lookupTable(cat, up.Table)
	if err != nil {
		return nil, err
	}
	b := &BoundUpdate{Table: up.Table}
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
		b.Sets = append(b.Sets, BoundSet{Col: s.Col, ColIdx: ci, Val: v})
	}
	b.Where, err = bindDNF(tm, up.Where)
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

// BindCreateIndex checks a CREATE INDEX statement against the catalog.
func BindCreateIndex(cat Catalog, ci *CreateIndexStmt) error {
	tm, err := lookupTable(cat, ci.Table)
	if err != nil {
		return err
	}
	for _, col := range ci.Cols {
		if tm.colIndex(col) < 0 {
			return fmt.Errorf("sql: table %q has no column %q", tm.Name, col)
		}
	}
	return nil
}

// BindCreateCM checks a CREATE CORRELATION MAP statement: columns exist
// and bucketing options fit their column kinds (WIDTH needs a numeric
// column, PREFIX a string column).
func BindCreateCM(cat Catalog, cc *CreateCMStmt) error {
	tm, err := lookupTable(cat, cc.Table)
	if err != nil {
		return err
	}
	for _, col := range cc.Cols {
		ci := tm.colIndex(col.Name)
		if ci < 0 {
			return fmt.Errorf("sql: table %q has no column %q", tm.Name, col.Name)
		}
		kind := tm.Cols[ci].Kind
		if col.Width > 0 && kind == value.String {
			return fmt.Errorf("sql: WIDTH does not apply to string column %q (use PREFIX)", col.Name)
		}
		if col.Prefix > 0 && kind != value.String {
			return fmt.Errorf("sql: PREFIX does not apply to %s column %q (use WIDTH)", kind, col.Name)
		}
	}
	return nil
}
