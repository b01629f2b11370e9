package exec

import (
	"context"
	"fmt"

	"repro/internal/heap"
	"repro/internal/table"
	"repro/internal/value"
)

// This file is the write-statement executor. An UPDATE or DELETE runs in
// two phases under the table's writer gate: a read phase that collects
// the RIDs (and, for UPDATE, the new images) of every matching row
// through the planned access path, and a write phase that applies them
// as one MVCC writer statement (WriteTxn.UpdateBatch — Algorithm 1's
// retraction + reinsert per row — or WriteTxn.DeleteBatch). Collecting
// fully before writing sidesteps the Halloween problem: the scan can
// never see the rows it is about to produce. Because every access path
// emits rows in physical heap order at any worker count, the collected
// RID sequence — and therefore the written table state — is
// byte-identical at any worker count, and for any access path the
// planner picks.

// SetClause is one assignment of an UPDATE statement: the target column
// and the literal value it takes. (The SQL surface only admits literal
// right-hand sides.)
type SetClause struct {
	Col int
	Val value.Value
}

// String renders the assignment for plan details.
func (s SetClause) String() string {
	return fmt.Sprintf("col%d = %v", s.Col, s.Val)
}

// CheckSets validates the assignments against a schema: known columns,
// no duplicate targets, and value kinds matching the column kinds.
func CheckSets(sch table.Schema, sets []SetClause) error {
	if len(sets) == 0 {
		return fmt.Errorf("exec: UPDATE with no assignments")
	}
	seen := make(map[int]bool, len(sets))
	for _, s := range sets {
		if s.Col < 0 || s.Col >= len(sch.Cols) {
			return fmt.Errorf("exec: UPDATE of unknown column %d", s.Col)
		}
		if seen[s.Col] {
			return fmt.Errorf("exec: duplicate assignment to column %s", sch.Cols[s.Col].Name)
		}
		seen[s.Col] = true
		if s.Val.K != sch.Cols[s.Col].Kind {
			return fmt.Errorf("exec: cannot assign %v value to %v column %s",
				s.Val.K, sch.Cols[s.Col].Kind, sch.Cols[s.Col].Name)
		}
	}
	return nil
}

// ApplySets returns a fresh row: src with every assignment applied.
func ApplySets(src value.Row, sets []SetClause) value.Row {
	out := src.Clone()
	for _, s := range sets {
		out[s.Col] = s.Val
	}
	return out
}

// WriteByScan executes an UPDATE (sets non-nil) or a DELETE (sets nil):
// run streams the matching rows (physical order; full rows for an
// UPDATE) out of the chosen access path, and the write phase replaces
// or ends each under one writer statement. It returns the number of rows
// written. The caller must NOT hold the table latch — the writer
// statement takes the writer gate itself and latches per batch. ctx,
// when non-nil, cancels both phases: the read phase through the access
// path's own context and the write phase between latched bursts (a
// cancelled write aborts cleanly, leaving the table untouched).
func WriteByScan(ctx context.Context, t *table.Table, run func(fn RowFunc) error, sets []SetClause) (int64, error) {
	if sets != nil {
		if err := CheckSets(t.Schema(), sets); err != nil {
			return 0, err
		}
	}
	tx := t.BeginWrite()
	tx.SetContext(ctx)
	var rids []heap.RID
	var news []value.Row
	err := run(func(rid heap.RID, row value.Row) bool {
		rids = append(rids, rid)
		if sets != nil {
			news = append(news, ApplySets(row, sets))
		}
		return true
	})
	if err == nil {
		if sets != nil {
			err = tx.UpdateBatch(rids, news)
		} else {
			err = tx.DeleteBatch(rids)
		}
	}
	if err != nil {
		tx.Abort()
		return 0, err
	}
	return int64(len(rids)), tx.Publish()
}
