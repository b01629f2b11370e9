package exec

import (
	"container/heap"
	"sort"

	"repro/internal/value"
)

// OrderKey is one ORDER BY key: a column position (into whatever row
// shape the caller sorts — table rows for plain selects, output rows
// for aggregates) and a direction.
type OrderKey struct {
	Col  int
	Desc bool
}

// CompareRows orders a and b by the keys: the first key decides unless
// equal, then the next, and so on; 0 means equal on every key.
func CompareRows(keys []OrderKey, a, b value.Row) int {
	for _, k := range keys {
		c := a[k.Col].Compare(b[k.Col])
		if c == 0 {
			continue
		}
		if k.Desc {
			return -c
		}
		return c
	}
	return 0
}

// sortRow pairs a buffered row with its arrival sequence, the stable
// tie-break: rows equal on every key keep input (physical emission)
// order, which makes sorted output deterministic and identical at any
// worker count (every scan emits in physical order).
type sortRow struct {
	row value.Row
	seq int
}

// Sorter is the ORDER BY operator. With a positive limit it is a
// bounded top-K heap: only the current best K rows are retained (and
// cloned), so `ORDER BY ... LIMIT k` over a huge result buffers k rows,
// not all of them. Without a limit it is a spill-free in-memory sort:
// every row is buffered and sorted once in Rows.
//
// Add clones retained rows, so callers may feed it scratch rows that
// are only valid during the callback (the RowFunc contract).
type Sorter struct {
	keys  []OrderKey
	limit int
	rows  []sortRow
	next  int
}

// NewSorter builds a sorter for the keys; limit > 0 enables the
// bounded top-K heap, limit <= 0 sorts everything.
func NewSorter(keys []OrderKey, limit int) *Sorter {
	return &Sorter{keys: keys, limit: limit}
}

// worse reports whether a sorts after b (final order is ascending by
// keys then by arrival).
func (s *Sorter) worse(a, b sortRow) bool {
	c := CompareRows(s.keys, a.row, b.row)
	if c != 0 {
		return c > 0
	}
	return a.seq > b.seq
}

// Add offers one row. In top-K mode the row is dropped immediately —
// without cloning — when it sorts after the current K-th row.
func (s *Sorter) Add(row value.Row) {
	sr := sortRow{row: row, seq: s.next}
	s.next++
	if s.limit > 0 && len(s.rows) >= s.limit {
		// Full heap: the root is the worst retained row.
		if !s.worse(s.rows[0], sr) {
			return // incoming row is no better; stability keeps the earlier one
		}
		sr.row = row.Clone()
		s.rows[0] = sr
		heap.Fix((*sortHeap)(s), 0)
		return
	}
	sr.row = row.Clone()
	if s.limit > 0 {
		heap.Push((*sortHeap)(s), sr)
	} else {
		s.rows = append(s.rows, sr)
	}
}

// Rows finalizes: the retained rows sorted by the keys (ties in input
// order), truncated to the limit when one is set.
func (s *Sorter) Rows() []value.Row {
	sort.Slice(s.rows, func(i, j int) bool { return s.worse(s.rows[j], s.rows[i]) })
	out := make([]value.Row, len(s.rows))
	for i, sr := range s.rows {
		out[i] = sr.row
	}
	return out
}

// sortHeap adapts Sorter to container/heap as a max-heap on "worse":
// the root is the worst retained row, the one a better incoming row
// evicts.
type sortHeap Sorter

// Len implements heap.Interface.
func (h *sortHeap) Len() int { return len(h.rows) }

// Less implements heap.Interface: true when i is worse than j, making
// the root the worst retained row.
func (h *sortHeap) Less(i, j int) bool { return (*Sorter)(h).worse(h.rows[i], h.rows[j]) }

// Swap implements heap.Interface.
func (h *sortHeap) Swap(i, j int) { h.rows[i], h.rows[j] = h.rows[j], h.rows[i] }

// Push implements heap.Interface.
func (h *sortHeap) Push(x any) { h.rows = append(h.rows, x.(sortRow)) }

// Pop implements heap.Interface.
func (h *sortHeap) Pop() any {
	n := len(h.rows) - 1
	x := h.rows[n]
	h.rows = h.rows[:n]
	return x
}
