package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"repro/internal/datagen"
)

// model is the naive reference: the generated rows kept as a flat slice,
// every statement answered by a full pass over it. Nothing here shares
// code or data structures with the engine.
type model struct {
	rows []datagen.CorrelatedItem
}

func newModel(items []datagen.CorrelatedItem) *model {
	return &model{rows: append([]datagen.CorrelatedItem(nil), items...)}
}

// expect is what a statement's reply must be: the result rows as the
// wire would encode them (order-free), or the affected-row count.
type expect struct {
	rows     []string
	affected int
}

// apply answers s against the model and, for writes, mutates it.
func (m *model) apply(s stmt) expect {
	var e expect
	switch s.cls {
	case clsPoint:
		for _, r := range m.rows {
			if r.Subcat == s.key {
				e.rows = append(e.rows, "["+strconv.FormatInt(r.Price, 10)+"]")
			}
		}
	case clsScan:
		for _, r := range m.rows {
			if r.Cat >= s.key && r.Cat < s.key+scanSpan {
				desc, _ := json.Marshal(r.Desc)
				e.rows = append(e.rows, fmt.Sprintf("[%d,%d,%d,%s]", r.Cat, r.Subcat, r.Price, desc))
			}
		}
	case clsAgg:
		var n, sum int64
		for _, r := range m.rows {
			if r.Subcat == s.key {
				n++
				sum += r.Price
			}
		}
		avg, _ := json.Marshal(float64(sum) / float64(n))
		e.rows = []string{fmt.Sprintf("[%d,%s]", n, avg)}
	case clsUpdate:
		for i := range m.rows {
			if m.rows[i].Cat == s.key {
				m.rows[i].Price = s.price
				e.affected++
			}
		}
	case clsInsert:
		m.rows = append(m.rows, datagen.CorrelatedItem{Cat: s.key, Subcat: s.key / 8, Price: s.price, Desc: "new"})
		e.affected = 1
	}
	return e
}

// table renders SELECT cat, subcat, price FROM items over the model.
func (m *model) table() []string {
	out := make([]string, len(m.rows))
	for i, r := range m.rows {
		out[i] = fmt.Sprintf("[%d,%d,%d]", r.Cat, r.Subcat, r.Price)
	}
	return out
}

// check compares one reply against what the model expects. Result order
// is not part of the contract (no ORDER BY), so rows compare as sorted
// multisets of their wire encoding; the aggregate's AVG compares within
// float rounding because the engine folds bucket statistics in its own
// order.
func check(s stmt, rep reply, want expect) error {
	if rep.err != "" {
		return fmt.Errorf("%s: engine error: %s", s.sql, rep.err)
	}
	if s.cls.isWrite() {
		if rep.affected != want.affected {
			return fmt.Errorf("%s: affected %d, model says %d", s.sql, rep.affected, want.affected)
		}
		return nil
	}
	if rep.rows != len(want.rows) || len(rep.raw) != len(want.rows) {
		return fmt.Errorf("%s: %d rows (row_count %d), model says %d", s.sql, len(rep.raw), rep.rows, len(want.rows))
	}
	if s.cls == clsAgg {
		var got, exp []float64
		if err := json.Unmarshal([]byte(rep.raw[0]), &got); err != nil {
			return fmt.Errorf("%s: bad aggregate row %s", s.sql, rep.raw[0])
		}
		_ = json.Unmarshal([]byte(want.rows[0]), &exp) // the model's own encoding
		if len(got) != 2 || got[0] != exp[0] || math.Abs(got[1]-exp[1]) > 1e-9*math.Abs(exp[1]) {
			return fmt.Errorf("%s: got %s, model says %s", s.sql, rep.raw[0], want.rows[0])
		}
		return nil
	}
	return sameRows(s.sql, rep.raw, want.rows)
}

func sameRows(what string, got, want []string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d rows, model says %d", what, len(got), len(want))
	}
	got, want = append([]string(nil), got...), append([]string(nil), want...)
	sort.Strings(got)
	sort.Strings(want)
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: row %s, model says %s", what, got[i], want[i])
		}
	}
	return nil
}

// checkTable compares the whole table, read over the wire, with the model.
func checkTable(c *client, m *model) error {
	keep := c.keepRows
	c.keepRows = true
	defer func() { c.keepRows = keep }()
	const q = "SELECT cat, subcat, price FROM items"
	rep, err := c.do(q)
	if err != nil {
		return fmt.Errorf("%s: %w", q, err)
	}
	if rep.err != "" {
		return fmt.Errorf("%s: engine error: %s", q, rep.err)
	}
	return sameRows(q, rep.raw, m.table())
}
