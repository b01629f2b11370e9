package table_test

import (
	"sync"
	"testing"

	"repro/internal/buffer"
	"repro/internal/datagen"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// scanPairs counts the table's pair statistics for cols with a fresh
// scan (PairStats), in the stamp-free form Index.Pairs keeps.
func scanPairs(t *testing.T, tbl *table.Table, cols []int) table.Pairs {
	t.Helper()
	pc, err := tbl.PairStats(cols)
	if err != nil {
		t.Fatal(err)
	}
	return table.Pairs{UTups: pc.UTups(), CTups: pc.CTups(), CPerU: pc.CPerU()}
}

// TestIndexPairStatsMatchScan checks that the pair statistics an index
// carries equal a fresh scan's exactly — counted by CreateIndex over a
// loaded table, and recounted by Load for an index created before it —
// on the correlated items' subcat, on lineitem's shipdate against the
// receiptdate clustering (c_per_u > 1), and on a two-column index. An
// index over a table that was never loaded has none until the first ask
// on a non-empty table counts them and keeps them on the index.
func TestIndexPairStatsMatchScan(t *testing.T) {
	itemSchema := table.NewSchema(
		table.Column{Name: "cat", Kind: value.Int}, table.Column{Name: "subcat", Kind: value.Int},
		table.Column{Name: "price", Kind: value.Int}, table.Column{Name: "desc", Kind: value.String},
	)
	var itemRows []value.Row
	for _, it := range datagen.CorrelatedItems(6000) {
		itemRows = append(itemRows, value.Row{value.NewInt(it.Cat), value.NewInt(it.Subcat), value.NewInt(it.Price), value.NewString(it.Desc)})
	}
	lines := datagen.Lineitems(datagen.TPCHConfig{Orders: 1500, Seed: 3})
	cases := []struct {
		name      string
		schema    table.Schema
		clustered []int
		rows      []value.Row
		cols      []int
		cPerUOver float64
	}{
		{"items subcat", itemSchema, []int{0}, itemRows, []int{1}, 0},
		{"lineitem shipdate", datagen.LineitemSchema(), []int{datagen.LReceiptDate}, lines, []int{datagen.LShipDate}, 1},
		{"items subcat,price", itemSchema, []int{0}, itemRows, []int{1, 2}, 0},
	}
	newTable := func(c int) *table.Table {
		pool := buffer.NewPool(sim.NewDisk(sim.Config{}), 256)
		tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: cases[c].schema, ClusteredCols: cases[c].clustered})
		if err != nil {
			t.Fatal(err)
		}
		return tbl
	}
	for c, tc := range cases {
		for _, indexFirst := range []bool{false, true} {
			tbl := newTable(c)
			var ix *table.Index
			var err error
			if indexFirst {
				if ix, err = tbl.CreateIndex("ix", tc.cols); err != nil {
					t.Fatal(err)
				}
				if _, ok := ix.Pairs(); ok {
					t.Errorf("%s: an index over the empty table has pair statistics", tc.name)
				}
			}
			if err := tbl.Load(tc.rows); err != nil {
				t.Fatal(err)
			}
			if !indexFirst {
				if ix, err = tbl.CreateIndex("ix", tc.cols); err != nil {
					t.Fatal(err)
				}
			}
			got, ok := ix.Pairs()
			got.At = 0
			want := scanPairs(t, tbl, tc.cols)
			if !ok || got != want {
				t.Errorf("%s (index first %v): index carries %+v (%v), scan counts %+v", tc.name, indexFirst, got, ok, want)
			}
			if got.CPerU <= tc.cPerUOver {
				t.Errorf("%s: c_per_u %v, want above %v", tc.name, got.CPerU, tc.cPerUOver)
			}
		}
	}

	// Never loaded: rows written by a writer statement after the index
	// exists are counted on the first ask, and kept.
	tbl := newTable(0)
	ix, err := tbl.CreateIndex("ix", []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := tbl.IndexPairs([]int{1}); !ok || p != (table.Pairs{}) {
		t.Errorf("empty table: IndexPairs = %+v, %v; want zeros", p, ok)
	}
	tx := tbl.BeginWrite()
	if err := tx.InsertBatch(itemRows[:500]); err != nil {
		t.Fatal(err)
	}
	if err := tx.Publish(); err != nil {
		t.Fatal(err)
	}
	if _, ok := ix.Pairs(); ok {
		t.Fatal("pair statistics counted before anything asked")
	}
	// Concurrent first asks, each under a shared latch hold as planners
	// take it, all get the count the index then keeps.
	asks := make([]table.Pairs, 4)
	var wg sync.WaitGroup
	for g := range asks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tbl.RLock()
			defer tbl.RUnlock()
			var ok bool
			if asks[g], ok = tbl.IndexPairs([]int{1}); !ok {
				t.Error("IndexPairs found no index on subcat")
			}
		}()
	}
	wg.Wait()
	got, _ := ix.Pairs()
	for _, a := range asks {
		if a != got {
			t.Errorf("IndexPairs = %+v; the index keeps %+v", a, got)
		}
	}
	got.At = 0
	if want := scanPairs(t, tbl, []int{1}); got != want {
		t.Errorf("counted on first ask %+v, scan counts %+v", got, want)
	}
	if _, ok := tbl.IndexPairs([]int{2}); ok {
		t.Error("IndexPairs found an index on a column none covers")
	}
}
