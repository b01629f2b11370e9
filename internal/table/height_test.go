package table_test

import (
	"testing"

	"repro/internal/buffer"
	"repro/internal/datagen"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
)

// TestBTreeHeightMatchesPackedTree holds Stats.BTreeHeight, which the
// table computes, to the height of a real dense B+Tree built the way the
// paper's clustered index is: one (clustering key ‖ RID) entry per row,
// in key order — what CreateIndex builds over the clustering columns.
// The fixtures are the ones the experiments and the benchmark price
// with it, at their paper scale: the benchmark's
// correlated items, Lineitem clustered on receiptdate and on its
// primary key, eBay clustered on catid and SDSS clustered on objID.
func TestBTreeHeightMatchesPackedTree(t *testing.T) {
	items := datagen.CorrelatedItems(60000)
	itemRows := make([]value.Row, len(items))
	for i, it := range items {
		itemRows[i] = value.Row{value.NewInt(it.Cat), value.NewInt(it.Subcat), value.NewInt(it.Price), value.NewString(it.Desc)}
	}
	lineitem := datagen.Lineitems(datagen.TPCHConfig{Orders: 20000})
	for _, f := range []struct {
		name   string
		schema table.Schema
		cols   []int
		rows   []value.Row
	}{
		{"items by cat", table.NewSchema(
			table.Column{Name: "cat", Kind: value.Int}, table.Column{Name: "subcat", Kind: value.Int},
			table.Column{Name: "price", Kind: value.Int}, table.Column{Name: "desc", Kind: value.String},
		), []int{0}, itemRows},
		{"lineitem by receiptdate", datagen.LineitemSchema(), []int{datagen.LReceiptDate}, lineitem},
		{"lineitem by (orderkey, linenumber)", datagen.LineitemSchema(), []int{datagen.LOrderKey, datagen.LLineNumber}, lineitem},
		{"ebay by catid", datagen.EBaySchema(), []int{datagen.EBayCATID}, datagen.EBayItems(datagen.EBayConfig{Categories: 600})},
		{"sdss by objID", datagen.SDSSSchema(), []int{datagen.SDSSObjID},
			datagen.PhotoTag(datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200})},
	} {
		t.Run(f.name, func(t *testing.T) {
			pool := buffer.NewPool(sim.NewDisk(sim.Config{}), 1<<14)
			tbl, err := table.New(pool, nil, table.Config{Name: "t", Schema: f.schema, ClusteredCols: f.cols})
			if err != nil {
				t.Fatal(err)
			}
			if err := tbl.Load(f.rows); err != nil {
				t.Fatal(err)
			}
			// A loaded heap is in clustering-key order, equal keys by
			// ascending RID: the index gets its entries sorted.
			ix, err := tbl.CreateIndex("clustering", f.cols)
			if err != nil {
				t.Fatal(err)
			}
			tree := ix.Tree
			got := tbl.Stats().BTreeHeight
			t.Logf("%d rows: computed height %d, built tree %d (%d pages)", tree.Len(), got, tree.Height(), tree.PageCount())
			if got != tree.Height() || tree.Len() != int64(len(f.rows)) {
				t.Errorf("computed height %d, the tree of %d entries built from the sorted keys has %d",
					got, tree.Len(), tree.Height())
			}
		})
	}
}
