package table

import (
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/value"
)

func simDiskForTest() *sim.Disk {
	return sim.NewDisk(sim.Config{PageSize: 512})
}

func poolForTest(d *sim.Disk, frames int) *buffer.Pool {
	return buffer.NewPool(d, frames)
}

// insertRows inserts rows as one writer statement and returns the RIDs
// their new versions took, in row order.
func insertRows(tbl *Table, rows ...value.Row) ([]heap.RID, error) {
	tx := tbl.BeginWrite()
	if err := tx.InsertBatch(rows); err != nil {
		tx.Abort()
		return nil, err
	}
	rids := make([]heap.RID, len(tx.inserted))
	for i, u := range tx.inserted {
		rids[i] = u.rid
	}
	return rids, tx.Publish()
}

// deleteRows ends the rows at rids as one writer statement.
func deleteRows(tbl *Table, rids ...heap.RID) error {
	tx := tbl.BeginWrite()
	if err := tx.DeleteBatch(rids); err != nil {
		tx.Abort()
		return err
	}
	return tx.Publish()
}

// fetchRow decodes the latest version at rid; nil when none is live.
func fetchRow(tbl *Table, rid heap.RID) (value.Row, error) {
	data, err := tbl.Heap().Get(rid)
	if err != nil || data == nil {
		return nil, err
	}
	return tbl.Schema().DecodeRow(data)
}
