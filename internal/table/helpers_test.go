package table

import (
	"fmt"

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

// imagesOf reads the latest bytes of the rows at rids, as a writer
// statement's read phase captures them; a row that is not live fails.
func imagesOf(tbl *Table, rids []heap.RID) (*Images, error) {
	tbl.RLock()
	defer tbl.RUnlock()
	im := &Images{}
	for _, rid := range rids {
		n := im.Len()
		if err := tbl.Heap().ViewAt(rid, 0, func(tuple []byte) error {
			im.Add(rid, tuple)
			return nil
		}); err != nil {
			return nil, err
		}
		if im.Len() == n {
			return nil, fmt.Errorf("no live row at %v", rid)
		}
	}
	return im, nil
}

// withRows is an UpdateBatch set that makes image i's new row news[i].
func withRows(news []value.Row) func(int, value.Row) {
	return func(i int, row value.Row) { copy(row, news[i]) }
}

// updateRows replaces the rows at rids with news within tx.
func updateRows(tx *WriteTxn, rids []heap.RID, news []value.Row) error {
	olds, err := imagesOf(tx.t, rids)
	if err != nil {
		return err
	}
	return tx.UpdateBatch(olds, withRows(news))
}

// endRows ends the rows at rids within tx.
func endRows(tx *WriteTxn, rids []heap.RID) error {
	olds, err := imagesOf(tx.t, rids)
	if err != nil {
		return err
	}
	return tx.DeleteBatch(olds)
}

// deleteRows ends the rows at rids as one writer statement.
func deleteRows(tbl *Table, rids ...heap.RID) error {
	tx := tbl.BeginWrite()
	if err := endRows(tx, rids); err != nil {
		tx.Abort()
		return err
	}
	return tx.Publish()
}

// fetchRow decodes the latest version at rid; nil when none is live.
func fetchRow(tbl *Table, rid heap.RID) (row value.Row, err error) {
	err = tbl.Heap().ViewAt(rid, 0, func(tuple []byte) error {
		row, err = tbl.Schema().DecodeRow(tuple)
		return err
	})
	return row, err
}
