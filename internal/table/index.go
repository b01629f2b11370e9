package table

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/btree"
	"repro/internal/buffer"
	"repro/internal/heap"
	"repro/internal/keyenc"
	"repro/internal/stats"
	"repro/internal/value"
)

// ridKeyLen is the fixed RID suffix appended to index keys: page (8 bytes
// big-endian) + slot (2 bytes big-endian), ordering entries physically
// within equal attribute values.
const ridKeyLen = 10

// AppendRID appends the RID suffix to an encoded key prefix.
func AppendRID(key []byte, rid heap.RID) []byte {
	key = binary.BigEndian.AppendUint64(key, uint64(rid.Page))
	key = binary.BigEndian.AppendUint16(key, rid.Slot)
	return key
}

// ridFromKey extracts the RID from an index entry key.
func ridFromKey(key []byte) (heap.RID, error) {
	if len(key) < ridKeyLen {
		return heap.RID{}, fmt.Errorf("table: index key too short for RID suffix")
	}
	tail := key[len(key)-ridKeyLen:]
	return heap.RID{
		Page: int64(binary.BigEndian.Uint64(tail[:8])),
		Slot: binary.BigEndian.Uint16(tail[8:]),
	}, nil
}

// Index is a dense secondary B+Tree index: one (attribute key ‖ RID)
// entry per tuple, the structure the paper's correlation maps compress
// away. (The clustered index is sparse: the bucket bounds plus the page
// directory.)
type Index struct {
	Name string
	Cols []int // indexed column positions, in key order
	Tree *btree.Tree

	// pairs are the secondary index's Table 2 statistics, nil until
	// counted (see Pairs).
	pairs atomic.Pointer[Pairs]
}

// Pairs are a secondary index's Table 2 correlation statistics against
// the clustering attribute — u_tups, c_tups and c_per_u — the triple the
// Section 4 cost model prices an index path from. At is the table's
// count of published row writes when they were counted (see
// Table.RowsSincePairStats).
type Pairs struct {
	UTups, CTups, CPerU float64
	At                  int64
}

// Pairs returns the index's pair statistics, and false when they were
// never counted: the index was created over an empty table that has not
// been loaded since.
func (ix *Index) Pairs() (Pairs, bool) {
	if p := ix.pairs.Load(); p != nil {
		return *p, true
	}
	return Pairs{}, false
}

// countedPairs keeps only the triple pc counted, stamped at, so the
// counter's maps do not outlive the count.
func countedPairs(pc *stats.PairCounter, at int64) *Pairs {
	return &Pairs{UTups: pc.UTups(), CTups: pc.CTups(), CPerU: pc.CPerU(), At: at}
}

// keyFor builds the full entry key for a row at rid.
func (ix *Index) keyFor(row value.Row, rid heap.RID) []byte {
	return AppendRID(keyenc.EncodeRowPrefix(row, ix.Cols), rid)
}

// entries is an arena of index entry keys, (attribute key ‖ RID), for a
// bulk build: entry i is keys[offs[i]:offs[i+1]], and offs starts at 0.
type entries struct {
	keys []byte
	offs []int
}

// add appends the entry at rid of the row a checked tuple encodes, its
// key (fields) read from the tuple's bytes, and returns its attribute
// key, which aliases the arena until the next add.
func (e *entries) add(fields *keyFields, tuple []byte, rid heap.RID) []byte {
	start := len(e.keys)
	e.keys = fields.appendKey(e.keys, tuple)
	if len(e.offs) == 1 {
		// Size the arena from the first entry: fixed-width keys fill it.
		e.keys = slices.Grow(e.keys, (len(e.keys)+ridKeyLen)*cap(e.offs))
	}
	ukey := e.keys[start:]
	e.keys = AppendRID(e.keys, rid)
	e.offs = append(e.offs, len(e.keys))
	return ukey
}

// pairRuns counts a secondary index's pair statistics
// (stats.PairCounter) a run at a time: rows in clustered order come in
// runs of equal attribute and clustering keys, and each run costs the
// counter one call.
type pairRuns struct {
	pc   *stats.PairCounter
	u, c []byte // the current run's keys
	n    int64  // and its rows
}

// add counts one row with attribute key u and clustering key c.
func (r *pairRuns) add(u, c []byte) {
	if r.n > 0 && bytes.Equal(u, r.u) && bytes.Equal(c, r.c) {
		r.n++
		return
	}
	r.counter()
	r.u, r.c, r.n = append(r.u[:0], u...), append(r.c[:0], c...), 1
}

// counter counts the current run and returns the counter.
func (r *pairRuns) counter() *stats.PairCounter {
	if r.n > 0 {
		r.pc.AddRun(r.u, r.c, r.n)
		r.n = 0
	}
	return r.pc
}

// build writes the B+Tree of the entries bottom-up (btree.Build), taking
// them in key order: as they arrive when the rows came in that order,
// else, once Build has found them unsorted, as keyOrder sorts them.
func (e *entries) build(pool *buffer.Pool) (*btree.Tree, error) {
	n := len(e.offs) - 1
	key := func(i int) []byte { return e.keys[e.offs[i]:e.offs[i+1]] }
	tree, err := btree.Build(pool, n, func(i int) ([]byte, []byte) { return key(i), nil })
	if !errors.Is(err, btree.ErrUnsorted) {
		return tree, err
	}
	order := keyOrder(e.keys, e.offs)
	return btree.Build(pool, n, func(i int) ([]byte, []byte) { return key(order[i]), nil })
}

// Insert adds the entry for row at rid.
func (ix *Index) Insert(row value.Row, rid heap.RID) error {
	return ix.Tree.Insert(ix.keyFor(row, rid), nil)
}

// Delete removes the entry for row at rid, reporting whether it existed.
func (ix *Index) Delete(row value.Row, rid heap.RID) (bool, error) {
	return ix.Tree.Delete(ix.keyFor(row, rid))
}

// maxSuffix extends an encoded prefix so every entry sharing the prefix
// compares <= the result (RID suffix is 10 bytes; 11 x 0xFF dominates).
func maxSuffix(prefix []byte) []byte {
	out := make([]byte, 0, len(prefix)+ridKeyLen+1)
	out = append(out, prefix...)
	for i := 0; i <= ridKeyLen; i++ {
		out = append(out, 0xFF)
	}
	return out
}

// ScanRange visits the RIDs of entries with attribute keys in [lo, hi]
// (both inclusive encoded prefixes; nil means open). Entries stream in
// key order.
func (ix *Index) ScanRange(lo, hi []byte, fn func(rid heap.RID) bool) error {
	var it *btree.Iterator
	var err error
	if lo == nil {
		it, err = ix.Tree.SeekFirst()
	} else {
		it, err = ix.Tree.SeekGE(lo)
	}
	if err != nil {
		return err
	}
	var hiMax []byte
	if hi != nil {
		hiMax = maxSuffix(hi)
	}
	for it.Valid() {
		k := it.Key()
		if hiMax != nil && bytes.Compare(k, hiMax) > 0 {
			return nil
		}
		rid, err := ridFromKey(k)
		if err != nil {
			return err
		}
		if !fn(rid) {
			return nil
		}
		if err := it.Next(); err != nil {
			return err
		}
	}
	return nil
}

// SizeBytes returns the on-disk footprint of the index.
func (ix *Index) SizeBytes() int64 { return ix.Tree.SizeBytes() }
