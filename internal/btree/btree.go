// Package btree implements a disk-backed B+Tree over the buffer pool.
//
// The tree stores variable-length byte keys (order-preserving encodings
// from internal/keyenc) with small byte values. It backs the engine's
// dense secondary indexes: one (attribute key ‖ RID) entry per tuple, the
// structure the paper's correlation maps compress away. (The clustered
// index is sparse and memory-resident — see internal/table — and
// PackedHeight gives the height a dense tree over it would have.)
//
// Leaves are chained through right-sibling pointers for range scans.
// Deletion is by key removal without rebalancing ("lazy" deletion, as in
// PostgreSQL where vacuum reclaims space later); the workloads of the
// paper are insert- and read-heavy, so under-full pages only waste space.
// Sorted (rightmost) insertion uses the classic 100/0 split so bulk loads
// produce nearly full pages, matching the size of a freshly built index.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/buffer"
	"repro/internal/sim"
)

// Node page layout.
const (
	offType      = 0 // byte: nodeLeaf or nodeInternal
	offNumKeys   = 1 // uint16
	offCellStart = 3 // uint16: lowest offset used by cell data
	offAux       = 5 // int64: right sibling (leaf) or leftmost child (internal)
	headerSize   = 13
	slotSize     = 2 // cell offset
)

const (
	nodeLeaf     byte = 1
	nodeInternal byte = 2
)

const noSibling int64 = -1

// Tree is a disk-backed B+Tree. Concurrent readers (Get, SeekGE,
// iterators) are safe against each other — page access goes through the
// thread-safe buffer pool and reads never mutate nodes — but mutators
// (Insert, Delete) require exclusive access; the engine serializes them
// with the owning table's latch.
type Tree struct {
	pool   *buffer.Pool
	file   sim.FileID
	root   int64
	height int // number of levels; 1 = root is a leaf
	count  int64
}

// New creates an empty tree in a fresh file on the pool's disk.
func New(pool *buffer.Pool) (*Tree, error) {
	t := &Tree{pool: pool, file: pool.Disk().CreateFile(), height: 1}
	page, fr, err := pool.NewPage(t.file)
	if err != nil {
		return nil, err
	}
	initNode(fr.Data, nodeLeaf)
	pool.Unpin(fr, true)
	t.root = page
	return t, nil
}

// FileID returns the simulated-disk file holding the tree.
func (t *Tree) FileID() sim.FileID { return t.file }

// Height returns the number of levels from root to leaf (btree_height in
// the paper's cost model).
func (t *Tree) Height() int { return t.height }

// Len returns the number of entries.
func (t *Tree) Len() int64 { return t.count }

// PageCount returns the number of pages allocated to the tree.
func (t *Tree) PageCount() int64 { return t.pool.Disk().NumPages(t.file) }

// SizeBytes returns the on-disk footprint.
func (t *Tree) SizeBytes() int64 { return t.PageCount() * int64(t.pool.Disk().PageSize()) }

func initNode(d []byte, typ byte) {
	d[offType] = typ
	binary.LittleEndian.PutUint16(d[offNumKeys:], 0)
	binary.LittleEndian.PutUint16(d[offCellStart:], uint16(len(d)))
	setAux(d, noSibling)
}

func nodeType(d []byte) byte { return d[offType] }
func numKeys(d []byte) int   { return int(binary.LittleEndian.Uint16(d[offNumKeys:])) }
func cellStart(d []byte) int { return int(binary.LittleEndian.Uint16(d[offCellStart:])) }
func aux(d []byte) int64     { return int64(binary.LittleEndian.Uint64(d[offAux:])) }
func setNumKeys(d []byte, n int) {
	binary.LittleEndian.PutUint16(d[offNumKeys:], uint16(n))
}
func setCellStart(d []byte, v int) {
	binary.LittleEndian.PutUint16(d[offCellStart:], uint16(v))
}
func setAux(d []byte, v int64) {
	binary.LittleEndian.PutUint64(d[offAux:], uint64(v))
}

func slotOff(d []byte, i int) int {
	return int(binary.LittleEndian.Uint16(d[headerSize+i*slotSize:]))
}
func setSlotOff(d []byte, i, off int) {
	binary.LittleEndian.PutUint16(d[headerSize+i*slotSize:], uint16(off))
}

// Leaf cell: [klen u16][vlen u16][key][val].
func leafCellKey(d []byte, i int) []byte {
	off := slotOff(d, i)
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	return d[off+4 : off+4+klen]
}

func leafCellVal(d []byte, i int) []byte {
	off := slotOff(d, i)
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	vlen := int(binary.LittleEndian.Uint16(d[off+2:]))
	return d[off+4+klen : off+4+klen+vlen]
}

func leafCellSize(key, val []byte) int { return 4 + len(key) + len(val) }

// Internal cell: [klen u16][child i64][key]. Child i holds keys >= key i.
func internalCellKey(d []byte, i int) []byte {
	off := slotOff(d, i)
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	return d[off+10 : off+10+klen]
}

func internalCellChild(d []byte, i int) int64 {
	off := slotOff(d, i)
	return int64(binary.LittleEndian.Uint64(d[off+2:]))
}

func internalCellSize(key []byte) int { return 10 + len(key) }

func freeSpace(d []byte) int {
	return cellStart(d) - headerSize - numKeys(d)*slotSize
}

// liveBytes returns the bytes a compacted copy of the node would use,
// excluding the header.
func liveBytes(d []byte) int {
	n := numKeys(d)
	total := n * slotSize
	for i := 0; i < n; i++ {
		off := slotOff(d, i)
		klen := int(binary.LittleEndian.Uint16(d[off:]))
		if nodeType(d) == nodeLeaf {
			vlen := int(binary.LittleEndian.Uint16(d[off+2:]))
			total += 4 + klen + vlen
		} else {
			total += 10 + klen
		}
	}
	return total
}

// compact rewrites the node's cells contiguously, reclaiming dead space
// left by deletions and overwrites.
func compact(d []byte) {
	n := numKeys(d)
	typ := nodeType(d)
	type cell struct {
		key, val []byte
		child    int64
	}
	cells := make([]cell, n)
	for i := 0; i < n; i++ {
		if typ == nodeLeaf {
			cells[i] = cell{
				key: append([]byte(nil), leafCellKey(d, i)...),
				val: append([]byte(nil), leafCellVal(d, i)...),
			}
		} else {
			cells[i] = cell{
				key:   append([]byte(nil), internalCellKey(d, i)...),
				child: internalCellChild(d, i),
			}
		}
	}
	setCellStart(d, len(d))
	for i, c := range cells {
		if typ == nodeLeaf {
			writeLeafCell(d, i, c.key, c.val)
		} else {
			writeInternalCell(d, i, c.key, c.child)
		}
	}
}

// writeLeafCell places a leaf cell's bytes and points slot i at it. The
// slot directory entry for i must already be accounted in numKeys.
func writeLeafCell(d []byte, i int, key, val []byte) {
	size := leafCellSize(key, val)
	start := cellStart(d) - size
	binary.LittleEndian.PutUint16(d[start:], uint16(len(key)))
	binary.LittleEndian.PutUint16(d[start+2:], uint16(len(val)))
	copy(d[start+4:], key)
	copy(d[start+4+len(key):], val)
	setSlotOff(d, i, start)
	setCellStart(d, start)
}

func writeInternalCell(d []byte, i int, key []byte, child int64) {
	size := internalCellSize(key)
	start := cellStart(d) - size
	binary.LittleEndian.PutUint16(d[start:], uint16(len(key)))
	binary.LittleEndian.PutUint64(d[start+2:], uint64(child))
	copy(d[start+10:], key)
	setSlotOff(d, i, start)
	setCellStart(d, start)
}

// insertSlot shifts the slot directory right to open position i.
func insertSlot(d []byte, i int) {
	n := numKeys(d)
	copy(d[headerSize+(i+1)*slotSize:headerSize+(n+1)*slotSize],
		d[headerSize+i*slotSize:headerSize+n*slotSize])
	setNumKeys(d, n+1)
}

// removeSlot shifts the slot directory left over position i.
func removeSlot(d []byte, i int) {
	n := numKeys(d)
	copy(d[headerSize+i*slotSize:headerSize+(n-1)*slotSize],
		d[headerSize+(i+1)*slotSize:headerSize+n*slotSize])
	setNumKeys(d, n-1)
}

// searchLeaf returns the first slot whose key is >= key.
func searchLeaf(d []byte, key []byte) int {
	return sort.Search(numKeys(d), func(i int) bool {
		return bytes.Compare(leafCellKey(d, i), key) >= 0
	})
}

// childIndexFor returns the index into the conceptual child list
// (0 = leftmost child, i+1 = child of separator i) for a key.
func childIndexFor(d []byte, key []byte) int {
	return sort.Search(numKeys(d), func(i int) bool {
		return bytes.Compare(internalCellKey(d, i), key) > 0
	})
}

// childPage maps a conceptual child index to a page number.
func childPage(d []byte, idx int) int64 {
	if idx == 0 {
		return aux(d)
	}
	return internalCellChild(d, idx-1)
}

// splitResult propagates a node split upward.
type splitResult struct {
	split   bool
	sepKey  []byte
	newPage int64
}

// Insert adds or overwrites the entry for key.
func (t *Tree) Insert(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	maxCell := (t.pool.Disk().PageSize() - headerSize - slotSize*4) / 4
	if leafCellSize(key, val) > maxCell {
		return fmt.Errorf("btree: entry of %d bytes too large for page", leafCellSize(key, val))
	}
	res, err := t.insertRec(t.root, key, val)
	if err != nil {
		return err
	}
	if !res.split {
		return nil
	}
	// Root split: build a new internal root.
	page, fr, err := t.pool.NewPage(t.file)
	if err != nil {
		return err
	}
	initNode(fr.Data, nodeInternal)
	setAux(fr.Data, t.root)
	insertSlot(fr.Data, 0)
	writeInternalCell(fr.Data, 0, res.sepKey, res.newPage)
	t.pool.Unpin(fr, true)
	t.root = page
	t.height++
	return nil
}

func (t *Tree) insertRec(page int64, key, val []byte) (splitResult, error) {
	fr, err := t.pool.Get(t.file, page)
	if err != nil {
		return splitResult{}, err
	}
	d := fr.Data
	if nodeType(d) == nodeLeaf {
		res, dirty, err := t.insertLeaf(d, key, val)
		t.pool.Unpin(fr, dirty)
		return res, err
	}
	idx := childIndexFor(d, key)
	child := childPage(d, idx)
	// Recurse without holding the parent pinned? We must keep it pinned so
	// that a child split can be applied; pool capacity covers tree height.
	res, err := t.insertRec(child, key, val)
	if err != nil {
		t.pool.Unpin(fr, false)
		return splitResult{}, err
	}
	if !res.split {
		t.pool.Unpin(fr, false)
		return splitResult{}, nil
	}
	up, err := t.insertInternal(d, idx, res.sepKey, res.newPage)
	t.pool.Unpin(fr, true)
	return up, err
}

// insertLeaf places (key, val) into the leaf, splitting when necessary.
// An existing entry for key is replaced (delete-then-insert).
func (t *Tree) insertLeaf(d []byte, key, val []byte) (splitResult, bool, error) {
	pos := searchLeaf(d, key)
	if pos < numKeys(d) && bytes.Equal(leafCellKey(d, pos), key) {
		removeSlot(d, pos)
		t.count--
	}
	need := leafCellSize(key, val) + slotSize
	if freeSpace(d) < need {
		if liveBytes(d)+need <= len(d)-headerSize {
			compact(d)
		} else {
			return t.splitLeafAndInsert(d, key, val, pos)
		}
	}
	insertSlot(d, pos)
	writeLeafCell(d, pos, key, val)
	t.count++
	return splitResult{}, true, nil
}

// splitLeafAndInsert splits a full leaf around the insertion of (key,val)
// at slot position pos.
func (t *Tree) splitLeafAndInsert(d []byte, key, val []byte, pos int) (splitResult, bool, error) {
	n := numKeys(d)
	type entry struct{ k, v []byte }
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{
			k: append([]byte(nil), leafCellKey(d, i)...),
			v: append([]byte(nil), leafCellVal(d, i)...),
		})
	}
	entries = append(entries[:pos], append([]entry{{k: append([]byte(nil), key...), v: append([]byte(nil), val...)}}, entries[pos:]...)...)
	t.count++

	// Choose the split point. Rightmost insertion into the rightmost leaf
	// uses a 100/0 split so ascending bulk loads fill pages completely.
	var splitAt int
	if pos == n && aux(d) == noSibling {
		splitAt = len(entries) - 1
	} else {
		// Split at half the bytes.
		total := 0
		for _, e := range entries {
			total += leafCellSize(e.k, e.v) + slotSize
		}
		acc := 0
		splitAt = len(entries) / 2
		for i, e := range entries {
			acc += leafCellSize(e.k, e.v) + slotSize
			if acc >= total/2 {
				splitAt = i + 1
				break
			}
		}
		if splitAt >= len(entries) {
			splitAt = len(entries) - 1
		}
		if splitAt < 1 {
			splitAt = 1
		}
	}

	newPage, nfr, err := t.pool.NewPage(t.file)
	if err != nil {
		return splitResult{}, false, err
	}
	nd := nfr.Data
	initNode(nd, nodeLeaf)
	setAux(nd, aux(d)) // new right node inherits old sibling

	// Rewrite left node with entries[:splitAt].
	oldSib := newPage
	setNumKeys(d, 0)
	setCellStart(d, len(d))
	for i, e := range entries[:splitAt] {
		insertSlot(d, i)
		writeLeafCell(d, i, e.k, e.v)
	}
	setAux(d, oldSib)

	for i, e := range entries[splitAt:] {
		insertSlot(nd, i)
		writeLeafCell(nd, i, e.k, e.v)
	}
	sep := append([]byte(nil), entries[splitAt].k...)
	t.pool.Unpin(nfr, true)
	return splitResult{split: true, sepKey: sep, newPage: newPage}, true, nil
}

// insertInternal places (sepKey, newChild) after child index idx,
// splitting the internal node when necessary.
func (t *Tree) insertInternal(d []byte, idx int, sepKey []byte, newChild int64) (splitResult, error) {
	need := internalCellSize(sepKey) + slotSize
	if freeSpace(d) < need {
		if liveBytes(d)+need <= len(d)-headerSize {
			compact(d)
		} else {
			return t.splitInternalAndInsert(d, idx, sepKey, newChild)
		}
	}
	insertSlot(d, idx)
	writeInternalCell(d, idx, sepKey, newChild)
	return splitResult{}, nil
}

func (t *Tree) splitInternalAndInsert(d []byte, idx int, sepKey []byte, newChild int64) (splitResult, error) {
	n := numKeys(d)
	type entry struct {
		k     []byte
		child int64
	}
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		entries = append(entries, entry{
			k:     append([]byte(nil), internalCellKey(d, i)...),
			child: internalCellChild(d, i),
		})
	}
	entries = append(entries[:idx], append([]entry{{k: append([]byte(nil), sepKey...), child: newChild}}, entries[idx:]...)...)

	mid := len(entries) / 2
	upKey := entries[mid].k
	rightLeftmost := entries[mid].child

	newPage, nfr, err := t.pool.NewPage(t.file)
	if err != nil {
		return splitResult{}, err
	}
	nd := nfr.Data
	initNode(nd, nodeInternal)
	setAux(nd, rightLeftmost)
	for i, e := range entries[mid+1:] {
		insertSlot(nd, i)
		writeInternalCell(nd, i, e.k, e.child)
	}
	t.pool.Unpin(nfr, true)

	leftmost := aux(d)
	setNumKeys(d, 0)
	setCellStart(d, len(d))
	setAux(d, leftmost)
	for i, e := range entries[:mid] {
		insertSlot(d, i)
		writeInternalCell(d, i, e.k, e.child)
	}
	return splitResult{split: true, sepKey: upKey, newPage: newPage}, nil
}

// PackedHeight returns the height Insert gives a tree of n entries, each
// a key of keyLen bytes with an empty value, inserted in ascending key
// order on pages of pageSize bytes — without building it.
// Such inserts fill every leaf before the 100/0 split opens the next, so
// there are ceil(n / leaf capacity) leaves; each new node sends one
// separator (a keyLen-byte key) to the level above, whose rightmost node
// takes separators until full and then splits at its middle entry,
// sending that one up. The height is 1 for an empty tree.
func PackedHeight(pageSize int, n int64, keyLen int) int {
	room := int64(pageSize - headerSize)
	leafCap := max(room/int64(4+keyLen+slotSize), 1)   // leafCellSize
	innerCap := max(room/int64(10+keyLen+slotSize), 2) // internalCellSize
	// A level that receives s separators makes its first node from the
	// first, splits on the (innerCap+1)-th and then on every
	// (mid+1)-th: splitInternalAndInsert leaves innerCap-mid entries on
	// the right, the node the next separators go to.
	mid := (innerCap + 1) / 2
	height := 1
	for s := (n+leafCap-1)/leafCap - 1; s > 0; {
		height++
		if s <= innerCap {
			break
		}
		s = 1 + (s-innerCap-1)/(mid+1)
	}
	return height
}

// Delete removes the entry for key, reporting whether it existed.
func (t *Tree) Delete(key []byte) (bool, error) {
	page := t.root
	for {
		fr, err := t.pool.Get(t.file, page)
		if err != nil {
			return false, err
		}
		d := fr.Data
		if nodeType(d) == nodeInternal {
			next := childPage(d, childIndexFor(d, key))
			t.pool.Unpin(fr, false)
			page = next
			continue
		}
		pos := searchLeaf(d, key)
		if pos < numKeys(d) && bytes.Equal(leafCellKey(d, pos), key) {
			removeSlot(d, pos)
			t.pool.Unpin(fr, true)
			t.count--
			return true, nil
		}
		t.pool.Unpin(fr, false)
		return false, nil
	}
}

// Iterator walks entries in key order. It materializes one leaf at a time
// so it never holds buffer pins across calls. Leaf contents copy into a
// reused arena, so iterating allocates per leaf (amortized to nothing on
// uniform leaves), not per entry — index probes sweep millions of
// entries and a per-entry key copy dominated their profile.
type Iterator struct {
	tree    *Tree
	buf     []byte   // arena backing keys and vals of the current leaf
	keys    [][]byte // alias buf
	vals    [][]byte // alias buf
	idx     int
	next    int64
	invalid bool
}

// SeekGE positions an iterator at the first entry with key >= key.
func (t *Tree) SeekGE(key []byte) (*Iterator, error) {
	page := t.root
	for {
		fr, err := t.pool.Get(t.file, page)
		if err != nil {
			return nil, err
		}
		d := fr.Data
		if nodeType(d) == nodeInternal {
			next := childPage(d, childIndexFor(d, key))
			t.pool.Unpin(fr, false)
			page = next
			continue
		}
		it := &Iterator{tree: t}
		it.loadLeafLocked(d)
		it.idx = searchLeaf(d, key)
		t.pool.Unpin(fr, false)
		if it.idx >= len(it.keys) {
			if err := it.advanceLeaf(); err != nil {
				return nil, err
			}
		}
		return it, nil
	}
}

// SeekFirst positions an iterator at the smallest entry.
func (t *Tree) SeekFirst() (*Iterator, error) { return t.SeekGE([]byte{0}) }

func (it *Iterator) loadLeafLocked(d []byte) {
	n := numKeys(d)
	it.keys = it.keys[:0]
	it.vals = it.vals[:0]
	size := 0
	for i := 0; i < n; i++ {
		size += len(leafCellKey(d, i)) + len(leafCellVal(d, i))
	}
	// Reserve up front so the appends below never reallocate: the
	// subslices handed out as keys and vals stay valid.
	if cap(it.buf) < size {
		it.buf = make([]byte, 0, size)
	}
	it.buf = it.buf[:0]
	for i := 0; i < n; i++ {
		start := len(it.buf)
		it.buf = append(it.buf, leafCellKey(d, i)...)
		it.keys = append(it.keys, it.buf[start:len(it.buf):len(it.buf)])
		start = len(it.buf)
		it.buf = append(it.buf, leafCellVal(d, i)...)
		it.vals = append(it.vals, it.buf[start:len(it.buf):len(it.buf)])
	}
	it.next = aux(d)
	it.idx = 0
}

func (it *Iterator) advanceLeaf() error {
	for {
		if it.next == noSibling {
			it.invalid = true
			return nil
		}
		fr, err := it.tree.pool.Get(it.tree.file, it.next)
		if err != nil {
			return err
		}
		it.loadLeafLocked(fr.Data)
		it.tree.pool.Unpin(fr, false)
		if len(it.keys) > 0 {
			return nil
		}
	}
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return !it.invalid && it.idx < len(it.keys) }

// Key returns the current key. The slice aliases the iterator's arena:
// it is valid only until the next call to Next — copy it to retain.
func (it *Iterator) Key() []byte { return it.keys[it.idx] }

// Next advances to the following entry.
func (it *Iterator) Next() error {
	it.idx++
	if it.idx >= len(it.keys) {
		return it.advanceLeaf()
	}
	return nil
}
