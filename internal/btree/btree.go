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
//
// A tree over existing entries is built bottom-up by Build, after
// PostgreSQL's sorted CREATE INDEX: from entries in ascending key order it
// fills the open leaf until the next entry does not fit, starts the
// leaf's right sibling with that entry and sends its key up as a
// separator, and each internal level does the same with separators,
// splitting a full node at its middle entry. Each node is built in the
// page the disk lends (sim.Disk.AllocPage) and its write charged once,
// like a pool write-back, so a build takes no pool frame, leaves no page
// cached and copies no page; a failed build gives its pages back. The
// pages, their numbers and their bytes are exactly those inserting the
// entries one by one in ascending order would leave: Insert splits the
// rightmost leaf 100/0 (the new entry alone goes right) and any other
// leaf at half its bytes. A built tree is in the state those inserts
// leave, down to what the shortcut below remembers.
//
// Insert is the runtime path. Ascending inserts take a shortcut, after
// PostgreSQL nbtree's fastpath for monotonically increasing keys: the
// tree remembers the largest key it holds or was given and the page of
// its rightmost leaf, and a key above that largest key goes after the
// leaf's last entry with no descent, no binary search and no overwrite
// check — one pool access when it fits. When it does not, the insert
// descends through each node's last child to re-find the leaf and splits
// it 100/0. A run of ascending inserts never returns to the full leaf it
// leaves, so the split writes the remembered leaf back at once
// (buffer.Pool.WriteBack) instead of leaving it for the pool's clock.
// When the full leaf's cells already lie packed in slot order, as
// ascending inserts leave them, they stay where they are rather than
// being copied out and rewritten: the new right leaf, holding just the
// new entry, is the only page the split writes cells to. Any other
// insert, and every Delete, forgets the remembered leaf. The shortcuts
// write exactly the bytes the general path writes.
package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
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
	// top is the largest key ever inserted, so at least every key in the
	// tree: a key above it goes after the last entry of every node on its
	// way down (see Insert).
	top []byte
	// last is the page of the rightmost leaf, where the next key above
	// top goes, or noSibling when the tree does not know it.
	last int64
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
	t.root, t.last = page, page
	return t, nil
}

// Build writes a tree of n entries, entry(i) giving the i-th, whose keys
// must strictly ascend, to a fresh file on the pool's disk, bottom-up
// (see the package comment). It keeps one open page per level and writes
// each page as it fills, the root last; no page passes through the pool.
// Each entry is checked as Insert checks it, and a failed Build gives
// every page of its file back to the disk. The tree remembers its
// largest key and rightmost leaf as ascending Inserts would have left
// them.
func Build(pool *buffer.Pool, n int, entry func(i int) (key, val []byte)) (*Tree, error) {
	b := &builder{t: &Tree{pool: pool, file: pool.Disk().CreateFile()}}
	if err := b.build(n, entry); err != nil {
		pool.Disk().Shrink(b.t.file, 0)
		return nil, err
	}
	return b.t, nil
}

// build runs Build on b's empty file.
func (b *builder) build(n int, entry func(i int) (key, val []byte)) error {
	b.open = []node{b.newNode(nodeLeaf)}
	for i := range n {
		if err := b.add(entry(i)); err != nil {
			return err
		}
	}
	for _, nd := range b.open {
		if err := b.write(nd); err != nil {
			return err
		}
	}
	b.t.root, b.t.height = b.open[len(b.open)-1].page, len(b.open)
	b.t.top, b.t.last = b.prev, b.open[0].page
	return nil
}

// builder is Build's state: the open (rightmost) node of every level,
// leaf first, and the previous key.
type builder struct {
	t    *Tree
	open []node
	prev []byte
}

// node is a page being built: its number and its bytes, lent by the disk.
type node struct {
	page int64
	d    []byte
}

// newNode allocates the file's next page, zeroed, for a node of type typ.
func (b *builder) newNode(typ byte) node {
	page, d := b.t.pool.Disk().AllocPage(b.t.file)
	initNode(d, typ)
	return node{page: page, d: d}
}

// write charges the write of a finished node, whose bytes are already in
// the store, and pays it as a pool write-back does.
func (b *builder) write(nd node) error {
	disk := b.t.pool.Disk()
	cost, err := disk.WritePageDeferWait(b.t.file, nd.page)
	disk.PayWait(cost)
	return err
}

// add appends (key, val) to the open leaf. When it does not fit, the leaf
// gets its right sibling's page and goes to disk, and the sibling starts
// with the entry, its key the separator for the level above.
func (b *builder) add(key, val []byte) error {
	if err := b.t.checkEntry(key, val); err != nil {
		return err
	}
	if b.t.count > 0 && bytes.Compare(key, b.prev) <= 0 {
		return fmt.Errorf("btree: build entry %d is not above the one before it", b.t.count)
	}
	b.prev = append(b.prev[:0], key...)
	if leaf := b.open[0]; freeSpace(leaf.d) < leafCellSize(key, val)+slotSize {
		next := b.newNode(nodeLeaf)
		setAux(leaf.d, next.page)
		if err := b.write(leaf); err != nil {
			return err
		}
		b.open[0] = next
		if err := b.push(1, key, next.page, leaf.page); err != nil {
			return err
		}
	}
	d := b.open[0].d
	i := numKeys(d)
	insertSlot(d, i)
	writeLeafCell(d, i, key, val)
	b.t.count++
	return nil
}

// push appends the separator (key, child) to the open node of level l,
// where left is the node of level l-1 that child follows. A level with no
// node yet gets one, left as its leftmost child: the new root. A full node
// splits at its middle entry as Insert's does: the left half goes to disk,
// the right half stays open on a new page, and the middle key goes up.
func (b *builder) push(l int, key []byte, child, left int64) error {
	if l == len(b.open) {
		root := b.newNode(nodeInternal)
		setAux(root.d, left)
		b.open = append(b.open, root)
	}
	nd := b.open[l]
	idx := numKeys(nd.d)
	if freeSpace(nd.d) >= internalCellSize(key)+slotSize {
		insertSlot(nd.d, idx)
		writeInternalCell(nd.d, idx, key, child)
		return nil
	}
	right := b.newNode(nodeInternal)
	up := splitInternal(nd.d, right.d, idx, key, child)
	if err := b.write(nd); err != nil {
		return err
	}
	b.open[l] = right
	return b.push(l+1, up, right.page, nd.page)
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

// checkEntry rejects an entry no leaf could hold: an empty key, or a cell
// above a quarter of the page, so every split leaves both halves room.
func (t *Tree) checkEntry(key, val []byte) error {
	if len(key) == 0 {
		return fmt.Errorf("btree: empty key")
	}
	maxCell := (t.pool.Disk().PageSize() - headerSize - slotSize*4) / 4
	if leafCellSize(key, val) > maxCell {
		return fmt.Errorf("btree: entry of %d bytes too large for page", leafCellSize(key, val))
	}
	return nil
}

// Insert adds or overwrites the entry for key. A failed Insert changes no
// leaf, and counts the entry only once a leaf holds it.
//
// A key above every key in the tree (asc) needs no search. When the tree
// remembers its rightmost leaf and the entry fits there, it goes after
// the leaf's last slot: one pool access. Otherwise it descends through
// each node's last child, re-finding the rightmost leaf, and a full leaf
// splits 100/0. When the split leaf is the remembered one, every insert
// since the tree found it was ascending: the run has left the leaf for
// good, so it is written back at once (buffer.Pool.WriteBack) rather
// than left dirty for the pool's clock. Any other key searches its way
// down and makes the tree forget its rightmost leaf, which a split in
// the middle of the key range can move; the next ascending insert
// re-finds it, and a leaf it splits at once is left to the clock.
func (t *Tree) Insert(key, val []byte) error {
	if err := t.checkEntry(key, val); err != nil {
		return err
	}
	asc := bytes.Compare(key, t.top) > 0
	if asc {
		t.top = append(t.top[:0], key...)
		if t.last != noSibling {
			if done, err := t.appendLast(key, val); done || err != nil {
				return err
			}
		}
	} else {
		t.last = noSibling
	}
	remembered := t.last
	res, err := t.insertRec(t.root, key, val, asc)
	if err != nil {
		return err
	}
	if res.split {
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
	}
	if remembered != noSibling && t.last != remembered {
		// The remembered leaf split. It took only ascending inserts
		// since the tree found it: the sorted run has left it for good,
		// so it goes to disk now, once the split is complete.
		return t.pool.WriteBack(t.file, remembered)
	}
	return nil
}

// appendLast places (key, val), which sorts after every key in the tree,
// after the last slot of the remembered rightmost leaf when it fits there
// without a split. It reports false, having changed nothing, when the
// leaf is full.
func (t *Tree) appendLast(key, val []byte) (bool, error) {
	fr, err := t.pool.Get(t.file, t.last)
	if err != nil {
		return false, err
	}
	d := fr.Data
	if need := leafCellSize(key, val) + slotSize; freeSpace(d) < need && liveBytes(d)+need > len(d)-headerSize {
		t.pool.Unpin(fr, false)
		return false, nil
	}
	_, dirty, err := t.insertLeaf(d, key, val, true)
	t.pool.Unpin(fr, dirty)
	return true, err
}

func (t *Tree) insertRec(page int64, key, val []byte, asc bool) (splitResult, error) {
	fr, err := t.pool.Get(t.file, page)
	if err != nil {
		return splitResult{}, err
	}
	d := fr.Data
	if nodeType(d) == nodeLeaf {
		res, dirty, err := t.insertLeaf(d, key, val, asc)
		t.pool.Unpin(fr, dirty)
		if err == nil && asc {
			// The rightmost leaf, or its new right sibling.
			t.last = page
			if res.split {
				t.last = res.newPage
			}
		}
		return res, err
	}
	idx := numKeys(d)
	if !asc {
		idx = childIndexFor(d, key)
	}
	child := childPage(d, idx)
	// Recurse without holding the parent pinned? We must keep it pinned so
	// that a child split can be applied; pool capacity covers tree height.
	res, err := t.insertRec(child, key, val, asc)
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
// An existing entry for key is replaced; a replacement that needs a split
// leaves the old entry in place until the split has its new page. A key
// above every key in the tree (asc) goes last, with no search.
func (t *Tree) insertLeaf(d []byte, key, val []byte, asc bool) (splitResult, bool, error) {
	pos := numKeys(d)
	if !asc {
		pos = searchLeaf(d, key)
	}
	replace := pos < numKeys(d) && bytes.Equal(leafCellKey(d, pos), key)
	need := leafCellSize(key, val) + slotSize
	// The room the leaf has once a replaced entry's slot is gone; its
	// cell's bytes stay until a compaction.
	free := freeSpace(d)
	if replace {
		free += slotSize
	}
	squeeze := free < need
	if squeeze {
		live := liveBytes(d)
		if replace {
			live -= leafCellSize(leafCellKey(d, pos), leafCellVal(d, pos)) + slotSize
		}
		if live+need > len(d)-headerSize {
			return t.splitLeafAndInsert(d, key, val, pos, replace)
		}
	}
	if replace {
		removeSlot(d, pos)
		t.count--
	}
	if squeeze {
		compact(d)
	}
	insertSlot(d, pos)
	writeLeafCell(d, pos, key, val)
	t.count++
	return splitResult{}, true, nil
}

// splitLeafAndInsert splits a full leaf around the insertion of (key,val)
// at slot position pos, which replaces the entry there when replace is
// set. The leaf is rewritten only once the new right page is pinned, so a
// split that fails leaves it, and the count, as they were.
func (t *Tree) splitLeafAndInsert(d []byte, key, val []byte, pos int, replace bool) (splitResult, bool, error) {
	n := numKeys(d)
	if pos == n && aux(d) == noSibling && packed(d) {
		return t.splitLast(d, key, val)
	}
	type entry struct{ k, v []byte }
	entries := make([]entry, 0, n+1)
	for i := 0; i < n; i++ {
		if replace && i == pos {
			continue
		}
		entries = append(entries, entry{
			k: append([]byte(nil), leafCellKey(d, i)...),
			v: append([]byte(nil), leafCellVal(d, i)...),
		})
	}
	entries = slices.Insert(entries, pos, entry{k: append([]byte(nil), key...), v: append([]byte(nil), val...)})

	// Choose the split point. Rightmost insertion into the rightmost leaf
	// uses a 100/0 split so ascending inserts fill pages completely.
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
	if !replace {
		t.count++
	}
	nd := nfr.Data
	initNode(nd, nodeLeaf)
	setAux(nd, aux(d)) // new right node inherits old sibling

	// Rewrite left node with entries[:splitAt].
	setNumKeys(d, 0)
	setCellStart(d, len(d))
	for i, e := range entries[:splitAt] {
		insertSlot(d, i)
		writeLeafCell(d, i, e.k, e.v)
	}
	setAux(d, newPage)

	for i, e := range entries[splitAt:] {
		insertSlot(nd, i)
		writeLeafCell(nd, i, e.k, e.v)
	}
	sep := append([]byte(nil), entries[splitAt].k...)
	t.pool.Unpin(nfr, true)
	return splitResult{split: true, sepKey: sep, newPage: newPage}, true, nil
}

// packed reports whether a leaf's cells lie back to back from the end of
// the page in slot order, with nothing below them: the layout rewriting
// them in slot order gives.
func packed(d []byte) bool {
	off := len(d)
	for i := range numKeys(d) {
		off -= len(leafCellKey(d, i)) + len(leafCellVal(d, i)) + 4
		if slotOff(d, i) != off {
			return false
		}
	}
	return cellStart(d) == off
}

// splitLast is the 100/0 split of the full rightmost leaf d around
// (key, val), which sorts after all of d's keys, when d is packed: the
// left half keeps every cell where it is and only gains its new right
// sibling, which takes the one new entry.
func (t *Tree) splitLast(d []byte, key, val []byte) (splitResult, bool, error) {
	newPage, nfr, err := t.pool.NewPage(t.file)
	if err != nil {
		return splitResult{}, false, err
	}
	nd := nfr.Data
	initNode(nd, nodeLeaf)
	insertSlot(nd, 0)
	writeLeafCell(nd, 0, key, val)
	t.pool.Unpin(nfr, true)
	setAux(d, newPage)
	t.count++
	return splitResult{split: true, sepKey: append([]byte(nil), key...), newPage: newPage}, true, nil
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

// splitInternalAndInsert splits the full internal node d onto a new page
// (splitInternal); d is unchanged when the page cannot be had.
func (t *Tree) splitInternalAndInsert(d []byte, idx int, sepKey []byte, newChild int64) (splitResult, error) {
	newPage, nfr, err := t.pool.NewPage(t.file)
	if err != nil {
		return splitResult{}, err
	}
	up := splitInternal(d, nfr.Data, idx, sepKey, newChild)
	t.pool.Unpin(nfr, true)
	return splitResult{split: true, sepKey: up, newPage: newPage}, nil
}

// splitInternal splits the full internal node d around the insertion of
// (sepKey, newChild) at child index idx: d keeps the entries left of the
// middle one, nd (a page of the same size) takes those right of it, its
// leftmost child the middle entry's, and the middle key is returned to
// go up a level.
func splitInternal(d, nd []byte, idx int, sepKey []byte, newChild int64) []byte {
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
	entries = slices.Insert(entries, idx, entry{k: append([]byte(nil), sepKey...), child: newChild})

	mid := len(entries) / 2
	initNode(nd, nodeInternal)
	setAux(nd, entries[mid].child)
	for i, e := range entries[mid+1:] {
		insertSlot(nd, i)
		writeInternalCell(nd, i, e.k, e.child)
	}

	leftmost := aux(d)
	setNumKeys(d, 0)
	setCellStart(d, len(d))
	setAux(d, leftmost)
	for i, e := range entries[:mid] {
		insertSlot(d, i)
		writeInternalCell(d, i, e.k, e.child)
	}
	return entries[mid].k
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

// Delete removes the entry for key, reporting whether it existed. It
// forgets the rightmost leaf (see Insert).
func (t *Tree) Delete(key []byte) (bool, error) {
	t.last = noSibling
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
