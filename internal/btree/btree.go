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
// Insert has one path. It pins the nodes from the root to the leaf
// (descend). A node with room for the new cell takes it; a full one gets
// a new page, lists its cells with the new one among them (cellsWith),
// writes the two halves from that list (halve) and sends the key between
// them up to its parent as the next level's new cell, and a root that
// splits gets a new root above it. A leaf splits at half its bytes,
// except that the rightmost leaf taking a key above all of its own splits
// 100/0 (the new entry alone goes right), so ascending inserts fill their
// leaves; an internal node splits at its middle entry. An Insert either
// completes or changes nothing. Each node that splits first copies its
// page, and the path stays pinned until the insert is whole, so when a
// NewPage (or the write-back below) fails, the split nodes get their
// copies back and the new pages are dropped unwritten
// (buffer.Pool.Discard) and given back to the file (sim.Disk.Shrink). An
// insert pins at most the path and one more frame: the new root, or a new
// right node until it is written.
//
// A tree over existing entries is built bottom-up by Build, after
// PostgreSQL's sorted CREATE INDEX: from entries in ascending key order it
// fills the open leaf until the next entry does not fit, starts the
// leaf's right sibling with that entry and sends its key up as a
// separator, and each internal level does the same with separators,
// splitting a full node at its middle entry as Insert does. Each node is
// built in the page the disk lends (sim.Disk.AllocPage) and its write
// charged once, like a pool write-back, so a build takes no pool frame
// and leaves no page cached; a failed build gives its pages back. The pages, their numbers and their bytes are exactly those
// inserting the entries one by one in ascending order would leave, and
// a built tree is in the state those inserts leave, down to what the
// shortcut below remembers.
//
// Ascending inserts take a shortcut, after PostgreSQL nbtree's fastpath
// for monotonically increasing keys: the tree remembers the largest key
// it holds or was given and the page of its rightmost leaf, and a key
// above that largest key goes after the leaf's last entry with no
// descent, no binary search and no overwrite check — one pool access
// when it fits. When it does not, the insert descends through each
// node's last child to re-find the leaf and splits it 100/0. A run of
// ascending inserts never returns to the full leaf it leaves, so the
// split writes the remembered leaf back at once (buffer.Pool.WriteBack)
// instead of leaving it for the pool's clock. Any other insert, and
// every Delete, forgets the remembered leaf. The shortcut writes exactly
// the bytes the descent writes.
package btree

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	// path is the tree's levels, leaf first, and cells the list a split
	// halves. Their buffers are reused from one insert to the next.
	path  []level
	cells [][]byte
}

// level is one level of the tree as an insert descends it or Build
// fills it: the node the operation is at, and its scratch.
type level struct {
	page int64
	d    []byte        // the node's bytes: the store's page
	fr   *buffer.Frame // an insert's pin on d; nil above the root
	// idx is the child index the descent took, or in the leaf the slot
	// the new entry goes to.
	idx int
	// cell is the cell this level takes: the new entry in the leaf, the
	// separator of the split below elsewhere.
	cell []byte
	// old is the node's page as it was before it split, and right the
	// page its right half went to.
	old   []byte
	right int64
}

// levelAt returns the buffers of level l, counted from the leaf.
func (t *Tree) levelAt(l int) *level {
	for len(t.path) <= l {
		t.path = append(t.path, level{})
	}
	return &t.path[l]
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

// ErrUnsorted is Build's error for keys that do not strictly ascend,
// found before Build touches the disk: a caller may sort on it alone.
var ErrUnsorted = errors.New("btree: build keys do not strictly ascend")

// Build writes a tree of n entries, entry(i) giving the i-th, whose keys
// must strictly ascend, to a fresh file on the pool's disk, bottom-up
// (see the package comment). A first pass over the keys checks their
// order, so entry(i)'s key must stay as it is while entry(i+1) is
// called. It keeps one open page per level and writes each page as it
// fills, the root last; no page passes through the pool. Each entry is
// checked as Insert checks it, and a failed Build gives every page of its
// file back to the disk. The tree remembers its largest key and
// rightmost leaf as ascending Inserts would have left them.
func Build(pool *buffer.Pool, n int, entry func(i int) (key, val []byte)) (*Tree, error) {
	for i := 1; i < n; i++ {
		prev, _ := entry(i - 1)
		if key, _ := entry(i); bytes.Compare(key, prev) <= 0 {
			return nil, fmt.Errorf("%w: entry %d is not above the one before it", ErrUnsorted, i)
		}
	}
	b := &builder{t: &Tree{pool: pool, file: pool.Disk().CreateFile()}}
	if err := b.build(n, entry); err != nil {
		pool.Disk().Shrink(b.t.file, 0)
		return nil, err
	}
	return b.t, nil
}

// build runs Build on b's empty file. The open (rightmost) node of each
// level is that level's page in b.t.path.
func (b *builder) build(n int, entry func(i int) (key, val []byte)) error {
	b.open(0, nodeLeaf)
	for i := range n {
		if err := b.add(entry(i)); err != nil {
			return err
		}
	}
	for l := range b.t.path {
		if err := b.write(b.t.path[l].page); err != nil {
			return err
		}
		b.t.path[l].d = nil
	}
	b.t.root, b.t.height = b.t.path[len(b.t.path)-1].page, len(b.t.path)
	b.t.top, b.t.last = b.prev, b.t.path[0].page
	return nil
}

// builder is Build's state: the tree and the previous key.
type builder struct {
	t    *Tree
	prev []byte
}

// open gives level l a new open node of type typ on the file's next page,
// zeroed, and returns the level.
func (b *builder) open(l int, typ byte) *level {
	lv := b.t.levelAt(l)
	lv.page, lv.d = b.t.pool.Disk().AllocPage(b.t.file)
	initNode(lv.d, typ)
	return lv
}

// write charges the write of a finished page, whose bytes are already in
// the store, and pays it as a pool write-back does.
func (b *builder) write(page int64) error {
	disk := b.t.pool.Disk()
	cost, err := disk.WritePageDeferWait(b.t.file, page)
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
	b.prev = append(b.prev[:0], key...)
	leaf := &b.t.path[0]
	leaf.cell = appendLeafCell(leaf.cell[:0], key, val)
	if freeSpace(leaf.d) < len(leaf.cell)+slotSize {
		full, d := leaf.page, leaf.d
		b.open(0, nodeLeaf)
		setAux(d, leaf.page)
		if err := b.write(full); err != nil {
			return err
		}
		if err := b.push(1, key, leaf.page, full); err != nil {
			return err
		}
		leaf = &b.t.path[0] // push may have grown the path
	}
	place(leaf.d, numKeys(leaf.d), leaf.cell, false)
	b.t.count++
	return nil
}

// push appends the separator (key, child) to the open node of level l,
// where left is the node of level l-1 that child follows. A level with no
// node yet gets one, left as its leftmost child: the new root. A full node
// splits as Insert's does (split): the left half goes to disk, and the
// right half stays open on a new page and sends its separator up.
func (b *builder) push(l int, key []byte, child, left int64) error {
	if l == len(b.t.path) {
		setAux(b.open(l, nodeInternal).d, left)
	}
	lv := &b.t.path[l]
	lv.idx, lv.cell = numKeys(lv.d), appendInternalCell(lv.cell[:0], key, child)
	if fits(lv.d, len(lv.cell), lv.idx, false) {
		place(lv.d, lv.idx, lv.cell, false)
		return nil
	}
	full, d := lv.page, lv.d
	b.open(l, nodeInternal)
	up := b.t.split(lv, d, lv.d, lv.page, false)
	if err := b.write(full); err != nil {
		return err
	}
	return b.push(l+1, up, lv.page, full)
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

func freeSpace(d []byte) int {
	return cellStart(d) - headerSize - numKeys(d)*slotSize
}

// liveBytes returns the bytes a compacted copy of the node would use,
// excluding the header.
func liveBytes(d []byte) int {
	n := numKeys(d)
	total := n * slotSize
	for i := range n {
		total += len(cellAt(d, i))
	}
	return total
}

// compact rewrites the node's cells contiguously, reclaiming dead space
// left by deletions and overwrites.
func compact(d []byte) {
	old := slices.Clone(d)
	setCellStart(d, len(d))
	for i := range numKeys(d) {
		putCell(d, i, cellAt(old, i))
	}
}

// appendLeafCell appends the leaf cell of (key, val) to dst.
func appendLeafCell(dst, key, val []byte) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(val)))
	return append(append(dst, key...), val...)
}

// appendInternalCell appends the internal cell of (key, child) to dst.
func appendInternalCell(dst, key []byte, child int64) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(key)))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(child))
	return append(dst, key...)
}

// putCell places cell c's bytes below the node's cells and points slot i
// at them. The slot directory entry for i must already be accounted in
// numKeys.
func putCell(d []byte, i int, c []byte) {
	start := cellStart(d) - len(c)
	copy(d[start:], c)
	setSlotOff(d, i, start)
	setCellStart(d, start)
}

// cellAt returns the bytes of the cell in slot i, of either node type.
func cellAt(d []byte, i int) []byte {
	off := slotOff(d, i)
	klen := int(binary.LittleEndian.Uint16(d[off:]))
	if nodeType(d) == nodeLeaf {
		return d[off : off+4+klen+int(binary.LittleEndian.Uint16(d[off+2:]))]
	}
	return d[off : off+10+klen]
}

// cellKey returns the key of cell c of a node of type typ.
func cellKey(typ byte, c []byte) []byte {
	if typ == nodeLeaf {
		return c[4 : 4+binary.LittleEndian.Uint16(c)]
	}
	return c[10:]
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

// Insert adds or overwrites the entry for key. It either completes or
// changes nothing: a failed Insert leaves every page, the file and Len as
// they were.
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
	if !asc {
		t.last = noSibling
	}
	leaf := t.levelAt(0)
	leaf.cell = appendLeafCell(leaf.cell[:0], key, val)
	var done bool
	var err error
	if asc && t.last != noSibling {
		done, err = t.appendLast(leaf.cell)
	}
	if !done && err == nil {
		err = t.insert(key, asc)
	}
	if err == nil && asc {
		t.top = append(t.top[:0], key...)
	}
	return err
}

// appendLast places the leaf cell c, whose key sorts after every key in
// the tree, after the last slot of the remembered rightmost leaf when it
// fits there without a split. It reports false, having changed nothing,
// when the leaf is full.
func (t *Tree) appendLast(c []byte) (bool, error) {
	fr, err := t.pool.Get(t.file, t.last)
	if err != nil {
		return false, err
	}
	d := fr.Data
	if !fits(d, len(c), numKeys(d), false) {
		t.pool.Unpin(fr, false)
		return false, nil
	}
	place(d, numKeys(d), c, false)
	t.pool.Unpin(fr, true)
	t.count++
	return true, nil
}

// insert places the leaf cell of levelAt(0) for key along the path
// descend pins. Each full node on the way up splits onto a new page and
// sends its separator to the level above; a root that splits gets a new
// root. Until a level with room takes its cell, the path stays pinned and
// each split node's old page is kept, so a failure takes every split back
// (undo).
func (t *Tree) insert(key []byte, asc bool) error {
	remembered := t.last
	if err := t.descend(key, asc); err != nil {
		return err
	}
	leaf := &t.path[0]
	replace := leaf.idx < numKeys(leaf.d) && bytes.Equal(leafCellKey(leaf.d, leaf.idx), key)
	l, repl := 0, replace
	for {
		lv := &t.path[l]
		if lv.fr == nil { // the root split: a new root goes above it
			page, fr, err := t.pool.NewPage(t.file)
			if err != nil {
				return t.undo(l, err)
			}
			initNode(fr.Data, nodeInternal)
			setAux(fr.Data, t.root)
			lv.page, lv.d, lv.fr, lv.idx = page, fr.Data, fr, 0
		}
		if fits(lv.d, len(lv.cell), lv.idx, repl) {
			break
		}
		page, fr, err := t.pool.NewPage(t.file)
		if err != nil {
			return t.undo(l, err)
		}
		sep := t.split(lv, lv.d, fr.Data, page, repl)
		t.pool.Unpin(fr, true)
		lv.right = page
		up := &t.path[l+1]
		up.cell = appendInternalCell(up.cell[:0], sep, page)
		l, repl = l+1, false
	}
	// Every page is in hand. The insert is whole once the remembered
	// leaf, when it split, is on disk and level l takes its cell, which
	// cannot fail. The leaf is unpinned dirty first, so that the write
	// sees the split; undo restores it through its bytes.
	if l > 0 && remembered != noSibling {
		t.pool.Unpin(leaf.fr, true)
		leaf.fr = nil
		if err := t.pool.WriteBack(t.file, remembered); err != nil {
			return t.undo(l, err)
		}
	}
	lv := &t.path[l]
	place(lv.d, lv.idx, lv.cell, repl)
	if !replace {
		t.count++
	}
	if asc {
		t.last = leaf.page
		if l > 0 {
			t.last = leaf.right
		}
	}
	if l == t.height {
		t.root, t.height = lv.page, t.height+1
	}
	t.release(l + 1)
	return nil
}

// descend pins the nodes from the root to the leaf where key goes into
// t.path, leaf first, each with the child index it takes (the last for an
// ascending key) or, in the leaf, the slot. The level above the root is
// left without a node, for a root split. On an error nothing stays pinned.
func (t *Tree) descend(key []byte, asc bool) error {
	t.levelAt(t.height)
	page := t.root
	for l := t.height - 1; l >= 0; l-- {
		fr, err := t.pool.Get(t.file, page)
		if err != nil {
			t.release(0)
			return err
		}
		d := fr.Data
		idx := numKeys(d)
		switch {
		case asc:
		case l == 0:
			idx = searchLeaf(d, key)
		default:
			idx = childIndexFor(d, key)
		}
		lv := &t.path[l]
		lv.page, lv.d, lv.fr, lv.idx = page, d, fr, idx
		if l > 0 {
			page = childPage(d, idx)
		}
	}
	return nil
}

// undo takes back an insert that failed at level l: each level below it
// gets back its page as it was before it split, and the pages the insert
// added (the new right halves, and a new root) leave the pool unwritten
// and the file. It returns err.
func (t *Tree) undo(l int, err error) error {
	for _, lv := range t.path[:l] {
		copy(lv.d, lv.old)
	}
	t.release(0)
	if l > 0 {
		// The leaf's new right half was the insert's first new page, and
		// every page after it in the file is the insert's too.
		disk, first := t.pool.Disk(), t.path[0].right
		for p := first; p < disk.NumPages(t.file); p++ {
			t.pool.Discard(t.file, p)
		}
		disk.Shrink(t.file, first)
	}
	return err
}

// release unpins the path, marking the levels below changed dirty.
func (t *Tree) release(changed int) {
	for l := range t.path {
		lv := &t.path[l]
		if lv.fr != nil {
			t.pool.Unpin(lv.fr, l < changed)
		}
		lv.fr, lv.d = nil, nil
	}
}

// fits reports whether node d has room for a cell of size bytes at slot
// pos, the cell there gone when replace is set, once compacted if need be.
func fits(d []byte, size, pos int, replace bool) bool {
	need, free := size+slotSize, freeSpace(d)
	if replace {
		free += slotSize
	}
	if free >= need {
		return true
	}
	live := liveBytes(d)
	if replace {
		live -= len(cellAt(d, pos)) + slotSize
	}
	return live+need <= len(d)-headerSize
}

// place puts cell c, which fits, at slot pos of node d, in place of the
// cell there when replace is set, compacting d first when its free space
// alone is too small.
func place(d []byte, pos int, c []byte, replace bool) {
	if replace {
		removeSlot(d, pos)
	}
	if freeSpace(d) < len(c)+slotSize {
		compact(d)
	}
	insertSlot(d, pos)
	putCell(d, pos, c)
}

// split halves level lv's full node d around the level's cell at slot
// lv.idx (in place of the cell there when replace is set) onto nd, the
// new node on page page, and returns the key that goes up. lv.old keeps
// d's page as it was; the halves are written from its cells.
func (t *Tree) split(lv *level, d, nd []byte, page int64, replace bool) []byte {
	lv.old = append(lv.old[:0], d...)
	t.cells = cellsWith(t.cells[:0], lv.old, lv.idx, lv.cell, replace)
	return halve(d, nd, page, t.cells, lv.idx)
}

// cellsWith appends to cells the cells of node d in slot order, with c at
// slot pos, in place of the cell there when replace is set.
func cellsWith(cells [][]byte, d []byte, pos int, c []byte, replace bool) [][]byte {
	n := numKeys(d)
	for i := range n {
		if i == pos {
			cells = append(cells, c)
			if replace {
				continue
			}
		}
		cells = append(cells, cellAt(d, i))
	}
	if pos == n {
		cells = append(cells, c)
	}
	return cells
}

// halve writes cells, the cells of the full node d with a new one at slot
// pos, into d and nd, a new node of d's type on page page, and returns
// the key that separates the two in the parent. An internal node splits
// at its middle cell, whose key goes up alone and whose child becomes
// nd's leftmost. A leaf splits at half its bytes, or 100/0 when it is the
// rightmost leaf and the new cell goes last, and nd follows d in the leaf
// chain.
func halve(d, nd []byte, page int64, cells [][]byte, pos int) []byte {
	typ := nodeType(d)
	initNode(nd, typ)
	at, right := len(cells)/2, 0
	if typ == nodeInternal {
		right = at + 1
		setAux(nd, int64(binary.LittleEndian.Uint64(cells[at][2:])))
	} else {
		if pos == numKeys(d) && aux(d) == noSibling {
			at = len(cells) - 1
		} else {
			total, acc := 0, 0
			for _, c := range cells {
				total += len(c) + slotSize
			}
			for at = 0; acc < total/2; at++ {
				acc += len(cells[at]) + slotSize
			}
			at = max(min(at, len(cells)-1), 1)
		}
		right = at
		setAux(nd, aux(d))
		setAux(d, page)
	}
	fill(d, cells[:at])
	fill(nd, cells[right:])
	return cellKey(typ, cells[at])
}

// fill rewrites node d to hold cells, in slot order.
func fill(d []byte, cells [][]byte) {
	setNumKeys(d, len(cells))
	setCellStart(d, len(d))
	for i, c := range cells {
		putCell(d, i, c)
	}
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
	innerCap := max(room/int64(10+keyLen+slotSize), 2) // an internal cell
	// A level that receives s separators makes its first node from the
	// first, splits on the (innerCap+1)-th and then on every
	// (mid+1)-th: an internal split (halve) leaves innerCap-mid entries
	// on the right, the node the next separators go to.
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
