// Package heap implements slotted-page heap files: the tuple storage that
// every table, index scan and correlation-map scan ultimately reads.
//
// A heap page holds a small header, a slot directory that grows forward and
// tuple bytes that grow backward from the end of the page. Tuples are
// opaque byte strings; the table layer encodes and decodes rows.
//
// Every tuple additionally carries a pair of MVCC timestamps (begin, end)
// in memory. A tuple is visible to a snapshot when it was created at or
// before the snapshot and not ended by it; snapshot 0 is the "latest"
// sentinel that sees exactly the tuples whose end timestamp is unset.
// Every tuple begins at its writer statement's timestamp, which is never
// 0 — a bulk load's included — so no snapshot taken before the statement
// sees it. Version state grows with writes, not with rows: a page whose
// slots all share one begin and none has ended (a bulk load's pages, once
// Clip folds them) keeps that one page-level version, and the first write
// to the page builds its per-slot array.
//
// Space is reclaimed inside its page. An ended version that no snapshot
// can read any more is marked dead (MarkDead), and a physically deleted
// tuple leaves an erased slot; both slots are reusable at once, and their
// bytes come back when a placement needs the page's contiguous gap: the
// prune erases the dead slots, packs the remaining tuples toward the end
// of the page, and trims empty slots off the directory's end. Slot numbers
// of surviving tuples never change, so RIDs stay valid. An in-memory
// account per page (contiguous free bytes plus reclaimable bytes) answers
// Room without reading the page, and the pages that have anything to
// reclaim sit in size classes so BestFit finds the tightest one in a few
// word operations. Appends (Load's) still go to the tail, in order, and
// Load writes each full tail page back as it opens the next, so a bulk
// load reaches disk as one sequential run of heap pages.
//
// A version can also be replaced in its slot (ReplaceAt): the new bytes
// overwrite the old ones, of the same length, and a copy of the old ones
// stays in memory as the slot's pre-image, ended at the new version's
// begin. A snapshot that cannot see the slot's own version reads the
// pre-image instead when it can see that, until the owner drops it
// (DropPreImage) or an abort puts it back (RestoreAt). A per-page count
// guards the lookup, so a sweep of a page without pre-images pays one
// check for the page.
package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/buffer"
	"repro/internal/sim"
)

// Page header layout.
const (
	offNumSlots  = 0 // uint16
	offCellStart = 2 // uint16: lowest byte offset used by tuple data
	headerSize   = 4
	slotSize     = 4 // offset uint16, length uint16
)

// classWidth is the granularity, in bytes of room, of the size classes
// BestFit searches: a reclaimable page files under class Room/classWidth.
const classWidth = 64

// gone is the begin and end timestamp of a slot no snapshot will read
// again: a dead version waiting for its page's prune, or an erased slot.
const gone = ^uint64(0)

// RID identifies a tuple: heap page number and slot within the page.
type RID struct {
	Page int64
	Slot uint16
}

// String renders the RID as page:slot.
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// tupleVersion holds the MVCC begin/end timestamps of one slot: begin is
// the writing statement's timestamp (never 0); a zero end means "not
// ended".
type tupleVersion struct {
	begin, end uint64
}

// visibleAt reports whether a version is visible to a snapshot. Snapshot 0
// is the latest-state sentinel: it sees exactly the un-ended tuples.
func visibleAt(v tupleVersion, snap uint64) bool {
	if snap == 0 {
		return v.end == 0
	}
	return v.begin <= snap && (v.end == 0 || v.end > snap)
}

// retracted reports whether ScanUnretracted skips a version: dead or
// erased, or ended by a statement published at or before published.
func retracted(v tupleVersion, published uint64) bool {
	return v.begin == gone || (v.end != 0 && v.end <= published)
}

// versionSize is the bytes one slot's version takes in a per-slot array.
const versionSize = int64(unsafe.Sizeof(tupleVersion{}))

// pageVersions holds one page's MVCC versions in one of two forms. A
// folded page — every slot begun at the same timestamp, none ended, dead
// or erased, no pre-image — keeps that begin and its slot count and no
// per-slot array; any other page keeps slots, one version per slot of its
// directory. Clip folds; exact, which every write to a page's versions
// goes through, builds a folded page's array. Reads go through at and
// len, which see both forms alike.
type pageVersions struct {
	slots []tupleVersion
	begin uint64 // the folded page's one begin; 0 when slots holds the versions
	n     int    // the folded page's slot count
}

// pageLevelSize is the bytes of a page's page-level version: the folded
// form's begin and slot count, which every page carries beside slots.
const pageLevelSize = int64(unsafe.Sizeof(pageVersions{}) - unsafe.Sizeof([]tupleVersion(nil)))

// folded reports whether the page keeps one page-level version.
func (pv *pageVersions) folded() bool { return pv.begin != 0 }

// len returns the page's slot count.
func (pv *pageVersions) len() int {
	if pv.folded() {
		return pv.n
	}
	return len(pv.slots)
}

// at returns slot s's version; s must be below len.
func (pv *pageVersions) at(s int) tupleVersion {
	if pv.folded() {
		return tupleVersion{begin: pv.begin}
	}
	return pv.slots[s]
}

// preImage is the version an in-place replacement overwrote: a copy of its
// bytes and its timestamps, ended at the replacement's begin.
type preImage struct {
	tuple []byte
	ver   tupleVersion
}

// pageSpace is a page's in-memory space account: free is the contiguous
// gap between the slot directory and the tuple bytes, garbage the bytes
// of dead and erased tuples that a prune gives back. Their sum is the
// page's Room.
type pageSpace struct {
	free, garbage uint16
}

// pageReuse is what a page has to give back: its dead slots (the bytes
// still on the page), its erased slots (length 0) and its place in the
// size classes. Only pages with a dead or erased slot or garbage bytes
// have one.
type pageReuse struct {
	dead, erased []uint16
	class, pos   int // classes[class][pos] is this page; class -1 when unfiled
}

// File is a heap file of slotted pages.
//
// Concurrency matches the owning table's latch discipline: the version side
// arrays and the space accounts are plain slices and maps, so mutators
// (AppendAt, PutAt, ReplaceAt, RestoreAt, DropPreImage, SetEnd,
// ClearEnd, MarkDead, Delete) must hold the
// table latch exclusively while readers hold it shared. A placement may
// prune its page, moving tuple bytes within it, so no reader keeps a
// tuple slice across a release of the latch.
type File struct {
	pool *buffer.Pool
	file sim.FileID

	numPages int64
	tuples   int64

	// vers[page] carries the page's MVCC timestamps, folded or per slot.
	// Grown and trimmed in lockstep with the slot directories.
	vers []pageVersions

	// space[page] is the page's space account; reuse the pages that
	// have something to give back, each filed in classes by its room
	// (nonEmpty has bit c set while classes[c] has a page).
	space    []pageSpace
	reuse    map[int64]*pageReuse
	classes  [][]int64
	nonEmpty []uint64

	// pre holds the pre-images of slots replaced in place, and
	// preOn[page] how many of them the page has: the per-page guard
	// that keeps a sweep of a page without any off the map. Both stay
	// nil until the first ReplaceAt, so a heap never updated in place
	// carries nothing for them.
	pre   map[RID]preImage
	preOn map[int64]int

	dead, reclaimed int64
	scratch         []byte // one page of packing space for prune
}

// NewFile creates an empty heap file on the pool's disk.
func NewFile(pool *buffer.Pool) *File {
	h := &File{pool: pool, file: pool.Disk().CreateFile(), reuse: map[int64]*pageReuse{}}
	n := h.EmptyRoom()/classWidth + 1
	h.classes = make([][]int64, n)
	h.nonEmpty = make([]uint64, (n+63)/64)
	return h
}

// FileID returns the simulated-disk file backing the heap.
func (h *File) FileID() sim.FileID { return h.file }

// NumPages returns the number of allocated heap pages.
func (h *File) NumPages() int64 { return h.numPages }

// TupleCount returns the number of live tuples.
func (h *File) TupleCount() int64 { return h.tuples }

// DeadVersions returns how many versions are marked dead and not yet
// pruned away or overwritten.
func (h *File) DeadVersions() int64 { return h.dead }

// ReclaimedVersions returns the running total of dead versions whose
// slot and bytes a prune or a placement took back, plus the pre-images
// DropPreImage handed back.
func (h *File) ReclaimedVersions() int64 { return h.reclaimed }

// Slots returns the number of slot-directory entries over all pages —
// live, ended, dead and erased — which pruning keeps bounded.
func (h *File) Slots() int64 {
	var n int64
	for i := range h.vers {
		n += int64(h.vers[i].len())
	}
	return n
}

// VersionBytes returns the bytes the MVCC versions take in memory: the
// per-slot arrays' capacities plus every page's page-level version. A
// file no write has touched since Clip holds only the latter.
func (h *File) VersionBytes() int64 {
	n := int64(len(h.vers)) * pageLevelSize
	for _, pv := range h.vers {
		n += int64(cap(pv.slots)) * versionSize
	}
	return n
}

// Clip gives back what a bulk load's appends left in memory once it has
// filled the file. A page whose slots all share one begin and none has
// ended, with no pre-image, folds into its page-level version; any other
// page's versions move into an array of exactly its length. A later write
// to a page builds or grows that page's array alone.
func (h *File) Clip() {
	vers := make([]pageVersions, len(h.vers))
	for p, pv := range h.vers {
		switch {
		case pv.folded():
			vers[p] = pv
		case h.foldable(int64(p)):
			vers[p] = pageVersions{begin: pv.slots[0].begin, n: len(pv.slots)}
		default:
			vers[p].slots = make([]tupleVersion, len(pv.slots))
			copy(vers[p].slots, pv.slots)
		}
	}
	h.vers = vers
	h.space = append(make([]pageSpace, 0, len(h.space)), h.space...)
}

// foldable reports whether a page's per-slot versions can fold into one:
// it has a slot, every slot carries the first one's begin and no end (a
// dead or erased slot's begin is gone), and no slot holds a pre-image.
func (h *File) foldable(page int64) bool {
	slots := h.vers[page].slots
	if len(slots) == 0 || slots[0].begin == gone || h.hasPreOn(page) {
		return false
	}
	for _, v := range slots {
		if v != (tupleVersion{begin: slots[0].begin}) {
			return false
		}
	}
	return true
}

// exact returns the page's per-slot versions for a write to change,
// building a folded page's array first. Every write to a version goes
// through it.
func (h *File) exact(page int64) []tupleVersion {
	pv := &h.vers[page]
	if pv.folded() {
		slots := make([]tupleVersion, pv.n)
		for i := range slots {
			slots[i].begin = pv.begin
		}
		*pv = pageVersions{slots: slots}
	}
	return pv.slots
}

// EmptyRoom returns the room of an empty page: the most a placement can
// ask of one page.
func (h *File) EmptyRoom() int { return h.pool.Disk().PageSize() - headerSize }

// TupleCost returns the room a tuple of n bytes takes on a page: its
// bytes plus a slot entry.
func TupleCost(n int) int { return n + slotSize }

// Room returns the tuple bytes page can take — its contiguous gap plus
// what a prune would give back — from memory, without reading the page.
// Out-of-range pages have none.
func (h *File) Room(page int64) int {
	if page < 0 || page >= h.numPages {
		return 0
	}
	s := h.space[page]
	return int(s.free) + int(s.garbage)
}

// Fits reports, from memory, whether page can take a group of new
// tuples (tuples of them) whose TupleCosts sum to cost: every tuple pays
// its slot entry, except those that reuse one of the page's dead or
// erased slots. It is exact —
// PutAt succeeds on a page that Fits one TupleCost(len(tuple)).
func (h *File) Fits(page int64, cost, tuples int) bool {
	if page < 0 || page >= h.numPages {
		return false
	}
	credit := 0
	if r := h.reuse[page]; r != nil {
		credit = slotSize * min(tuples, len(r.dead)+len(r.erased))
	}
	return cost <= h.Room(page)+credit
}

// BestFit returns a page with something to reclaim that Fits the group
// (tuples new tuples of total cost), with the least room to within one
// size class, or false when none does. Only the classes where slot reuse
// decides the fit are searched page by page; above them every page fits.
func (h *File) BestFit(cost, tuples int) (int64, bool) {
	sure := (cost + classWidth - 1) / classWidth
	for c := max(0, cost-slotSize*tuples) / classWidth; c < len(h.classes); c++ {
		if c >= sure {
			return h.firstIn(c)
		}
		for _, page := range h.classes[c] {
			if h.Fits(page, cost, tuples) {
				return page, true
			}
		}
	}
	return 0, false
}

// firstIn returns a page of the lowest non-empty size class at or above c.
func (h *File) firstIn(c int) (int64, bool) {
	for w := c / 64; w < len(h.nonEmpty); w++ {
		word := h.nonEmpty[w]
		if w == c/64 {
			word &= ^uint64(0) << (c % 64)
		}
		if word != 0 {
			pages := h.classes[w*64+bits.TrailingZeros64(word)]
			return pages[len(pages)-1], true
		}
	}
	return 0, false
}

// reuseOf returns the page's reuse state, creating it.
func (h *File) reuseOf(page int64) *pageReuse {
	r := h.reuse[page]
	if r == nil {
		r = &pageReuse{class: -1}
		h.reuse[page] = r
	}
	return r
}

// refile moves the page to the size class its room now falls in, or
// drops its reuse state once it has nothing left to give back.
func (h *File) refile(page int64) {
	r := h.reuse[page]
	if r == nil {
		return
	}
	if len(r.dead) == 0 && len(r.erased) == 0 && h.space[page].garbage == 0 && h.Room(page) < classWidth {
		h.unfile(r)
		delete(h.reuse, page)
		return
	}
	c := h.Room(page) / classWidth
	if c == r.class {
		return
	}
	h.unfile(r)
	r.class, r.pos = c, len(h.classes[c])
	h.classes[c] = append(h.classes[c], page)
	h.nonEmpty[c/64] |= 1 << (c % 64)
}

// unfile takes the page out of its size class.
func (h *File) unfile(r *pageReuse) {
	if r.class < 0 {
		return
	}
	pages := h.classes[r.class]
	last := pages[len(pages)-1]
	pages[r.pos] = last
	h.reuse[last].pos = r.pos
	pages = pages[:len(pages)-1]
	h.classes[r.class] = pages
	if len(pages) == 0 {
		h.nonEmpty[r.class/64] &^= 1 << (r.class % 64)
	}
	r.class = -1
}

func pageNumSlots(d []byte) int {
	return int(binary.LittleEndian.Uint16(d[offNumSlots:]))
}

func pageCellStart(d []byte) int {
	return int(binary.LittleEndian.Uint16(d[offCellStart:]))
}

func setPageNumSlots(d []byte, n int) {
	binary.LittleEndian.PutUint16(d[offNumSlots:], uint16(n))
}

func setPageCellStart(d []byte, v int) {
	binary.LittleEndian.PutUint16(d[offCellStart:], uint16(v))
}

func slotAt(d []byte, i int) (off, length int) {
	base := headerSize + i*slotSize
	return int(binary.LittleEndian.Uint16(d[base:])), int(binary.LittleEndian.Uint16(d[base+2:]))
}

func setSlotAt(d []byte, i, off, length int) {
	base := headerSize + i*slotSize
	binary.LittleEndian.PutUint16(d[base:], uint16(off))
	binary.LittleEndian.PutUint16(d[base+2:], uint16(length))
}

// initPage prepares an empty slotted page.
func initPage(d []byte) {
	setPageNumSlots(d, 0)
	setPageCellStart(d, len(d))
}

// pageFree returns the free bytes between the slot directory and tuple data.
func pageFree(d []byte) int {
	return pageCellStart(d) - headerSize - pageNumSlots(d)*slotSize
}

// AppendAt stores tuple at the end of the file — on the last page when it
// has room, else on a new one — with the given MVCC begin timestamp: the
// tuple is invisible to snapshots older than begin, which is how a writer
// statement keeps its new row versions hidden until it publishes.
func (h *File) AppendAt(tuple []byte, begin uint64) (RID, error) {
	page := h.numPages
	if page > 0 && h.Room(page-1) >= TupleCost(len(tuple)) {
		page--
	}
	return h.PutAt(page, tuple, begin)
}

// PutAt stores tuple on page with the given MVCC begin timestamp and
// returns its RID; page NumPages() allocates a new page at the end. The
// tuple takes an erased slot, else a dead one, else a new slot, and a
// page whose contiguous gap is too short is pruned first. The caller
// chooses page by Room; a page short of room is an error, and so is a
// zero begin, which would make the tuple visible to every snapshot.
func (h *File) PutAt(page int64, tuple []byte, begin uint64) (RID, error) {
	if begin == 0 {
		return RID{}, fmt.Errorf("heap: a tuple needs a nonzero begin timestamp")
	}
	if TupleCost(len(tuple)) > h.EmptyRoom() {
		return RID{}, fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", len(tuple))
	}
	var fr *buffer.Frame
	var err error
	switch {
	case page == h.numPages:
		if page, fr, err = h.pool.NewPage(h.file); err != nil {
			return RID{}, err
		}
		initPage(fr.Data)
		h.vers = append(h.vers, pageVersions{})
		h.space = append(h.space, pageSpace{free: uint16(pageFree(fr.Data))})
		h.numPages++
	case page < 0 || page > h.numPages:
		return RID{}, fmt.Errorf("heap: page %d out of range (pages=%d)", page, h.numPages)
	default:
		if fr, err = h.pool.Get(h.file, page); err != nil {
			return RID{}, err
		}
	}
	d := fr.Data
	if !h.Fits(page, TupleCost(len(tuple)), 1) {
		h.pool.Unpin(fr, false)
		return RID{}, fmt.Errorf("heap: page %d has %d bytes of room, tuple needs %d", page, h.Room(page), len(tuple))
	}
	r := h.reuse[page]
	need := TupleCost(len(tuple))
	if r != nil && len(r.dead)+len(r.erased) > 0 {
		need = len(tuple)
	}
	if int(h.space[page].free) < need {
		// Pruning frees at least the garbage bytes, plus a slot entry for
		// every slot it trims, so a tuple that Fits fits afterwards
		// whether or not a reusable slot survives.
		h.prune(page, d, r)
	}
	slot := h.takeSlot(page, d)
	start := pageCellStart(d) - len(tuple)
	copy(d[start:], tuple)
	setSlotAt(d, slot, start, len(tuple))
	if v := (tupleVersion{begin: begin}); slot == pageNumSlots(d) {
		setPageNumSlots(d, slot+1)
		h.vers[page].slots = append(h.exact(page), v)
	} else {
		h.exact(page)[slot] = v
	}
	setPageCellStart(d, start)
	h.space[page].free = uint16(pageFree(d))
	h.pool.Unpin(fr, true)
	h.tuples++
	h.refile(page)
	return RID{Page: page, Slot: uint16(slot)}, nil
}

// takeSlot picks the slot a new tuple on the page goes into: an erased
// one, else a dead one (its bytes stay garbage until the next prune),
// else the next new slot.
func (h *File) takeSlot(page int64, d []byte) int {
	if r := h.reuse[page]; r != nil {
		if n := len(r.erased); n > 0 {
			s := r.erased[n-1]
			r.erased = r.erased[:n-1]
			return int(s)
		}
		if n := len(r.dead); n > 0 {
			s := r.dead[n-1]
			r.dead = r.dead[:n-1]
			h.dead--
			h.reclaimed++
			return int(s)
		}
	}
	return pageNumSlots(d)
}

// prune reclaims the page in place: dead slots are erased, the remaining
// tuples are packed against the end of the page (their slot numbers do
// not change), and empty slots at the directory's end are trimmed off.
func (h *File) prune(page int64, d []byte, r *pageReuse) {
	for _, s := range r.dead {
		setSlotAt(d, int(s), 0, 0)
	}
	h.dead -= int64(len(r.dead))
	h.reclaimed += int64(len(r.dead))
	r.erased = append(r.erased, r.dead...)
	r.dead = r.dead[:0]

	n := pageNumSlots(d)
	pv := &h.vers[page]
	for n > 0 && pv.at(n-1).begin == gone {
		n--
	}
	if h.scratch == nil {
		h.scratch = make([]byte, len(d))
	}
	at := len(d)
	for s := 0; s < n; s++ {
		off, length := slotAt(d, s)
		if length == 0 {
			continue
		}
		at -= length
		copy(h.scratch[at:], d[off:off+length])
		setSlotAt(d, s, at, length)
	}
	copy(d[at:], h.scratch[at:])
	setPageNumSlots(d, n)
	setPageCellStart(d, at)

	kept := r.erased[:0]
	for _, s := range r.erased {
		if int(s) < n {
			kept = append(kept, s)
		}
	}
	r.erased = kept
	if n < pv.len() {
		pv.slots = h.exact(page)[:n]
	}
	h.space[page] = pageSpace{free: uint16(pageFree(d))}
}

// ReplaceAt overwrites the live tuple at rid in its slot with tuple, a new
// version begun at ts, and keeps a copy of the old bytes as the slot's
// pre-image, ended at ts: snapshots older than ts read it until
// DropPreImage. The RID, the page's space and the live-tuple count do not
// change. It refuses a tuple of another length, a slot whose version is
// ended, dead or erased, and a slot that already holds a pre-image.
func (h *File) ReplaceAt(rid RID, tuple []byte, ts uint64) error {
	if ts == 0 {
		return fmt.Errorf("heap: a tuple needs a nonzero begin timestamp")
	}
	v, err := h.version(rid)
	if err != nil {
		return err
	}
	if v.end != 0 || v.begin == gone {
		return fmt.Errorf("heap: RID %v is not a live version", rid)
	}
	if h.HasPreImage(rid) {
		return fmt.Errorf("heap: RID %v already holds a pre-image", rid)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return err
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	if length != len(tuple) {
		h.pool.Unpin(fr, false)
		return fmt.Errorf("heap: RID %v holds %d bytes, replacement has %d", rid, length, len(tuple))
	}
	old := fr.Data[off : off+length]
	if h.pre == nil {
		h.pre, h.preOn = map[RID]preImage{}, map[int64]int{}
	}
	h.pre[rid] = preImage{tuple: bytes.Clone(old), ver: tupleVersion{begin: v.begin, end: ts}}
	h.preOn[rid.Page]++
	copy(old, tuple)
	h.setVersion(rid, tupleVersion{begin: ts})
	h.pool.Unpin(fr, true)
	return nil
}

// RestoreAt undoes a ReplaceAt (writer-statement abort): the pre-image's
// bytes go back into the slot, live under their old begin timestamp, and
// the pre-image is gone. The slot's version must be live.
func (h *File) RestoreAt(rid RID) error {
	p, ok := h.pre[rid]
	if !ok {
		return fmt.Errorf("heap: RID %v holds no pre-image", rid)
	}
	v, err := h.version(rid)
	if err != nil {
		return err
	}
	if v.end != 0 || v.begin == gone {
		return fmt.Errorf("heap: RID %v is not a live version", rid)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return err
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	copy(fr.Data[off:off+length], p.tuple)
	h.setVersion(rid, tupleVersion{begin: p.ver.begin})
	h.dropPre(rid)
	h.pool.Unpin(fr, true)
	return nil
}

// DropPreImage hands back the pre-image at rid, counted as a reclaimed
// version. The caller vouches that no snapshot older than its end
// remains.
func (h *File) DropPreImage(rid RID) error {
	if !h.HasPreImage(rid) {
		return fmt.Errorf("heap: RID %v holds no pre-image", rid)
	}
	h.dropPre(rid)
	h.reclaimed++
	return nil
}

// HasPreImage reports whether the slot at rid holds a pre-image.
func (h *File) HasPreImage(rid RID) bool {
	_, ok := h.pre[rid]
	return ok
}

// PreImages returns how many slots hold a pre-image.
func (h *File) PreImages() int { return len(h.pre) }

func (h *File) dropPre(rid RID) {
	delete(h.pre, rid)
	h.preOn[rid.Page]--
	if h.preOn[rid.Page] == 0 {
		delete(h.preOn, rid.Page)
	}
}

// hasPreOn reports whether any slot on page holds a pre-image.
func (h *File) hasPreOn(page int64) bool {
	return len(h.pre) != 0 && h.preOn[page] != 0
}

// preImageAt returns the pre-image bytes at rid when the snapshot sees
// them, else nil. Snapshot 0 never does: a pre-image is ended.
func (h *File) preImageAt(rid RID, snap uint64) []byte {
	if p, ok := h.pre[rid]; ok && visibleAt(p.ver, snap) {
		return p.tuple
	}
	return nil
}

// SetEnd marks the tuple at rid logically deleted as of timestamp end: it
// stays readable by snapshots older than end (the tuple bytes are
// untouched) and disappears from newer ones. The live-tuple count drops by
// one. Once no snapshot older than end can read it any more, the owner
// hands it back with MarkDead.
func (h *File) SetEnd(rid RID, end uint64) error {
	v, err := h.version(rid)
	if err != nil {
		return err
	}
	if v.end != 0 {
		return fmt.Errorf("heap: RID %v already ended at %d", rid, v.end)
	}
	h.setVersion(rid, tupleVersion{begin: v.begin, end: end})
	h.tuples--
	return nil
}

// ClearEnd undoes a SetEnd (writer-statement abort), restoring the tuple
// to live.
func (h *File) ClearEnd(rid RID) error {
	v, err := h.version(rid)
	if err != nil {
		return err
	}
	if v.end == 0 || v.begin == gone {
		return fmt.Errorf("heap: RID %v is not an ended version", rid)
	}
	h.setVersion(rid, tupleVersion{begin: v.begin})
	h.tuples++
	return nil
}

// MarkDead hands an ended version back to its page: no snapshot reads it
// again, its slot is reusable at once, and its size bytes — the tuple's
// length, as Get returned it — count as the page's garbage until a prune
// packs them away. The caller vouches that no snapshot older than the
// version's end timestamp remains. Marking reads no page.
func (h *File) MarkDead(rid RID, size int) error {
	v, err := h.version(rid)
	if err != nil {
		return err
	}
	if v.end == 0 || v.begin == gone {
		return fmt.Errorf("heap: RID %v is not an ended version", rid)
	}
	if size <= 0 || h.Room(rid.Page)+TupleCost(size) > h.EmptyRoom() {
		return fmt.Errorf("heap: dead tuple of %d bytes does not fit page %d's account", size, rid.Page)
	}
	h.setVersion(rid, tupleVersion{begin: gone, end: gone})
	r := h.reuseOf(rid.Page)
	r.dead = append(r.dead, rid.Slot)
	h.space[rid.Page].garbage += uint16(size)
	h.dead++
	h.refile(rid.Page)
	return nil
}

// version resolves the MVCC timestamps of a slot, checking bounds.
func (h *File) version(rid RID) (tupleVersion, error) {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return tupleVersion{}, fmt.Errorf("heap: RID %v out of range (pages=%d)", rid, h.numPages)
	}
	pv := &h.vers[rid.Page]
	if int(rid.Slot) >= pv.len() {
		return tupleVersion{}, fmt.Errorf("heap: RID %v slot out of range", rid)
	}
	return pv.at(int(rid.Slot)), nil
}

// setVersion writes the MVCC timestamps of a slot within bounds.
func (h *File) setVersion(rid RID, v tupleVersion) {
	h.exact(rid.Page)[rid.Slot] = v
}

// Get returns a copy of the tuple at rid as the latest state sees it.
// Deleted (physically or logically) tuples return nil data.
func (h *File) Get(rid RID) ([]byte, error) {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return nil, fmt.Errorf("heap: RID %v out of range (pages=%d)", rid, h.numPages)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return nil, err
	}
	defer h.pool.Unpin(fr, false)
	if int(rid.Slot) >= pageNumSlots(fr.Data) {
		return nil, fmt.Errorf("heap: RID %v slot out of range", rid)
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	if length == 0 || !visibleAt(h.vers[rid.Page].at(int(rid.Slot)), 0) {
		return nil, nil // deleted
	}
	out := make([]byte, length)
	copy(out, fr.Data[off:off+length])
	return out, nil
}

// ViewAt calls fn with the tuple bytes at rid that the snapshot sees
// (snapshot 0 means latest): the slot's own bytes or, when only its
// pre-image is visible, the pre-image's. fn does not run when no version
// is visible. The slice aliases the pinned frame and is only valid
// during the call; unlike Get, ViewAt copies nothing, so tuples the
// executor's compiled filter rejects cost no allocation.
func (h *File) ViewAt(rid RID, snap uint64, fn func(tuple []byte) error) error {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return fmt.Errorf("heap: RID %v out of range (pages=%d)", rid, h.numPages)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(fr, false)
	if int(rid.Slot) >= pageNumSlots(fr.Data) {
		return fmt.Errorf("heap: RID %v slot out of range", rid)
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	tuple := fr.Data[off : off+length]
	if length == 0 || !visibleAt(h.vers[rid.Page].at(int(rid.Slot)), snap) {
		if !h.hasPreOn(rid.Page) {
			return nil // deleted or invisible to this snapshot
		}
		if tuple = h.preImageAt(rid, snap); tuple == nil {
			return nil
		}
	}
	return fn(tuple)
}

// Delete physically erases the tuple at rid: the slot's length is zeroed,
// so no snapshot can read it afterward, and the slot is reusable at once
// (its bytes come back at the page's next prune). Writer statements use
// it only to discard their own never-published appends (abort); published
// history instead ends logically with SetEnd so older snapshots keep
// reading the bytes. The slot's pre-image, if any, goes too. Erasing a
// deleted or dead tuple is a no-op.
func (h *File) Delete(rid RID) error {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return fmt.Errorf("heap: RID %v out of range", rid)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return err
	}
	defer h.pool.Unpin(fr, true)
	if int(rid.Slot) >= pageNumSlots(fr.Data) {
		return fmt.Errorf("heap: RID %v slot out of range", rid)
	}
	off, length := slotAt(fr.Data, int(rid.Slot))
	v := h.vers[rid.Page].at(int(rid.Slot))
	if length == 0 || v.begin == gone {
		return nil // already deleted, or dead and awaiting its prune
	}
	setSlotAt(fr.Data, int(rid.Slot), off, 0)
	if v.end == 0 {
		h.tuples-- // erasing a live tuple; ended ones were already counted out
	}
	h.setVersion(rid, tupleVersion{begin: gone, end: gone})
	if h.HasPreImage(rid) {
		h.dropPre(rid)
	}
	r := h.reuseOf(rid.Page)
	r.erased = append(r.erased, rid.Slot)
	h.space[rid.Page].garbage += uint16(length)
	h.refile(rid.Page)
	return nil
}

// Scan visits every latest-visible tuple in physical order. The
// callback's tuple slice is only valid during the call. Returning false
// stops the scan.
func (h *File) Scan(fn func(rid RID, tuple []byte) bool) error {
	return h.ScanPagesAt(0, h.numPages-1, 0, fn)
}

// ScanPagesAt visits the tuples on pages [from, to] visible to the given
// snapshot, in physical order: a slot's own version, or its pre-image
// when only that is visible. Snapshot 0 means latest.
func (h *File) ScanPagesAt(from, to int64, snap uint64, fn func(rid RID, tuple []byte) bool) error {
	if from < 0 {
		from = 0
	}
	if to >= h.numPages {
		to = h.numPages - 1
	}
	for p := from; p <= to; p++ {
		fr, err := h.pool.Get(h.file, p)
		if err != nil {
			return err
		}
		n := pageNumSlots(fr.Data)
		pv := &h.vers[p]
		pre := h.hasPreOn(p)
		// A folded page's one version is tested once: the snapshot sees
		// every slot or none (and a folded page holds no pre-image).
		all := pv.folded()
		if all && !visibleAt(pv.at(0), snap) {
			n = 0
		}
		for s := 0; s < n; s++ {
			off, length := slotAt(fr.Data, s)
			tuple := fr.Data[off : off+length]
			if length == 0 || !all && !visibleAt(pv.slots[s], snap) {
				if !pre {
					continue
				}
				if tuple = h.preImageAt(RID{Page: p, Slot: uint16(s)}, snap); tuple == nil {
					continue
				}
			}
			if !fn(RID{Page: p, Slot: uint16(s)}, tuple) {
				h.pool.Unpin(fr, false)
				return nil
			}
		}
		h.pool.Unpin(fr, false)
	}
	return nil
}

// ScanUnretracted visits, in physical order, every version that no
// statement published at or before timestamp published has ended: the
// live ones, and those begun or ended by a statement stamped later (one
// not yet published), whatever snapshot could read them. Dead and
// erased slots are skipped, and so are pre-images, which sit on their
// slot's page. It is ScanPagesAt's loop under another
// predicate, kept as its own loop so the sweep's hot loop tests one.
func (h *File) ScanUnretracted(published uint64, fn func(rid RID, tuple []byte) bool) error {
	for p := int64(0); p < h.numPages; p++ {
		fr, err := h.pool.Get(h.file, p)
		if err != nil {
			return err
		}
		n := pageNumSlots(fr.Data)
		pv := &h.vers[p]
		all := pv.folded() // one live version: nothing on the page is retracted
		for s := 0; s < n; s++ {
			off, length := slotAt(fr.Data, s)
			if length == 0 || !all && retracted(pv.slots[s], published) {
				continue
			}
			if !fn(RID{Page: p, Slot: uint16(s)}, fr.Data[off:off+length]) {
				h.pool.Unpin(fr, false)
				return nil
			}
		}
		h.pool.Unpin(fr, false)
	}
	return nil
}
