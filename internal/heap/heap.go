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
// sees it. A page's MVCC state lives in its pageVersions alone and grows
// with the writes no snapshot has passed, not with rows: a page whose
// slots all read as begun at one timestamp, none ended, keeps one
// page-level version — every page starts so — and a write builds its
// per-slot array, which Freeze folds away once no snapshot can predate
// the page's newest begin.
//
// Space is reclaimed inside its page. An ended version that no snapshot
// can read any more is marked dead (MarkDead); its slot is reusable at
// once, and its bytes come back when a placement needs the page's
// contiguous gap: the prune erases the dead slots, packs the remaining
// tuples toward the end of the page, and trims empty slots off the
// directory's end. Slot numbers of surviving tuples never change, so RIDs
// stay valid. An in-memory account per page (contiguous free bytes plus
// reclaimable bytes) answers Room without reading the page, and the pages
// that have anything to reclaim sit in size classes so BestFit finds the
// tightest one in a few word operations. Appends (Load's) still go to the
// tail, in order, each page taking a run of tuples under one pin
// (Append), and Load writes each full tail page back as it opens the
// next, so a bulk load reaches disk as one sequential run of heap pages.
//
// A version can also be replaced in its slot (ReplaceAt): the new bytes
// overwrite the old ones, of the same length, and a copy of the old ones
// stays with the page as the slot's pre-image, ended at the new version's
// begin. A snapshot that cannot see the slot's own version reads the
// pre-image instead when it can see that, until the owner drops it
// (DropPreImage). An abort reopens the pre-image (ReopenPreImage), which
// every snapshot then reads in the slot's place, and later copies it back
// (RestoreAt). A page lists its
// own pre-images, so a sweep of a page without any pays one length test
// for the page.
package heap

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
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

// pageVersions is one page's whole MVCC state: its versions, in one of
// two forms, and the pre-images of its slots replaced in place. A folded
// page — every slot read as begun at one timestamp, none ended, dead or
// erased, no pre-image — keeps that begin and its slot count and no
// per-slot array; any other page keeps slots, one version per slot of its
// directory. Every page starts folded; exact, which every write to a
// page's versions goes through, builds a folded page's array, and Freeze
// folds it again. Reads go through at and len, which see both forms
// alike.
type pageVersions struct {
	slots []tupleVersion
	pre   []preImage
	begin uint64 // the folded page's one begin; 0 when slots holds the versions
	n     int    // the folded page's slot count
}

// pageLevelSize is the bytes of a page's page-level version: the folded
// form's begin and slot count, which every page carries.
const pageLevelSize = int64(unsafe.Sizeof(pageVersions{}.begin) + unsafe.Sizeof(pageVersions{}.n))

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

// preAt returns the index of slot's pre-image in pre, or -1.
func (pv *pageVersions) preAt(slot uint16) int {
	for i := range pv.pre {
		if pv.pre[i].slot == slot {
			return i
		}
	}
	return -1
}

// preImageAt returns slot's pre-image bytes when the snapshot sees them,
// else nil. Snapshot 0 never does: a pre-image is ended.
func (pv *pageVersions) preImageAt(slot uint16, snap uint64) []byte {
	if i := pv.preAt(slot); i >= 0 && visibleAt(pv.pre[i].ver, snap) {
		return pv.pre[i].tuple
	}
	return nil
}

// preImage is the version an in-place replacement overwrote in slot: a
// copy of its bytes (the replacing writer's) and its timestamps, ended at
// the replacement's begin.
type preImage struct {
	slot  uint16
	tuple []byte
	ver   tupleVersion
}

// firstPreImages is the room a page's pre-image list starts with. Sizing
// it by the page's slot count would hold ≈ 70 entries per touched page
// for the few a statement writes.
const firstPreImages = 16

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
// (Append, PutAt, ReplaceAt, ReopenPreImage, RestoreAt, DropPreImage,
// SetEnd, ClearEnd, MarkDead, Freeze) must hold the
// table latch exclusively while readers hold it shared. A placement may
// prune its page, moving tuple bytes within it, so no reader keeps a
// tuple slice across a release of the latch.
type File struct {
	pool *buffer.Pool
	file sim.FileID

	numPages int64
	tuples   int64

	// vers[page] is the page's MVCC state. Grown and trimmed in lockstep
	// with the slot directories.
	vers []pageVersions

	// space[page] is the page's space account; reuse the pages that
	// have something to give back, each filed in classes by its room
	// (nonEmpty has bit c set while classes[c] has a page).
	space    []pageSpace
	reuse    map[int64]*pageReuse
	classes  [][]int64
	nonEmpty []uint64

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
// file whose pages are all folded holds only the latter.
func (h *File) VersionBytes() int64 {
	n := int64(len(h.vers)) * pageLevelSize
	for _, pv := range h.vers {
		n += int64(cap(pv.slots)) * versionSize
	}
	return n
}

// Freeze folds page into one page-level version begun at its newest
// begin when every slot holds a live, un-ended version, no slot holds a
// pre-image, and that begin is at or before horizon; any other page
// stays as it is. The caller vouches that no snapshot older than horizon
// exists or can still be taken: every snapshot then sees every slot of
// the page, folded or not.
func (h *File) Freeze(page int64, horizon uint64) {
	pv := &h.vers[page]
	if pv.folded() || len(pv.pre) != 0 || len(pv.slots) == 0 {
		return
	}
	var newest uint64
	for _, v := range pv.slots {
		if v.end != 0 {
			return // ended, dead or erased
		}
		newest = max(newest, v.begin)
	}
	if newest <= horizon {
		*pv = pageVersions{begin: newest, n: len(pv.slots)}
	}
}

// exact returns the page's per-slot versions for a write to change,
// building a folded page's array first, with room for extra more slots.
// Every write to a version goes through it.
func (h *File) exact(page int64, extra int) []tupleVersion {
	pv := &h.vers[page]
	if pv.folded() {
		pv.slots = make([]tupleVersion, pv.n, pv.n+extra)
		for i := range pv.slots {
			pv.slots[i].begin = pv.begin
		}
		pv.begin, pv.n = 0, 0
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

// Append stores tuples at the end of the file, in order, with the given
// MVCC begin timestamp: the tuples are invisible to snapshots older than
// begin, which is how a writer statement keeps its new row versions
// hidden until it publishes. The first tuple goes on the last page when
// it has room, else on a new one, and every tuple after it that still
// fits goes on the same page under the same pin; the rest are left for
// the next call. It appends the placed tuples' RIDs to dst and returns
// it: they are the first len(result)-len(dst) of tuples, at least one
// unless it fails.
func (h *File) Append(dst []RID, tuples [][]byte, begin uint64) ([]RID, error) {
	if len(tuples) == 0 {
		return dst, nil
	}
	page := h.numPages
	if page > 0 && h.Room(page-1) >= TupleCost(len(tuples[0])) {
		page--
	}
	return h.put(dst, page, tuples, begin)
}

// Truncate gives back every page from page number pages on, with all it
// holds: the pool drops their frames unwritten (buffer.Pool.Discard), the
// disk their bytes (sim.Disk.Shrink), and the file its account of their
// versions, live or dead. A writer that appended those pages undoes its
// appends with one call. None of their frames may be pinned, and the
// caller holds the table latch exclusively.
func (h *File) Truncate(pages int64) {
	pages = max(pages, 0)
	for p := pages; p < h.numPages; p++ {
		pv := &h.vers[p]
		for s := range pv.len() {
			if v := pv.at(s); v.begin != gone && v.end == 0 {
				h.tuples--
			}
		}
		if r := h.reuse[p]; r != nil {
			h.dead -= int64(len(r.dead))
			h.unfile(r)
			delete(h.reuse, p)
		}
		h.pool.Discard(h.file, p)
	}
	if pages < h.numPages {
		clear(h.vers[pages:]) // the pre-images' bytes go with their pages
		h.vers, h.space, h.numPages = h.vers[:pages], h.space[:pages], pages
		h.pool.Disk().Shrink(h.file, pages)
	}
}

// AppendPage is Append on a new page at the end of the file, whether or
// not the last page has room: a writer that must own every page it
// appends to starts with it.
func (h *File) AppendPage(dst []RID, tuples [][]byte, begin uint64) ([]RID, error) {
	if len(tuples) == 0 {
		return dst, nil
	}
	return h.put(dst, h.numPages, tuples, begin)
}

// PutAt stores tuple on page with the given MVCC begin timestamp and
// returns its RID; page NumPages() allocates a new page at the end. The
// tuple takes an erased slot, else a dead one, else a new slot, and a
// page whose contiguous gap is too short is pruned first. The caller
// chooses page by Room; a page short of room is an error, and so is a
// zero begin, which would make the tuple visible to every snapshot. A
// page PutAt opens starts folded at begin, so a bulk load's pages keep
// their one page-level version as they fill.
func (h *File) PutAt(page int64, tuple []byte, begin uint64) (RID, error) {
	var rid [1]RID
	_, err := h.put(rid[:0], page, [][]byte{tuple}, begin)
	return rid[0], err
}

// put places tuples on page under one pin, as PutAt places one, until
// the next does not fit; the first must. It appends their RIDs to dst.
func (h *File) put(dst []RID, page int64, tuples [][]byte, begin uint64) ([]RID, error) {
	if begin == 0 {
		return dst, fmt.Errorf("heap: a tuple needs a nonzero begin timestamp")
	}
	if TupleCost(len(tuples[0])) > h.EmptyRoom() {
		return dst, fmt.Errorf("heap: tuple of %d bytes exceeds page capacity", len(tuples[0]))
	}
	var fr *buffer.Frame
	var err error
	switch {
	case page == h.numPages:
		if page, fr, err = h.pool.NewPage(h.file); err != nil {
			return dst, err
		}
		initPage(fr.Data)
		h.vers = append(h.vers, pageVersions{begin: begin})
		h.space = append(h.space, pageSpace{free: uint16(pageFree(fr.Data))})
		h.numPages++
	case page < 0 || page > h.numPages:
		return dst, fmt.Errorf("heap: page %d out of range (pages=%d)", page, h.numPages)
	default:
		if fr, err = h.pool.Get(h.file, page); err != nil {
			return dst, err
		}
	}
	for i, tuple := range tuples {
		if !h.Fits(page, TupleCost(len(tuple)), 1) {
			if i == 0 {
				h.pool.Unpin(fr, false)
				return dst, fmt.Errorf("heap: page %d has %d bytes of room, tuple needs %d", page, h.Room(page), len(tuple))
			}
			break
		}
		dst = append(dst, h.place(page, fr.Data, tuple, begin))
	}
	h.pool.Unpin(fr, true)
	return dst, nil
}

// place stores tuple on the pinned page d, which Fits it.
func (h *File) place(page int64, d []byte, tuple []byte, begin uint64) RID {
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
		if pv := &h.vers[page]; pv.folded() && pv.begin == begin {
			pv.n++ // a new slot with the page's one begin keeps it folded
		} else {
			pv.slots = append(h.exact(page, 1), v)
		}
	} else {
		h.exact(page, 0)[slot] = v
	}
	setPageCellStart(d, start)
	h.space[page].free = uint16(pageFree(d))
	h.tuples++
	h.refile(page)
	return RID{Page: page, Slot: uint16(slot)}
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
		pv.slots = h.exact(page, 0)[:n]
	}
	h.space[page] = pageSpace{free: uint16(pageFree(d))}
}

// ReplaceAt overwrites the live tuple at rid in its slot with tuple, a new
// version begun at ts, and keeps pre — the caller's copy of the slot's
// current bytes, which it must not change afterwards — as the slot's
// pre-image, ended at ts: snapshots older than ts read it until
// DropPreImage. The RID, the page's space and the live-tuple count do not
// change. It refuses a tuple of another length, a pre that is not the
// slot's bytes, a slot whose version is ended, dead or erased, and one
// that is not Replaceable.
func (h *File) ReplaceAt(rid RID, tuple, pre []byte, ts uint64) error {
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
	if !h.Replaceable(rid, ts) {
		return fmt.Errorf("heap: RID %v holds a pre-image or a version begun at %d", rid, ts)
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
	if !bytes.Equal(old, pre) {
		h.pool.Unpin(fr, false)
		return fmt.Errorf("heap: RID %v does not hold the pre-image given", rid)
	}
	copy(old, tuple)
	h.setVersion(rid, tupleVersion{begin: ts})
	pv := &h.vers[rid.Page]
	if pv.pre == nil {
		// Freeze drops the list with the rest of the page's versions, so
		// each UPDATE that reopens a page starts one; starting with room
		// spares its doubling from one entry.
		pv.pre = make([]preImage, 0, firstPreImages)
	}
	pv.pre = append(pv.pre, preImage{slot: rid.Slot, tuple: pre, ver: tupleVersion{begin: v.begin, end: ts}})
	h.pool.Unpin(fr, true)
	return nil
}

// ReopenPreImage takes a ReplaceAt back in memory (writer-statement
// abort): the slot's version ends at its own begin, so no snapshot reads
// it, and the pre-image's end is cleared, so every snapshot that read the
// replaced version reads the pre-image again. The live-tuple count does
// not change. RestoreAt later copies the bytes back; until then the slot
// keeps its pre-image. Reopening reads no page.
func (h *File) ReopenPreImage(rid RID) error {
	i := h.preIndex(rid)
	if i < 0 {
		return fmt.Errorf("heap: RID %v holds no pre-image", rid)
	}
	pv := &h.vers[rid.Page]
	v := pv.at(int(rid.Slot))
	if v.end != 0 || v.begin == gone || pv.pre[i].ver.end != v.begin {
		return fmt.Errorf("heap: RID %v is not a version replaced in place", rid)
	}
	h.setVersion(rid, tupleVersion{begin: v.begin, end: v.begin})
	pv.pre[i].ver.end = 0
	return nil
}

// RestoreAt finishes what ReopenPreImage began: the reopened pre-image's
// bytes go back into the slot, live under their old begin timestamp, and
// the pre-image is gone. Every snapshot reads what it read before.
func (h *File) RestoreAt(rid RID) error {
	i := h.preIndex(rid)
	if i < 0 || h.vers[rid.Page].pre[i].ver.end != 0 {
		return fmt.Errorf("heap: RID %v holds no reopened pre-image", rid)
	}
	fr, err := h.pool.Get(h.file, rid.Page)
	if err != nil {
		return err
	}
	pv := &h.vers[rid.Page]
	off, length := slotAt(fr.Data, int(rid.Slot))
	copy(fr.Data[off:off+length], pv.pre[i].tuple)
	h.setVersion(rid, pv.pre[i].ver)
	pv.pre = slices.Delete(pv.pre, i, i+1)
	h.pool.Unpin(fr, true)
	return nil
}

// DropPreImage hands back the pre-image at rid, counted as a reclaimed
// version. The caller vouches that no snapshot older than its end
// remains.
func (h *File) DropPreImage(rid RID) error {
	i := h.preIndex(rid)
	if i < 0 {
		return fmt.Errorf("heap: RID %v holds no pre-image", rid)
	}
	pv := &h.vers[rid.Page]
	pv.pre = slices.Delete(pv.pre, i, i+1)
	h.reclaimed++
	return nil
}

// Replaceable reports whether ReplaceAt may replace the version at rid
// with one begun at ts: the slot holds no pre-image, and its version
// began before ts. A writer never replaces its own new version in place,
// so every pre-image an abort reopens is one some snapshot could read.
func (h *File) Replaceable(rid RID, ts uint64) bool {
	v, err := h.version(rid)
	return err == nil && v.begin < ts && h.preIndex(rid) < 0
}

// preIndex returns the index of rid's pre-image in its page's list, or
// -1 when it has none.
func (h *File) preIndex(rid RID) int {
	if rid.Page < 0 || rid.Page >= h.numPages {
		return -1
	}
	return h.vers[rid.Page].preAt(rid.Slot)
}

// PreImages returns how many slots hold a pre-image.
func (h *File) PreImages() int {
	n := 0
	for _, pv := range h.vers {
		n += len(pv.pre)
	}
	return n
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
// to live. It reads no page.
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
// length — count as the page's garbage until a prune
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
	h.exact(rid.Page, 0)[rid.Slot] = v
}

// ViewAt calls fn with the tuple bytes at rid that the snapshot sees
// (snapshot 0 means latest): the slot's own bytes or, when only its
// pre-image is visible, the pre-image's. fn does not run when no version
// is visible. The slice aliases the pinned frame and is only valid
// during the call; ViewAt copies nothing, so tuples the
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
	if pv := &h.vers[rid.Page]; length == 0 || !visibleAt(pv.at(int(rid.Slot)), snap) {
		if tuple = pv.preImageAt(rid.Slot, snap); tuple == nil {
			return nil // deleted or invisible to this snapshot
		}
	}
	return fn(tuple)
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
				if tuple = pv.preImageAt(uint16(s), snap); tuple == nil {
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
// not yet published, or an aborted one whose slots are not yet dead),
// whatever snapshot could read them. Dead and erased slots are skipped,
// and so are pre-images, which sit on their slot's page. It is
// ScanPagesAt's loop under another predicate, kept as its own loop so
// the sweep's hot loop tests one.
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
