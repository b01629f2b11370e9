package table

import (
	"fmt"
	"sort"

	"repro/internal/heap"
)

// PageDirectory is the bucket→page half of the table's clustered index:
// for every clustered bucket, the sorted distinct heap pages that hold a
// version of one of its rows, each with the number of such versions on
// it. With the bucket bounds (core.ClusteredBuckets), which map a
// clustered key range to buckets, it is the whole clustered index — a
// sparse one, which is all a physically sorted heap needs: a
// correlation-map probe, and a predicate on the clustering attribute
// itself, go bucket IDs → heap pages from memory and read no index page.
//
// The invariant is: bucket b's pages are the pages holding a version of
// b that has not been retracted — a live version, or one begun or ended
// by a writer statement that has not yet published — counted once per
// version, at every release of the table latch. A writer statement's new
// versions are counted as they are placed; the versions it ends leave
// the directory at Publish, when their index entries and CM pairs do; an
// unwind takes back precisely what was added. A version's bucket is
// Locate of its clustering key (Load's builder assigns the same ones, and
// bounds move only at Load), so the invariant can be checked, or the
// directory rebuilt, from the heap alone (RebuildPageDirectory). Readers
// hold the latch shared.
//
// Layout: one flat []uint64 per bucket, sorted; a word packs a page
// number (high bits) with its reference count (low pageRefCountBits), so
// numeric order is page order and a bucket costs a slice header plus
// eight bytes per page.
type PageDirectory struct {
	buckets [][]uint64
}

// pageRefCountBits is the width of a packed reference count. A heap slot
// number is a uint16 and a slot holds one version, so no page carries
// more than 65 536 versions of a bucket; 2^44 pages remain.
const pageRefCountBits = 20

func refPage(ref uint64) int64 { return int64(ref >> pageRefCountBits) }

func refCount(ref uint64) uint32 { return uint32(ref & (1<<pageRefCountBits - 1)) }

// find returns the position of page in bucket b's list, or where it
// would be inserted.
func (d *PageDirectory) find(b int32, page int64) (at int, found bool) {
	refs := d.buckets[b]
	at = sort.Search(len(refs), func(i int) bool { return refPage(refs[i]) >= page })
	return at, at < len(refs) && refPage(refs[at]) == page
}

// add counts one more version of bucket b on page.
func (d *PageDirectory) add(b int32, page int64) {
	if page < 0 || page >= 1<<(64-pageRefCountBits) {
		panic(fmt.Sprintf("table: heap page %d outside the page directory's range", page))
	}
	for int(b) >= len(d.buckets) {
		d.buckets = append(d.buckets, nil)
	}
	at, found := d.find(b, page)
	if found {
		d.buckets[b][at]++
		return
	}
	// Grow by exactly one slot: a bucket holds a handful of pages, the
	// insert shifts its tail anyway, and doubling would strand a third
	// of the directory's memory in unused capacity.
	old := d.buckets[b]
	refs := make([]uint64, len(old)+1)
	copy(refs, old[:at])
	refs[at] = uint64(page)<<pageRefCountBits | 1
	copy(refs[at+1:], old[at:])
	d.buckets[b] = refs
}

// clip drops the bucket list's spare capacity once a bulk load has
// sized it.
func (d *PageDirectory) clip() {
	d.buckets = append(make([][]uint64, 0, len(d.buckets)), d.buckets...)
}

// remove takes back one version of bucket b on page; the page leaves the
// bucket when its count reaches zero. Removing from a page the bucket
// does not list is a no-op.
func (d *PageDirectory) remove(b int32, page int64) {
	if int(b) >= len(d.buckets) {
		return
	}
	at, found := d.find(b, page)
	if !found {
		return
	}
	refs := d.buckets[b]
	if refs[at]--; refCount(refs[at]) == 0 {
		d.buckets[b] = append(refs[:at], refs[at+1:]...)
	}
}

// refsOf returns bucket b's packed page references; none for a bucket
// the directory has never seen.
func (d *PageDirectory) refsOf(b int32) []uint64 {
	if b < 0 || int(b) >= len(d.buckets) {
		return nil
	}
	return d.buckets[b]
}

// AppendPages appends bucket b's heap pages, ascending, to dst. A bucket
// the directory has never seen has none.
func (d *PageDirectory) AppendPages(dst []int64, b int32) []int64 {
	for _, ref := range d.refsOf(b) {
		dst = append(dst, refPage(ref))
	}
	return dst
}

// Refs returns bucket b's heap pages, ascending, and the number of its
// versions on each — the form tests compare against
// RebuildPageDirectory.
func (d *PageDirectory) Refs(b int32) (pages []int64, counts []uint32) {
	for _, ref := range d.refsOf(b) {
		pages = append(pages, refPage(ref))
		counts = append(counts, refCount(ref))
	}
	return pages, counts
}

// SizeBytes returns the directory's in-memory footprint: per bucket a
// slice header and eight bytes per allocated page slot.
func (d *PageDirectory) SizeBytes() int64 {
	n := int64(24 * cap(d.buckets))
	for _, refs := range d.buckets {
		n += 8 * int64(cap(refs))
	}
	return n
}

// PageDir returns the table's bucket→page directory. Read it under the
// table latch (shared suffices).
func (t *Table) PageDir() *PageDirectory { return &t.pageDir }

// DirectorySizeBytes returns the in-memory footprint of the clustered
// bucket directory — lower-bound keys plus page lists. It is engine
// metadata shared by every correlation map of the table and reported
// beside them (CMInfo.DirectoryBytes, the table.directory_bytes gauge),
// never folded into a CM's own serialized size.
func (t *Table) DirectorySizeBytes() int64 {
	return t.cbuckets.DirectorySizeBytes() + t.pageDir.SizeBytes()
}

// RebuildPageDirectory derives the page directory from scratch, from one
// pass over the heap — what the live directory must equal: every slot
// holding a version that has not been retracted (live, or begun or ended
// by a writer statement that has not yet published) counts its page into
// ClusterBucketFor of its row. It is the tests' oracle, and what a
// restart can rebuild the directory from; no query path calls it. Caller
// holds the latch.
func (t *Table) RebuildPageDirectory() (*PageDirectory, error) {
	d := &PageDirectory{}
	var decodeErr error
	err := t.heapf.ScanUnretracted(t.clock.Load(), func(rid heap.RID, tuple []byte) bool {
		row, err := t.cfg.Schema.DecodeRow(tuple)
		if err != nil {
			decodeErr = err
			return false
		}
		d.add(t.ClusterBucketFor(row), rid.Page)
		return true
	})
	if decodeErr != nil {
		return nil, decodeErr
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}
