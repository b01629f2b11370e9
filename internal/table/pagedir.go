package table

import (
	"fmt"
	"sort"

	"repro/internal/heap"
	"repro/internal/value"
)

// PageDirectory is the bucket→page half of the clustered bucket
// directory: for every clustered bucket, the sorted distinct heap pages
// that hold at least one clustered-index entry of that bucket, each with
// the number of entries on it. It is what lets a correlation-map probe go
// bucket IDs → heap pages without reading the clustered B+Tree — the
// tree's leaves say which RIDs a bucket holds, the directory remembers
// only which pages those RIDs sit on, a few bytes per bucket.
//
// The invariant is Pages(b) == distinct pages of the tree's RIDs in
// bucket b, at every release of the table latch. It holds because the
// directory changes only inside clusteredInsert/clusteredDelete, the one
// pair of functions that changes the tree, so it follows the tree's
// snapshot rules exactly: a writer statement's new versions are counted
// when they are indexed, its replaced versions leave at Publish, and an
// unwind takes back precisely what was added. Readers hold the latch
// shared, like every reader of the tree.
//
// Layout: one flat []uint64 per bucket, sorted; a word packs a page
// number (high bits) with its reference count (low pageRefCountBits), so
// numeric order is page order and a bucket costs a slice header plus
// eight bytes per page.
type PageDirectory struct {
	buckets [][]uint64
}

// pageRefCountBits is the width of a packed reference count. A heap slot
// number is a uint16 and every RID has one clustered-index entry, so no
// page carries more than 65 536 entries of a bucket; 2^44 pages remain.
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

// add counts one more clustered-index entry of bucket b on page.
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

// remove takes back one entry of bucket b on page; the page leaves the
// bucket when its count reaches zero. Removing an entry that was never
// counted is a no-op (the caller removes only what the tree held).
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

// NumBuckets returns the number of buckets the directory has entries
// for: one past the highest bucket that ever held a page.
func (d *PageDirectory) NumBuckets() int { return len(d.buckets) }

// AppendPages appends bucket b's heap pages, ascending, to dst. A bucket
// the directory has never seen has none.
func (d *PageDirectory) AppendPages(dst []int64, b int32) []int64 {
	for _, ref := range d.refsOf(b) {
		dst = append(dst, refPage(ref))
	}
	return dst
}

// Refs returns bucket b's heap pages, ascending, and the number of
// clustered-index entries on each — the form tests compare against
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
// table latch (shared suffices), like the clustered index it mirrors.
func (t *Table) PageDir() *PageDirectory { return &t.pageDir }

// DirectorySizeBytes returns the in-memory footprint of the clustered
// bucket directory — lower-bound keys plus page lists. It is engine
// metadata shared by every correlation map of the table and reported
// beside them (CMInfo.DirectoryBytes, the table.directory_bytes gauge),
// never folded into a CM's own serialized size.
func (t *Table) DirectorySizeBytes() int64 {
	return t.cbuckets.DirectorySizeBytes() + t.pageDir.SizeBytes()
}

// clusteredInsert adds row's clustered-index entry at rid and counts
// rid's page into clustered bucket cb. With clusteredDelete it is the
// only way the clustered tree changes, which is what keeps the page
// directory equal to it. Caller holds the latch.
func (t *Table) clusteredInsert(row value.Row, rid heap.RID, cb int32) error {
	if err := t.clustered.Insert(row, rid); err != nil {
		return err
	}
	t.pageDir.add(cb, rid.Page)
	return nil
}

// clusteredDelete removes row's clustered-index entry at rid and, when
// the tree held it, takes rid's page back out of clustered bucket cb.
// Caller holds the latch.
func (t *Table) clusteredDelete(row value.Row, rid heap.RID, cb int32) error {
	existed, err := t.clustered.Delete(row, rid)
	if err == nil && existed {
		t.pageDir.remove(cb, rid.Page)
	}
	return err
}

// RebuildPageDirectory derives the page directory from scratch, one
// clustered-index range scan per bucket — what the live directory must
// equal. Bucket 0 is scanned from the start of the tree (keys below the
// first bound locate to it), and a table that was never bulk-loaded is
// the single bucket 0. It is the tests' oracle and reads the tree; no
// query path calls it. Caller holds the latch.
func (t *Table) RebuildPageDirectory() (*PageDirectory, error) {
	d := &PageDirectory{}
	nb := t.cbuckets.NumBuckets()
	if nb == 0 {
		nb = 1
	}
	for b := int32(0); int(b) < nb; b++ {
		var lo []byte
		if b > 0 {
			lo = t.cbuckets.LowerBound(b)
		}
		hiExcl, _ := t.cbuckets.UpperBound(b) // nil: to the end of the tree
		err := t.clustered.ScanKeyRange(lo, hiExcl, func(rid heap.RID) bool {
			d.add(b, rid.Page)
			return true
		})
		if err != nil {
			return nil, err
		}
	}
	return d, nil
}
