package core

import (
	"bytes"
	"sort"
)

// ClusteredBuckets is the clustered-attribute bucket directory of Section
// 6.1.1. During the clustered load the table assigns consecutive tuples to
// buckets of roughly b tuples, never splitting one clustered value across
// buckets. The directory records each bucket's encoded lower-bound key; a
// correlation map then stores small bucket IDs instead of clustered-key
// values, and the executor converts IDs back to clustered key ranges.
//
// The directory is engine metadata (like a histogram): it lives in memory
// beside the table's bucket→page directory (table.PageDirectory), and the
// two together are reported — not folded into any CM's serialized size —
// as the table's DirectorySizeBytes.
//
// The bounds sit back to back in one byte slab with an offset per bucket,
// so a bucket costs its key bytes plus four: no slice header each.
type ClusteredBuckets struct {
	keys []byte   // every bucket's encoded first clustered key, concatenated
	offs []uint32 // bucket i's bound is keys[offs[i]:offs[i+1]]; len = buckets+1, or 0
}

// NewClusteredBuckets copies a sorted list of encoded lower bounds into a
// directory. Bounds must be strictly increasing; bucket i spans
// [bounds[i], bounds[i+1]).
func NewClusteredBuckets(bounds [][]byte) *ClusteredBuckets {
	cb := &ClusteredBuckets{}
	for _, b := range bounds {
		cb.appendBound(b)
	}
	return cb
}

// appendBound adds the next bucket's lower bound.
func (cb *ClusteredBuckets) appendBound(key []byte) {
	if len(cb.offs) == 0 {
		cb.offs = append(cb.offs, 0)
	}
	cb.keys = append(cb.keys, key...)
	cb.offs = append(cb.offs, uint32(len(cb.keys)))
}

// bound returns bucket i's encoded lower-bound key (capacity-clipped, so
// an append by the caller cannot run into the next bound).
func (cb *ClusteredBuckets) bound(i int) []byte {
	return cb.keys[cb.offs[i]:cb.offs[i+1]:cb.offs[i+1]]
}

// Builder incrementally assigns bucket IDs during a clustered scan,
// implementing the paper's rule: fill a bucket with targetTuples tuples,
// then keep extending it until the clustered key changes.
type Builder struct {
	target  int
	dir     ClusteredBuckets
	inCur   int    // tuples in the current bucket
	lastKey []byte // last clustered key seen
}

// NewBuilder creates a builder targeting targetTuples per bucket
// (minimum 1).
func NewBuilder(targetTuples int) *Builder {
	if targetTuples < 1 {
		targetTuples = 1
	}
	return &Builder{target: targetTuples}
}

// Add assigns the next tuple (in clustered order) to a bucket and returns
// the bucket ID. key is the tuple's encoded clustered key.
func (b *Builder) Add(key []byte) int32 {
	if b.dir.NumBuckets() == 0 || (b.inCur >= b.target && !bytes.Equal(key, b.lastKey)) {
		b.dir.appendBound(key)
		b.inCur = 0
	}
	b.inCur++
	b.lastKey = append(b.lastKey[:0], key...)
	return int32(b.dir.NumBuckets() - 1)
}

// Finish returns the completed directory, trimmed of the spare capacity
// its slab and offsets grew with.
func (b *Builder) Finish() *ClusteredBuckets {
	return &ClusteredBuckets{
		keys: append(make([]byte, 0, len(b.dir.keys)), b.dir.keys...),
		offs: append(make([]uint32, 0, len(b.dir.offs)), b.dir.offs...),
	}
}

// NumBuckets returns the number of buckets.
func (cb *ClusteredBuckets) NumBuckets() int {
	if len(cb.offs) == 0 {
		return 0
	}
	return len(cb.offs) - 1
}

// Locate returns the bucket containing the encoded clustered key: the
// rightmost bucket whose lower bound is <= key. Keys below the first
// bound map to bucket 0 so the function is total (new small keys inserted
// after load still resolve).
func (cb *ClusteredBuckets) Locate(key []byte) int32 {
	// First bound > key.
	i := sort.Search(cb.NumBuckets(), func(i int) bool {
		return bytes.Compare(cb.bound(i), key) > 0
	})
	if i == 0 {
		return 0
	}
	return int32(i - 1)
}

// LowerBound returns bucket i's encoded lower-bound key.
func (cb *ClusteredBuckets) LowerBound(i int32) []byte {
	return cb.bound(int(i))
}

// DirectorySizeBytes returns the in-memory footprint of the bounds: the
// key slab plus one 4-byte offset per bucket. The table adds its page
// directory to it (table.DirectorySizeBytes).
func (cb *ClusteredBuckets) DirectorySizeBytes() int64 {
	return int64(cap(cb.keys)) + 4*int64(cap(cb.offs))
}
