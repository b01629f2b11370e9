// Package core implements the Correlation Map, the paper's primary
// contribution (Section 5).
//
// A CM on an attribute (or attribute list) Au of a table clustered on Ac
// is a mapping
//
//	bucket(u) -> { clustered bucket IDs co-occurring with u }
//
// with a co-occurrence count per pair so deletions can retract entries
// (Algorithm 1). Compared to a dense secondary B+Tree — one entry per
// tuple — the CM stores one entry per distinct (bucketed) value pair,
// which is what makes it orders of magnitude smaller when the attributes
// are correlated.
//
// The CM lives in main memory (the paper's prototype caches CMs in a Java
// front end); recoverability comes from the engine's write-ahead log, and
// Serialize/Deserialize provide checkpoints and the honest size number
// reported by the experiments.
package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/keyenc"
	"repro/internal/value"
)

// Spec describes a correlation map design: which columns form the CM
// attribute and how each is bucketed.
type Spec struct {
	Name      string
	UCols     []int      // column indexes of the CM attribute(s)
	Bucketers []Bucketer // one per column; nil entries mean Identity
	// StatCols lists the table columns whose per-entry aggregate
	// statistics (sum, min, max) the CM maintains alongside the pair
	// counts, enabling the cm-agg index-only aggregation path. nil means
	// no per-column statistics (counts are always kept); the table layer
	// defaults it to every column when a CM is created through the
	// engine.
	StatCols []int
}

// normalize fills nil bucketers with Identity.
func (s *Spec) normalize() {
	if len(s.Bucketers) == 0 {
		s.Bucketers = make([]Bucketer, len(s.UCols))
	}
	for i := range s.Bucketers {
		if s.Bucketers[i] == nil {
			s.Bucketers[i] = Identity{}
		}
	}
}

// Entry is one CM entry: a distinct bucketed key with the clustered
// buckets it co-occurs with, ascending, and at the same position each
// pair's slot in the CM's statistics columns (read with PairCount,
// PairDirty and PairStat). Lookup, Find and Walk hand out the stored
// slices — the CM's live state, valid under the table latch the caller
// holds and not to be mutated.
type Entry struct {
	Key     string // the encoded bucketed key
	Buckets []int32
	Slots   []int32
}

// CM is a correlation map. Lookups may run concurrently with each other;
// AddRow/RemoveRow require exclusive access. The engine enforces this
// with the table latch (readers under RLock, maintenance under Lock), so
// the CM itself carries no lock.
//
// Every key is stored once, as its sorted run of clustered buckets: the
// form a probe returns, a checkpoint writes and Algorithm 1 maintains by
// binary search (c_per_u is small by the paper's premise). An absent key
// is a missed hash lookup — no page read, nothing in front of the map.
type CM struct {
	spec  Spec
	m     map[string]*Entry
	pairs int64
	size  int64 // serialized-size accounting
	// stats holds every pair's count and statistics by slot.
	stats pairStats
	// keyBuf is AddRow's and RemoveRow's key scratch; both run under the
	// exclusive latch.
	keyBuf []byte
	// statsInvalid marks per-entry statistics as incomplete: a CM
	// restored from a checkpoint written under another stat-column
	// layout, or one whose checkpoint typed a stat column otherwise than
	// the rows replayed into it, cannot answer aggregates index-only
	// until rebuilt.
	statsInvalid bool
	// pagesSwept and falsePositivePages are the CM's live health gauges:
	// heap pages swept by scans this CM drove, and how many of those held
	// no matching tuple (atomic: lookups run concurrently under the table
	// read latch). A rising share of false-positive pages says the soft
	// functional dependency the CM compresses has weakened.
	pagesSwept         atomic.Int64
	falsePositivePages atomic.Int64
}

// entry size accounting: per distinct key 2 (len) + len + 4 (pair count);
// per pair 4 (bucket id) + 4 (count).
const (
	keyOverhead  = 6
	pairOverhead = 8
)

// New creates an empty CM from a spec.
func New(spec Spec) *CM {
	spec.normalize()
	if len(spec.UCols) == 0 {
		panic("core: CM spec needs at least one column")
	}
	if len(spec.Bucketers) != len(spec.UCols) {
		panic("core: spec bucketer count mismatch")
	}
	return &CM{spec: spec, m: make(map[string]*Entry), stats: newPairStats(len(spec.StatCols))}
}

// Spec returns the CM's design.
func (cm *CM) Spec() Spec { return cm.spec }

// AppendKeyForRow appends the bucketed, encoded CM attribute of a full
// table row to dst.
func (cm *CM) AppendKeyForRow(dst []byte, row value.Row) []byte {
	for i, c := range cm.spec.UCols {
		dst = keyenc.AppendValue(dst, cm.spec.Bucketers[i].Bucket(row[c]))
	}
	return dst
}

// AddRow records the co-occurrence of the row's CM attribute with the
// clustered bucket, incrementing the pair's count and folding the row's
// stat-column values into the entry statistics (Algorithm 1, extended).
// Each stat column takes the kind of the first value it holds; a later
// value of another kind is not folded and marks the statistics invalid.
func (cm *CM) AddRow(row value.Row, cbucket int32) {
	cm.keyBuf = cm.AppendKeyForRow(cm.keyBuf[:0], row)
	s := cm.pair(cm.keyBuf, cbucket)
	cm.stats.count[s]++
	first := cm.stats.count[s] == 1
	for i, c := range cm.spec.StatCols {
		if col, ok := cm.stats.col(i, row[c].K); ok {
			col.add(s, row[c], first)
		} else {
			cm.statsInvalid = true
		}
	}
}

// StatRun is what a run of rows of one pair holds in one stat column,
// as a bulk scan summarizes it for AddRun: an int column's sum and
// extremes, a float column's values in row order (its sum is folded a
// value at a time, rounding as AddRow's does), a string column's
// extremes, which may be views of scanned bytes (AddRun interns what it
// keeps). Kind is the column's kind.
type StatRun struct {
	Kind             value.Kind
	SumI, MinI, MaxI int64
	F                []float64
	MinS, MaxS       string
}

// AddRun records n rows of one pair — their encoded bucketed key (as
// AppendKeyForRow encodes it) and clustered bucket — with runs[i] what
// they hold in stat column i. It leaves exactly what AddRow of each of
// the rows, in order, would: a scan in clustered order meets such runs,
// and folds each with one pair lookup.
func (cm *CM) AddRun(key []byte, cbucket int32, n int64, runs []StatRun) {
	s := cm.pair(key, cbucket)
	first := cm.stats.count[s] == 0
	cm.stats.count[s] += n
	for i, r := range runs {
		if col, ok := cm.stats.col(i, r.Kind); ok {
			col.addRun(s, r, first)
		} else {
			cm.statsInvalid = true
		}
	}
}

// NoteSweep records one scan's heap sweep against the CM: pages visited
// and, of those, the pages on which no tuple survived the re-filter.
func (cm *CM) NoteSweep(pages, falsePositive int64) {
	cm.pagesSwept.Add(pages)
	cm.falsePositivePages.Add(falsePositive)
}

// PagesSwept returns the heap pages swept by scans this CM drove.
func (cm *CM) PagesSwept() int64 { return cm.pagesSwept.Load() }

// FalsePositivePages returns how many swept pages held no matching
// tuple.
func (cm *CM) FalsePositivePages() int64 { return cm.falsePositivePages.Load() }

// pair resolves (creating on first sight) the slot of a pair, keeping
// the key's run sorted.
func (cm *CM) pair(key []byte, cbucket int32) int32 {
	e, ok := cm.m[string(key)]
	if !ok {
		e = &Entry{Key: string(key)}
		cm.m[e.Key] = e
		cm.size += keyOverhead + int64(len(key))
	}
	i, found := slices.BinarySearch(e.Buckets, cbucket)
	if !found {
		e.Buckets = slices.Insert(e.Buckets, i, cbucket)
		e.Slots = slices.Insert(e.Slots, i, cm.stats.newSlot())
		cm.pairs++
		cm.size += pairOverhead
	}
	return e.Slots[i]
}

// RemoveRow retracts one co-occurrence, deleting the pair when its count
// reaches zero and the key when its last pair disappears. Count and sums
// retract exactly; removing a value equal to the entry's recorded min or
// max marks the entry MMDirty (the new extreme cannot be known without a
// rescan), which index-only MIN/MAX answers treat as impure. The mark
// stays until the pair empties or the CM is rebuilt, also when the row
// taken back is an aborted INSERT's that had become the pair's new
// extreme: cm-agg then sweeps that pair's bucket for MIN and MAX, which
// answers exactly at a sweep's cost, and the CM's checkpoint differs
// from a rebuild's in that bit.
func (cm *CM) RemoveRow(row value.Row, cbucket int32) error {
	cm.keyBuf = cm.AppendKeyForRow(cm.keyBuf[:0], row)
	e, found := cm.m[string(cm.keyBuf)]
	var i int
	if found {
		i, found = slices.BinarySearch(e.Buckets, cbucket)
	}
	if !found {
		return fmt.Errorf("core: remove of unrecorded pair (%x, %d)", cm.keyBuf, cbucket)
	}
	s := e.Slots[i]
	cm.stats.count[s]--
	if cm.stats.count[s] == 0 {
		cm.stats.freeSlot(s)
		e.Buckets = slices.Delete(e.Buckets, i, i+1)
		e.Slots = slices.Delete(e.Slots, i, i+1)
		cm.pairs--
		cm.size -= pairOverhead
		if len(e.Buckets) == 0 {
			delete(cm.m, e.Key)
			cm.size -= keyOverhead + int64(len(e.Key))
		}
		return nil
	}
	for i, c := range cm.spec.StatCols {
		if col, ok := cm.stats.col(i, row[c].K); !ok {
			cm.statsInvalid = true
		} else if col.retract(s, row[c]) {
			cm.stats.dirty[s] = true
		}
	}
	return nil
}

// PairCount returns how many live tuples share the pair in slot (an
// Entry.Slots element): its bucketed key and clustered bucket.
func (cm *CM) PairCount(slot int32) int64 { return cm.stats.count[slot] }

// PairDirty reports that a retraction removed a value equal to a
// recorded minimum or maximum of the pair in slot, so its extremes may
// be stale (count and sums stay exact).
func (cm *CM) PairDirty(slot int32) bool { return cm.stats.dirty[slot] }

// PairStat returns the statistics of stat column s (an index into
// Spec.StatCols) over the pair in slot: the sum in the carrier of the
// column's kind — sumI for an int column, sumF for a float one, both
// zero for a string one — and the extremes, valid while the pair is not
// dirty.
func (cm *CM) PairStat(slot int32, s int) (sumI int64, sumF float64, lo, hi value.Value) {
	return cm.stats.cols[s].stat(slot)
}

// StatsValid reports whether the per-entry aggregate statistics cover
// every live row — true for CMs built and maintained in this process and
// for CMs restored from a checkpoint of the same stat-column layout;
// false after reading one written under another layout, or after a row
// whose stat value is not of its column's kind, until rebuilt.
func (cm *CM) StatsValid() bool { return !cm.statsInvalid }

// StatsSizeBytes returns the memory the per-pair statistics own (not
// counted in SizeBytes, which remains the paper's serialized-CM
// metric): each entry's slot run, the count, MMDirty and stat-column
// arrays at their capacities, the free slot list, and the distinct
// strings the string columns' extremes hold with their interning
// entries. The walk is O(pairs) — CMs are small and memory-resident by
// design.
func (cm *CM) StatsSizeBytes() int64 {
	n := cm.stats.sizeBytes()
	for _, e := range cm.m {
		n += 4 * int64(cap(e.Slots))
	}
	return n
}

// Find returns the entry stored under an encoded bucketed key (the
// concatenated keyenc encodings of one bucket representative per CM
// column), or false when the CM has none: an absent key costs one missed
// hash lookup and reads nothing.
func (cm *CM) Find(key []byte) (Entry, bool) {
	e, ok := cm.m[string(key)]
	if !ok {
		return Entry{}, false
	}
	return *e, true
}

// Lookup returns the clustered buckets co-occurring with the given CM
// attribute values (one value per CM column), ascending: the stored run
// itself, not a copy.
func (cm *CM) Lookup(vals ...value.Value) []int32 {
	if len(vals) != len(cm.spec.UCols) {
		panic("core: Lookup arity mismatch")
	}
	key := make([]byte, 0, 10*len(vals))
	for i, v := range vals {
		key = keyenc.AppendValue(key, cm.spec.Bucketers[i].Bucket(v))
	}
	e, _ := cm.Find(key)
	return e.Buckets
}

// Walk visits every entry with its decoded bucketed values. Iteration
// order is unspecified; returning false stops the walk.
func (cm *CM) Walk(fn func(e Entry, vals []value.Value) bool) error {
	for key, e := range cm.m {
		vals, err := keyenc.DecodeAll([]byte(key))
		if err != nil {
			return err
		}
		if !fn(*e, vals) {
			return nil
		}
	}
	return nil
}

// Keys returns the number of distinct (bucketed) CM-attribute values.
func (cm *CM) Keys() int { return len(cm.m) }

// Pairs returns the number of distinct (u, c-bucket) pairs — the quantity
// that determines CM size ("the CM needs to store every unique pair").
func (cm *CM) Pairs() int64 { return cm.pairs }

// SizeBytes returns the serialized size of the CM's count structure —
// per key [klen u16][key][npairs u32], per pair [bucket i32][count u32]
// — maintained incrementally. This is the number experiments report
// against B+Tree footprints; the per-entry aggregate statistics are
// accounted separately by StatsSizeBytes, and the checkpoint carries
// both.
func (cm *CM) SizeBytes() int64 { return cm.size }

// CPerU returns the average number of clustered buckets per CM key — the
// bucket-level c_per_u that drives the cost model's CM predictions.
func (cm *CM) CPerU() float64 {
	if len(cm.m) == 0 {
		return 0
	}
	return float64(cm.pairs) / float64(len(cm.m))
}

// The one checkpoint format: a magic word, then the version. Anything
// else — the layouts earlier builds wrote (unversioned, v2, v3), a
// foreign or truncated file — is refused with an error rather than
// guessed at; no data in those layouts was ever deployed.
const (
	cmCheckpointMagic   uint32 = 0xC0AB10C5
	cmCheckpointVersion uint32 = 4
	// maxCheckpointStatCols bounds the stat-column count a checkpoint may
	// declare: far above any table's width, far below what a corrupt
	// header could make Deserialize allocate.
	maxCheckpointStatCols = 1 << 12
)

// Serialize writes the CM checkpoint in its binary format (version 4),
// which carries the full per-entry statistics so a recovered CM keeps its
// index-only aggregation pushdown:
//
//	[magic u32][version u32][nStatCols u32][statCol i32]*
//	[numKeys u32] then per key
//	  [klen u16][key][npairs u32] per pair (buckets ascending)
//	    [bucket i32][count i64][mmdirty u8]
//	    per stat col [sumI i64][sumF f64][min value][max value]
//
// Values serialize as a kind byte (0 int, 1 float, 2 string) and their
// payload (i64, f64, or u32-length-prefixed bytes). Keys are written in
// sorted order and each key's run as it is stored, making the output
// stable.
func (cm *CM) Serialize(w io.Writer) error {
	le := binary.LittleEndian
	b := le.AppendUint32(nil, cmCheckpointMagic)
	b = le.AppendUint32(b, cmCheckpointVersion)
	b = le.AppendUint32(b, uint32(len(cm.spec.StatCols)))
	for _, c := range cm.spec.StatCols {
		b = le.AppendUint32(b, uint32(int32(c)))
	}
	keys := make([]string, 0, len(cm.m))
	for k := range cm.m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = le.AppendUint32(b, uint32(len(keys)))
	for _, k := range keys {
		e := cm.m[k]
		b = le.AppendUint16(b, uint16(len(k)))
		b = append(b, k...)
		b = le.AppendUint32(b, uint32(len(e.Buckets)))
		for i, cb := range e.Buckets {
			b = cm.appendPair(le.AppendUint32(b, uint32(cb)), e.Slots[i])
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		b = b[:0]
	}
	_, err := w.Write(b) // the header, when there was no key to carry it
	return err
}

// appendPair serializes the statistics of the pair in slot: count, the
// MMDirty flag, then the carriers of each stat column.
func (cm *CM) appendPair(b []byte, slot int32) []byte {
	le := binary.LittleEndian
	b = le.AppendUint64(b, uint64(cm.PairCount(slot)))
	if cm.PairDirty(slot) {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	for s := range cm.spec.StatCols {
		sumI, sumF, lo, hi := cm.PairStat(slot, s)
		b = le.AppendUint64(b, uint64(sumI))
		b = le.AppendUint64(b, math.Float64bits(sumF))
		b = appendValue(appendValue(b, lo), hi)
	}
	return b
}

// appendValue serializes one value as kind byte + payload.
func appendValue(b []byte, v value.Value) []byte {
	le := binary.LittleEndian
	switch v.K {
	case value.Int:
		return le.AppendUint64(append(b, 0), uint64(v.I))
	case value.Float:
		return le.AppendUint64(append(b, 1), math.Float64bits(v.F))
	default:
		return append(le.AppendUint32(append(b, 2), uint32(len(v.S))), v.S...)
	}
}

// checkpointReader reads a checkpoint's fields with a sticky error: after
// the first failure every read returns zero, and the caller checks err
// once per loop turn. Nothing is allocated from a length the input
// declares until that many bytes have actually arrived.
type checkpointReader struct {
	r   io.Reader
	buf [8]byte
	err error
}

func (c *checkpointReader) fixed(n int) []byte {
	if c.err == nil {
		_, c.err = io.ReadFull(c.r, c.buf[:n])
	}
	if c.err != nil {
		clear(c.buf[:n])
	}
	return c.buf[:n]
}

func (c *checkpointReader) u8() byte    { return c.fixed(1)[0] }
func (c *checkpointReader) u16() uint16 { return binary.LittleEndian.Uint16(c.fixed(2)) }
func (c *checkpointReader) u32() uint32 { return binary.LittleEndian.Uint32(c.fixed(4)) }
func (c *checkpointReader) u64() uint64 { return binary.LittleEndian.Uint64(c.fixed(8)) }

// bytes reads n declared bytes. A length beyond directRead is not trusted
// with an allocation: the result grows as the bytes arrive, so a lying
// length costs no more memory than the input that backs it.
func (c *checkpointReader) bytes(n int64) []byte {
	const directRead = 1 << 16
	if c.err != nil {
		return nil
	}
	if n <= directRead {
		b := make([]byte, n)
		_, c.err = io.ReadFull(c.r, b)
		return b
	}
	b, err := io.ReadAll(io.LimitReader(c.r, n))
	if err == nil && int64(len(b)) < n {
		err = io.ErrUnexpectedEOF
	}
	c.err = err
	return b
}

// value reads one value written by appendValue.
func (c *checkpointReader) value() value.Value {
	switch kind := c.u8(); kind {
	case 0:
		return value.NewInt(int64(c.u64()))
	case 1:
		return value.NewFloat(math.Float64frombits(c.u64()))
	case 2:
		return value.NewString(string(c.bytes(int64(c.u32()))))
	default:
		if c.err == nil {
			c.err = fmt.Errorf("bad value kind byte %d", kind)
		}
		return value.Value{}
	}
}

// Deserialize replaces the CM's contents from a checkpoint written by
// Serialize; any other header is an "unsupported checkpoint" error, and
// a truncated or corrupt body — a key that does not decode to the spec's
// arity or repeats, a run that is not strictly ascending, a pair without
// a positive count, an implausible stat-column count, a statistic that
// cannot be its column's kind — is an error that leaves the CM as it
// was. A checkpoint whose stat-column layout matches
// the spec restores the per-entry statistics in full, so index-only
// aggregation (cm-agg) works immediately. One written under a different
// stat-column layout carries no usable statistics; the pair counts load
// and the statistics are marked invalid, which the table layer repairs
// with a heap-scan rebuild at recovery. The spec is unchanged: callers
// pair a checkpoint with the CM it came from.
func (cm *CM) Deserialize(r io.Reader) error {
	c := &checkpointReader{r: r}
	magic, ver := c.u32(), c.u32()
	if c.err != nil {
		return fmt.Errorf("core: unsupported CM checkpoint: header: %w", c.err)
	}
	if magic != cmCheckpointMagic || ver != cmCheckpointVersion {
		return fmt.Errorf("core: unsupported CM checkpoint (header %#x, version %d)", magic, ver)
	}
	m, stats, layoutOK, err := cm.readEntries(c)
	if err != nil {
		return fmt.Errorf("core: CM checkpoint: %w", err)
	}
	cm.m, cm.stats, cm.pairs, cm.size, cm.statsInvalid = m, stats, 0, 0, !layoutOK
	for k, e := range m {
		cm.pairs += int64(len(e.Buckets))
		cm.size += keyOverhead + int64(len(k)) + pairOverhead*int64(len(e.Buckets))
	}
	return nil
}

// readEntries reads a checkpoint's body — everything after the version
// word — into a fresh key map and statistics columns. layoutOK reports
// that the stat columns it declares are the spec's, so the statistics it
// carries were kept; each must then be of its column's kind.
func (cm *CM) readEntries(c *checkpointReader) (m map[string]*Entry, stats pairStats, layoutOK bool, err error) {
	fail := func(err error) (map[string]*Entry, pairStats, bool, error) { return nil, pairStats{}, false, err }
	nstat := int(c.u32())
	if nstat > maxCheckpointStatCols {
		return fail(fmt.Errorf("%d stat columns declared", nstat))
	}
	// Statistics are only meaningful under the layout they were written
	// with; a mismatched layout degrades to counts-only.
	layoutOK = nstat == len(cm.spec.StatCols)
	for i := 0; i < nstat && c.err == nil; i++ {
		if col := int(int32(c.u32())); layoutOK && col != cm.spec.StatCols[i] {
			layoutOK = false
		}
	}
	nk := c.u32()
	m = make(map[string]*Entry, min(nk, 1<<10)) // a hint, capped: nk is unread input
	stats = newPairStats(len(cm.spec.StatCols))
	for ; nk > 0; nk-- {
		key := c.bytes(int64(c.u16()))
		np := c.u32()
		if c.err != nil {
			return fail(c.err)
		}
		if vals, err := keyenc.DecodeAll(key); err != nil || len(vals) != len(cm.spec.UCols) {
			return fail(fmt.Errorf("key %x is not %d encoded values", key, len(cm.spec.UCols)))
		}
		if _, dup := m[string(key)]; dup || np == 0 {
			return fail(fmt.Errorf("key %x repeats or has no pairs", key))
		}
		e := &Entry{Key: string(key)}
		for ; np > 0; np-- {
			bucket := int32(c.u32())
			slot := stats.newSlot()
			count, dirty := int64(c.u64()), c.u8() != 0
			for s := 0; s < nstat && c.err == nil; s++ {
				sumI, sumF := int64(c.u64()), math.Float64frombits(c.u64())
				lo, hi := c.value(), c.value()
				if !layoutOK || c.err != nil {
					continue
				}
				if col, ok := stats.col(s, lo.K); !ok || !col.set(slot, sumI, sumF, lo, hi) {
					return fail(fmt.Errorf("key %x bucket %d: %s stat column %d cannot hold sums %d, %v and %s, %s extremes",
						key, bucket, col.kind, cm.spec.StatCols[s], sumI, sumF, lo.K, hi.K))
				}
			}
			if c.err != nil {
				return fail(c.err)
			}
			if n := len(e.Buckets); count <= 0 || (n > 0 && bucket <= e.Buckets[n-1]) {
				return fail(fmt.Errorf("key %x: bucket %d (count %d) breaks the ascending run", key, bucket, count))
			}
			stats.count[slot] = count
			stats.dirty[slot] = dirty
			e.Buckets = append(e.Buckets, bucket)
			e.Slots = append(e.Slots, slot)
		}
		m[e.Key] = e
	}
	if c.err != nil {
		return fail(c.err)
	}
	return m, stats, layoutOK, nil
}

// Reset empties the CM (keys, pairs, size accounting) and marks its
// statistics valid again: the entry point for a full rebuild, after which
// the caller re-adds every live row with AddRow.
func (cm *CM) Reset() {
	cm.m = make(map[string]*Entry)
	cm.stats = newPairStats(len(cm.spec.StatCols))
	cm.pairs = 0
	cm.size = 0
	cm.statsInvalid = false
}
