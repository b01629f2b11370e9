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
	"sort"
	"sync/atomic"

	"repro/internal/filter"
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

// EntryStats is the per-(key, clustered-bucket) statistic block of one
// CM entry: the co-occurrence count (Algorithm 1's reference count) plus
// optional per-column aggregate carriers over the tuples the entry
// covers. Count and the sums retract exactly on delete; Min/Max cannot
// shrink, so a delete that removes a boundary value marks the entry
// MMDirty and index-only MIN/MAX answers fall back to sweeping it.
type EntryStats struct {
	// Count is how many live tuples share this (bucketed key, clustered
	// bucket) pair — the uint32 reference count of the original layout,
	// widened.
	Count int64
	// SumI / SumF accumulate each stat column's values (int columns in
	// SumI exactly, float columns in SumF), indexed like Spec.StatCols.
	SumI []int64
	SumF []float64
	// Min / Max track each stat column's extreme values, valid while
	// Count > 0 and !MMDirty.
	Min, Max []value.Value
	// MMDirty reports that a retraction removed a value equal to a
	// recorded Min or Max, so the extremes may be stale (count and sums
	// stay exact).
	MMDirty bool
}

// CM is a correlation map. Lookups may run concurrently with each other;
// AddRow/RemoveRow require exclusive access. The engine enforces this
// with the table latch (readers under RLock, maintenance under Lock), so
// the CM itself carries no lock.
type CM struct {
	spec  Spec
	m     map[string]map[int32]*EntryStats
	pairs int64
	size  int64 // serialized-size accounting
	// statsInvalid marks per-entry statistics as incomplete: a CM
	// restored from a checkpoint (whose format predates the statistics)
	// cannot answer aggregates index-only until rebuilt.
	statsInvalid bool
	// bloom, when enabled, summarizes the CM's distinct (bucketed) keys
	// so a point probe for an absent key skips the lookup (and the heap
	// fetches behind it) entirely. Maintained through the Algorithm-1
	// hooks: entry adds a key on first sight, RemoveRow retracts it when
	// its last pair disappears. nil means no bloom (the default).
	bloom *filter.Bloom
	// bloomExpected remembers the sizing EnableBloom was called with so
	// Reset and checkpoint recovery can rebuild an equivalent filter.
	bloomExpected int64
	// bloomSkips counts probes the bloom answered negatively (atomic:
	// lookups run concurrently under the table read latch).
	bloomSkips atomic.Int64
	// pagesSwept and falsePositivePages are the CM's live health gauges:
	// heap pages swept by scans this CM drove, and how many of those held
	// no matching tuple (atomic, like bloomSkips). A rising share of
	// false-positive pages says the soft functional dependency the CM
	// compresses has weakened.
	pagesSwept         atomic.Int64
	falsePositivePages atomic.Int64
}

// cmBloomSeed keeps CM bloom hashing deterministic across runs; the
// bloom also serializes its seed, so a recovered filter answers
// identically.
const cmBloomSeed = 0xC0AB10C5F17E

// cmBloomFPP is the CM bloom's target false-positive rate. A false
// positive only costs the probe the bloom would have skipped, so a
// modest rate keeps the filter small (CMs are the compact structure).
const cmBloomFPP = 0.01

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
	return &CM{spec: spec, m: make(map[string]map[int32]*EntryStats)}
}

// Spec returns the CM's design.
func (cm *CM) Spec() Spec { return cm.spec }

// BucketValues applies the spec's bucketers to the CM-attribute values.
func (cm *CM) BucketValues(vals []value.Value) []value.Value {
	out := make([]value.Value, len(vals))
	for i, v := range vals {
		out[i] = cm.spec.Bucketers[i].Bucket(v)
	}
	return out
}

// KeyForRow buckets and encodes the CM attribute of a full table row.
func (cm *CM) KeyForRow(row value.Row) []byte {
	dst := make([]byte, 0, 10*len(cm.spec.UCols))
	for i, c := range cm.spec.UCols {
		dst = keyenc.AppendValue(dst, cm.spec.Bucketers[i].Bucket(row[c]))
	}
	return dst
}

// keyForValues buckets and encodes explicit CM-attribute values.
func (cm *CM) keyForValues(vals []value.Value) []byte {
	dst := make([]byte, 0, 10*len(vals))
	for i, v := range vals {
		dst = keyenc.AppendValue(dst, cm.spec.Bucketers[i].Bucket(v))
	}
	return dst
}

// AddRow records the co-occurrence of the row's CM attribute with the
// clustered bucket, incrementing the pair's count and folding the row's
// stat-column values into the entry statistics (Algorithm 1, extended).
func (cm *CM) AddRow(row value.Row, cbucket int32) {
	st := cm.entry(cm.KeyForRow(row), cbucket)
	st.Count++
	for i, c := range cm.spec.StatCols {
		v := row[c]
		switch v.K {
		case value.Int:
			st.SumI[i] += v.I
		case value.Float:
			st.SumF[i] += v.F
		}
		if st.Count == 1 {
			st.Min[i], st.Max[i] = v, v
			continue
		}
		if v.Compare(st.Min[i]) < 0 {
			st.Min[i] = v
		}
		if v.Compare(st.Max[i]) > 0 {
			st.Max[i] = v
		}
	}
}

// EnableBloom arms the CM's key bloom filter, sized for expectedN
// distinct keys, and seeds it with the keys already present. Callers
// hold the table write latch (like AddRow).
func (cm *CM) EnableBloom(expectedN int64) {
	cm.bloomExpected = expectedN
	cm.bloom = filter.NewBloom(expectedN, cmBloomFPP, cmBloomSeed)
	for k := range cm.m {
		cm.bloom.Add([]byte(k))
	}
}

// BloomEnabled reports whether the CM maintains a key bloom filter.
func (cm *CM) BloomEnabled() bool { return cm.bloom != nil }

// BloomSkips returns how many point probes the bloom pruned.
func (cm *CM) BloomSkips() int64 { return cm.bloomSkips.Load() }

// NoteBloomSkips records n point probes the bloom pruned (ProbePossible
// said no) in a probe a statement went on to act on.
func (cm *CM) NoteBloomSkips(n int64) { cm.bloomSkips.Add(n) }

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

// BloomSizeBytes returns the bloom filter's footprint (0 when disabled).
func (cm *CM) BloomSizeBytes() int64 {
	if cm.bloom == nil {
		return 0
	}
	return cm.bloom.SizeBytes()
}

// ProbePossible reports whether a point lookup for the given
// CM-attribute values can possibly match: false (definitive) only when
// the bloom proves the bucketed key absent. Without a bloom it always
// reports true. It counts nothing — the planner probes CMs it may not
// use; see NoteBloomSkips.
func (cm *CM) ProbePossible(vals []value.Value) bool {
	return cm.bloom == nil || cm.bloom.MayContain(cm.keyForValues(vals))
}

// entry resolves (creating on first sight) the stats block for a pair.
func (cm *CM) entry(key []byte, cbucket int32) *EntryStats {
	set, ok := cm.m[string(key)]
	if !ok {
		set = make(map[int32]*EntryStats, 2)
		cm.m[string(key)] = set
		cm.size += keyOverhead + int64(len(key))
		if cm.bloom != nil {
			cm.bloom.Add(key)
		}
	}
	st, ok := set[cbucket]
	if !ok {
		nstat := len(cm.spec.StatCols)
		st = &EntryStats{
			SumI: make([]int64, nstat),
			SumF: make([]float64, nstat),
			Min:  make([]value.Value, nstat),
			Max:  make([]value.Value, nstat),
		}
		set[cbucket] = st
		cm.pairs++
		cm.size += pairOverhead
	}
	return st
}

// RemoveRow retracts one co-occurrence, deleting the pair when its count
// reaches zero and the key when its last pair disappears. Count and sums
// retract exactly; removing a value equal to the entry's recorded min or
// max marks the entry MMDirty (the new extreme cannot be known without a
// rescan), which index-only MIN/MAX answers treat as impure.
func (cm *CM) RemoveRow(row value.Row, cbucket int32) error {
	key := cm.KeyForRow(row)
	set, ok := cm.m[string(key)]
	if !ok || set[cbucket] == nil || set[cbucket].Count == 0 {
		return fmt.Errorf("core: remove of unrecorded pair (%x, %d)", key, cbucket)
	}
	st := set[cbucket]
	st.Count--
	if st.Count == 0 {
		delete(set, cbucket)
		cm.pairs--
		cm.size -= pairOverhead
		if len(set) == 0 {
			delete(cm.m, string(key))
			cm.size -= keyOverhead + int64(len(key))
			if cm.bloom != nil {
				cm.bloom.Remove(key)
			}
		}
		return nil
	}
	for i, c := range cm.spec.StatCols {
		v := row[c]
		switch v.K {
		case value.Int:
			st.SumI[i] -= v.I
		case value.Float:
			st.SumF[i] -= v.F
		}
		if v.Compare(st.Min[i]) == 0 || v.Compare(st.Max[i]) == 0 {
			st.MMDirty = true
		}
	}
	return nil
}

// StatsValid reports whether the per-entry aggregate statistics cover
// every live row — true for CMs built and maintained in this process and
// for CMs restored from a checkpoint of the same stat-column layout;
// false after reading one written under another layout, until rebuilt.
func (cm *CM) StatsValid() bool { return !cm.statsInvalid }

// StatsSizeBytes estimates the in-memory footprint of the per-entry
// aggregate statistics (not counted in SizeBytes, which remains the
// paper's serialized-CM metric): per pair, the widened count plus sum
// carriers and min/max value headers for each stat column, plus the
// string payloads the min/max values of string columns retain. The walk
// is O(pairs) — CMs are small and memory-resident by design.
func (cm *CM) StatsSizeBytes() int64 {
	perPair := int64(8) // widened count
	for range cm.spec.StatCols {
		perPair += 8 + 8 + 2*16 // SumI + SumF + two value headers
	}
	total := cm.pairs * perPair
	for _, set := range cm.m {
		for _, st := range set {
			for i := range cm.spec.StatCols {
				if st.Min[i].K == value.String {
					total += int64(len(st.Min[i].S) + len(st.Max[i].S))
				}
			}
		}
	}
	return total
}

// Lookup returns the clustered buckets co-occurring with the given CM
// attribute values (one value per CM column), sorted ascending.
func (cm *CM) Lookup(vals ...value.Value) []int32 {
	if len(vals) != len(cm.spec.UCols) {
		panic("core: Lookup arity mismatch")
	}
	set := cm.m[string(cm.keyForValues(vals))]
	out := make([]int32, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// LookupMany unions the clustered buckets for several CM-attribute value
// combinations (the cm_lookup({vu1..vuN}) API of Section 5.2), sorted.
func (cm *CM) LookupMany(valLists [][]value.Value) []int32 {
	if len(valLists) == 1 {
		return cm.Lookup(valLists[0]...)
	}
	seen := make(map[int32]struct{})
	for _, vals := range valLists {
		for _, b := range cm.Lookup(vals...) {
			seen[b] = struct{}{}
		}
	}
	return setToSorted(seen)
}

// LookupMatch returns the clustered buckets of every CM entry whose
// bucketed attribute values satisfy match. Range predicates use this
// path: the whole CM is scanned, which is cheap because CMs are small
// and memory-resident.
func (cm *CM) LookupMatch(match func(vals []value.Value) bool) ([]int32, error) {
	seen := make(map[int32]struct{})
	for key, set := range cm.m {
		vals, err := keyenc.DecodeAll([]byte(key))
		if err != nil {
			return nil, err
		}
		if !match(vals) {
			continue
		}
		for b := range set {
			seen[b] = struct{}{}
		}
	}
	return setToSorted(seen), nil
}

func setToSorted(seen map[int32]struct{}) []int32 {
	out := make([]int32, 0, len(seen))
	for b := range seen {
		out = append(out, b)
	}
	slices.Sort(out)
	return out
}

// Walk visits every entry (decoded bucketed values, bucket->count map).
// Iteration order is unspecified. Returning false stops the walk.
func (cm *CM) Walk(fn func(vals []value.Value, buckets map[int32]uint32) bool) error {
	for key, set := range cm.m {
		vals, err := keyenc.DecodeAll([]byte(key))
		if err != nil {
			return err
		}
		counts := make(map[int32]uint32, len(set))
		for b, st := range set {
			counts[b] = uint32(st.Count)
		}
		if !fn(vals, counts) {
			return nil
		}
	}
	return nil
}

// WalkStats visits every key with its encoded form, decoded bucketed
// values and the per-clustered-bucket statistics blocks. The stats are
// the CM's live state: callers must not mutate them. Iteration order is
// unspecified; returning false stops the walk.
func (cm *CM) WalkStats(fn func(key []byte, vals []value.Value, buckets map[int32]*EntryStats) bool) error {
	for key, set := range cm.m {
		vals, err := keyenc.DecodeAll([]byte(key))
		if err != nil {
			return err
		}
		if !fn([]byte(key), vals, set) {
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
// else — the unversioned and v2 layouts earlier builds wrote, a foreign
// or truncated file — is refused with an error rather than guessed at;
// no data in those layouts was ever deployed.
const (
	cmCheckpointMagic   uint32 = 0xC0AB10C5
	cmCheckpointVersion uint32 = 3
)

// Serialize writes the CM checkpoint in its binary format (version 3),
// which carries the full per-entry statistics so a recovered CM keeps its
// index-only aggregation pushdown, plus the key bloom when one is
// enabled:
//
//	[magic u32][version u32][nStatCols u32][statCol i32]*
//	[numKeys u32] then per key
//	  [klen u16][key][npairs u32] per pair (buckets sorted)
//	    [bucket i32][count i64][mmdirty u8]
//	    per stat col [sumI i64][sumF f64][min value][max value]
//	[bloomPresent u8][bloom bytes when present]
//
// Values serialize as a kind byte (0 int, 1 float, 2 string) and their
// payload (i64, f64, or u32-length-prefixed bytes). Keys and buckets are
// written in sorted order, making the output stable.
func (cm *CM) Serialize(w io.Writer) error {
	var buf [9]byte // writeValue needs kind byte + 8-byte payload
	u32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(buf[:4], v)
		_, err := w.Write(buf[:4])
		return err
	}
	for _, v := range []uint32{cmCheckpointMagic, cmCheckpointVersion, uint32(len(cm.spec.StatCols))} {
		if err := u32(v); err != nil {
			return err
		}
	}
	for _, c := range cm.spec.StatCols {
		if err := u32(uint32(int32(c))); err != nil {
			return err
		}
	}
	keys := make([]string, 0, len(cm.m))
	for k := range cm.m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := u32(uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		set := cm.m[k]
		binary.LittleEndian.PutUint16(buf[:2], uint16(len(k)))
		if _, err := w.Write(buf[:2]); err != nil {
			return err
		}
		if _, err := io.WriteString(w, k); err != nil {
			return err
		}
		if err := u32(uint32(len(set))); err != nil {
			return err
		}
		buckets := make([]int32, 0, len(set))
		for b := range set {
			buckets = append(buckets, b)
		}
		sort.Slice(buckets, func(i, j int) bool { return buckets[i] < buckets[j] })
		for _, b := range buckets {
			st := set[b]
			if err := u32(uint32(b)); err != nil {
				return err
			}
			binary.LittleEndian.PutUint64(buf[:8], uint64(st.Count))
			if _, err := w.Write(buf[:8]); err != nil {
				return err
			}
			dirty := byte(0)
			if st.MMDirty {
				dirty = 1
			}
			if _, err := w.Write([]byte{dirty}); err != nil {
				return err
			}
			for i := range cm.spec.StatCols {
				binary.LittleEndian.PutUint64(buf[:8], uint64(st.SumI[i]))
				if _, err := w.Write(buf[:8]); err != nil {
					return err
				}
				binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(st.SumF[i]))
				if _, err := w.Write(buf[:8]); err != nil {
					return err
				}
				if err := writeValue(w, buf[:], st.Min[i]); err != nil {
					return err
				}
				if err := writeValue(w, buf[:], st.Max[i]); err != nil {
					return err
				}
			}
		}
	}
	present := byte(0)
	if cm.bloom != nil {
		present = 1
	}
	if _, err := w.Write([]byte{present}); err != nil {
		return err
	}
	if cm.bloom != nil {
		if _, err := cm.bloom.WriteTo(w); err != nil {
			return err
		}
	}
	return nil
}

// writeValue serializes one value as kind byte + payload.
func writeValue(w io.Writer, buf []byte, v value.Value) error {
	switch v.K {
	case value.Int:
		buf[0] = 0
		binary.LittleEndian.PutUint64(buf[1:9], uint64(v.I))
		_, err := w.Write(buf[:9])
		return err
	case value.Float:
		buf[0] = 1
		binary.LittleEndian.PutUint64(buf[1:9], math.Float64bits(v.F))
		_, err := w.Write(buf[:9])
		return err
	default:
		buf[0] = 2
		binary.LittleEndian.PutUint32(buf[1:5], uint32(len(v.S)))
		if _, err := w.Write(buf[:5]); err != nil {
			return err
		}
		_, err := io.WriteString(w, v.S)
		return err
	}
}

// readValue reads one value written by writeValue.
func readValue(r io.Reader, buf []byte) (value.Value, error) {
	if _, err := io.ReadFull(r, buf[:1]); err != nil {
		return value.Value{}, err
	}
	switch buf[0] {
	case 0:
		if _, err := io.ReadFull(r, buf[:8]); err != nil {
			return value.Value{}, err
		}
		return value.NewInt(int64(binary.LittleEndian.Uint64(buf[:8]))), nil
	case 1:
		if _, err := io.ReadFull(r, buf[:8]); err != nil {
			return value.Value{}, err
		}
		return value.NewFloat(math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))), nil
	case 2:
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return value.Value{}, err
		}
		sb := make([]byte, binary.LittleEndian.Uint32(buf[:4]))
		if _, err := io.ReadFull(r, sb); err != nil {
			return value.Value{}, err
		}
		return value.NewString(string(sb)), nil
	default:
		return value.Value{}, fmt.Errorf("core: bad value kind byte %d in checkpoint", buf[0])
	}
}

// Deserialize replaces the CM's contents from a checkpoint written by
// Serialize; any other header is an "unsupported checkpoint" error. A
// checkpoint whose stat-column layout matches the spec restores the
// per-entry statistics in full, so index-only aggregation (cm-agg) works
// immediately. One written under a different stat-column layout carries
// no usable statistics; the pair counts load and the statistics are
// marked invalid, which the table layer repairs with a heap-scan rebuild
// at recovery. When the CM has its bloom enabled, the checkpoint's bloom
// is adopted directly; a checkpoint written without one triggers a
// rebuild from the loaded keys, so negative-probe pruning survives
// recovery either way. The spec is unchanged: callers pair a checkpoint
// with the CM it came from.
func (cm *CM) Deserialize(r io.Reader) error {
	var buf [9]byte
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return fmt.Errorf("core: unsupported CM checkpoint: header: %w", err)
	}
	if magic, ver := binary.LittleEndian.Uint32(buf[:4]), binary.LittleEndian.Uint32(buf[4:8]); magic != cmCheckpointMagic || ver != cmCheckpointVersion {
		return fmt.Errorf("core: unsupported CM checkpoint (header %#x, version %d)", magic, ver)
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return err
	}
	nstat := int(binary.LittleEndian.Uint32(buf[:4]))
	statCols := make([]int, nstat)
	for i := range statCols {
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return err
		}
		statCols[i] = int(int32(binary.LittleEndian.Uint32(buf[:4])))
	}
	// Statistics are only meaningful under the layout they were written
	// with; a mismatched layout degrades to counts-only.
	layoutOK := len(statCols) == len(cm.spec.StatCols)
	for i := range statCols {
		if !layoutOK || statCols[i] != cm.spec.StatCols[i] {
			layoutOK = false
			break
		}
	}
	if _, err := io.ReadFull(r, buf[:4]); err != nil {
		return err
	}
	nk := binary.LittleEndian.Uint32(buf[:4])
	m := make(map[string]map[int32]*EntryStats, nk)
	var pairs, size int64
	specStats := len(cm.spec.StatCols)
	for i := uint32(0); i < nk; i++ {
		if _, err := io.ReadFull(r, buf[:2]); err != nil {
			return err
		}
		klen := binary.LittleEndian.Uint16(buf[:2])
		kb := make([]byte, klen)
		if _, err := io.ReadFull(r, kb); err != nil {
			return err
		}
		if _, err := io.ReadFull(r, buf[:4]); err != nil {
			return err
		}
		np := binary.LittleEndian.Uint32(buf[:4])
		set := make(map[int32]*EntryStats, np)
		for j := uint32(0); j < np; j++ {
			if _, err := io.ReadFull(r, buf[:4]); err != nil {
				return err
			}
			bucket := int32(binary.LittleEndian.Uint32(buf[:4]))
			if _, err := io.ReadFull(r, buf[:9]); err != nil {
				return err
			}
			st := &EntryStats{
				Count:   int64(binary.LittleEndian.Uint64(buf[:8])),
				MMDirty: buf[8] != 0,
				SumI:    make([]int64, specStats),
				SumF:    make([]float64, specStats),
				Min:     make([]value.Value, specStats),
				Max:     make([]value.Value, specStats),
			}
			for s := 0; s < nstat; s++ {
				if _, err := io.ReadFull(r, buf[:8]); err != nil {
					return err
				}
				sumI := int64(binary.LittleEndian.Uint64(buf[:8]))
				if _, err := io.ReadFull(r, buf[:8]); err != nil {
					return err
				}
				sumF := math.Float64frombits(binary.LittleEndian.Uint64(buf[:8]))
				minV, err := readValue(r, buf[:])
				if err != nil {
					return err
				}
				maxV, err := readValue(r, buf[:])
				if err != nil {
					return err
				}
				if layoutOK {
					st.SumI[s], st.SumF[s] = sumI, sumF
					st.Min[s], st.Max[s] = minV, maxV
				}
			}
			set[bucket] = st
		}
		m[string(kb)] = set
		pairs += int64(np)
		size += keyOverhead + int64(klen) + pairOverhead*int64(np)
	}
	cm.m = m
	cm.pairs = pairs
	cm.size = size
	cm.statsInvalid = !layoutOK
	var loaded *filter.Bloom
	if _, err := io.ReadFull(r, buf[:1]); err != nil {
		return err
	}
	if buf[0] != 0 {
		b, err := filter.ReadBloom(r)
		if err != nil {
			return err
		}
		loaded = b
	}
	if cm.bloom != nil {
		if loaded != nil {
			cm.bloom = loaded
		} else {
			cm.rebuildBloom()
		}
	}
	return nil
}

// rebuildBloom repopulates an enabled bloom from the CM's current keys
// (no-op when the bloom is disabled), growing the sizing when the
// loaded key count outstrips the original expectation.
func (cm *CM) rebuildBloom() {
	if cm.bloom == nil {
		return
	}
	if n := int64(len(cm.m)); n > cm.bloomExpected {
		cm.bloomExpected = n
	}
	cm.bloom = filter.NewBloom(cm.bloomExpected, cmBloomFPP, cmBloomSeed)
	for k := range cm.m {
		cm.bloom.Add([]byte(k))
	}
}

// Reset empties the CM (keys, pairs, size accounting) and marks its
// statistics valid again: the entry point for a full rebuild, after which
// the caller re-adds every live row with AddRow. An enabled bloom is
// rebuilt empty at its original sizing.
func (cm *CM) Reset() {
	cm.m = make(map[string]map[int32]*EntryStats)
	cm.pairs = 0
	cm.size = 0
	cm.statsInvalid = false
	if cm.bloom != nil {
		cm.bloom = filter.NewBloom(cm.bloomExpected, cmBloomFPP, cmBloomSeed)
	}
}
