package filter

import "math"

// Bloom is a counting bloom filter over byte keys, sized for an
// expected membership count and target false-positive rate. Counters
// (uint8) instead of bits make deletion possible — Remove decrements
// what Add incremented — which is what lets the engine maintain a
// bloom through the Algorithm-1 retraction hooks of secondary indexes.
//
// Counters saturate sticky at 255: a saturated counter is never
// incremented or decremented again, so it errs permanently toward
// "may contain". The invariant that matters is one-sided and
// unconditional: a key whose every Add is matched by at most that many
// Removes can never produce a false negative.
type Bloom struct {
	counters []uint8
	mask     uint64
	k        int
	seed     uint64
}

// bloomMinCounters keeps degenerate sizings (empty tables, tiny indexes)
// from building an always-colliding filter.
const bloomMinCounters = 1024

// NewBloom sizes a counting bloom filter for expectedN members at the
// target false-positive rate fpp (clamped to a sane range). The
// counter array is the standard -n*ln(p)/ln(2)^2 sizing rounded up to
// a power of two; k is the matching optimal hash count.
func NewBloom(expectedN int64, fpp float64, seed uint64) *Bloom {
	if expectedN < 1 {
		expectedN = 1
	}
	if fpp <= 0 || fpp >= 1 {
		fpp = 0.01
	}
	ln2 := math.Ln2
	m := int(math.Ceil(-float64(expectedN) * math.Log(fpp) / (ln2 * ln2)))
	if m < bloomMinCounters {
		m = bloomMinCounters
	}
	size := 1
	for size < m {
		size <<= 1
	}
	k := int(math.Round(float64(size) / float64(expectedN) * ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &Bloom{
		counters: make([]uint8, size),
		mask:     uint64(size) - 1,
		k:        k,
		seed:     seed,
	}
}

// slots derives the filter's k counter indexes for a key with double
// hashing (h1 + i*h2), the standard construction that preserves the
// bloom bound with two underlying hashes.
func (b *Bloom) slots(key []byte, visit func(i uint64)) {
	h1 := Hash64(key, b.seed)
	h2 := Hash64(key, b.seed^0x9E3779B97F4A7C15) | 1
	for i := 0; i < b.k; i++ {
		visit(h1 & b.mask)
		h1 += h2
	}
}

// Add records one occurrence of key.
func (b *Bloom) Add(key []byte) {
	b.slots(key, func(i uint64) {
		if b.counters[i] < math.MaxUint8 {
			b.counters[i]++
		}
	})
}

// Remove retracts one prior Add of key. Saturated counters stay put
// (sticky toward "may contain"); a counter already at zero stays zero,
// which can only happen if Remove was called for a key never Added —
// a caller bug that still cannot produce false negatives for other
// keys' memberships beyond the ordinary collision rate.
func (b *Bloom) Remove(key []byte) {
	b.slots(key, func(i uint64) {
		if c := b.counters[i]; c > 0 && c < math.MaxUint8 {
			b.counters[i] = c - 1
		}
	})
}

// MayContain reports whether key may be a member: false is definitive
// (zero false negatives), true may be a false positive at roughly the
// configured rate while the filter holds about its design load.
func (b *Bloom) MayContain(key []byte) bool {
	out := true
	b.slots(key, func(i uint64) {
		if b.counters[i] == 0 {
			out = false
		}
	})
	return out
}

// SizeBytes returns the counter array's footprint.
func (b *Bloom) SizeBytes() int64 { return int64(len(b.counters)) }
