// Package stats implements the statistics machinery behind the paper's
// cost model and CM Advisor:
//
//   - Distinct Sampling (Gibbons, VLDB'01) for accurate single-attribute
//     cardinalities in one scan,
//   - the GEE estimator and an adaptive variant (after Charikar et al.,
//     PODS'00) for composite cardinalities over a random sample,
//   - reservoir sampling for collecting that random sample during the
//     same scan (Olken-style), and
//   - the c_per_u soft-FD strength measure, c_per_u = D(Au,Ac)/D(Au)
//     (Section 4.2), both exact and estimated.
package stats

import (
	"hash/fnv"
	"math"
	"math/rand"
)

// hash64 hashes a byte key for distinct sampling.
func hash64(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// DistinctSampler implements Gibbons' distinct sampling: it retains the
// keys whose hash has at least `level` leading zero bits, doubling the
// threshold whenever the sample outgrows its capacity. The estimate is
// |sample| * 2^level. One full pass yields estimates far more accurate
// than uniform row sampling, which is why the paper uses it for
// single-attribute cardinalities.
type DistinctSampler struct {
	capacity int
	level    uint
	sample   map[uint64]struct{}
}

// NewDistinctSampler creates a sampler retaining at most capacity distinct
// hash values (minimum 16).
func NewDistinctSampler(capacity int) *DistinctSampler {
	if capacity < 16 {
		capacity = 16
	}
	return &DistinctSampler{capacity: capacity, sample: make(map[uint64]struct{})}
}

// Add feeds one attribute value (in any canonical byte encoding).
func (d *DistinctSampler) Add(key []byte) {
	h := hash64(key)
	if leadingZeros(h) < d.level {
		return
	}
	d.sample[h] = struct{}{}
	for len(d.sample) > d.capacity {
		d.level++
		for k := range d.sample {
			if leadingZeros(k) < d.level {
				delete(d.sample, k)
			}
		}
	}
}

func leadingZeros(h uint64) uint {
	n := uint(0)
	for mask := uint64(1) << 63; mask != 0 && h&mask == 0; mask >>= 1 {
		n++
	}
	return n
}

// Estimate returns the estimated number of distinct values seen.
func (d *DistinctSampler) Estimate() float64 {
	return float64(len(d.sample)) * math.Pow(2, float64(d.level))
}

// FreqCounts summarizes a random sample for distinct-value estimation:
// F[i] is the number of distinct values occurring exactly i times in the
// sample (i >= 1), d the number of distinct values, n the sample size.
type FreqCounts struct {
	F map[int]int
	D int // distinct values in sample
	N int // sample size
}

// CountFrequencies builds FreqCounts from a sample of canonical byte keys.
func CountFrequencies(keys [][]byte) FreqCounts {
	counts := make(map[uint64]int, len(keys))
	for _, k := range keys {
		counts[hash64(k)]++
	}
	f := make(map[int]int)
	for _, c := range counts {
		f[c]++
	}
	return FreqCounts{F: f, D: len(counts), N: len(keys)}
}

// GEE is the Guaranteed-Error Estimator of Charikar et al.:
//
//	D̂ = sqrt(N/n)·f1 + Σ_{i≥2} f_i
//
// where N is the table size and n the sample size. It matches the ratio
// error bound sqrt(N/n) for any distribution.
func GEE(tableSize int64, fc FreqCounts) float64 {
	if fc.N == 0 {
		return 0
	}
	if int64(fc.N) >= tableSize {
		return float64(fc.D)
	}
	scale := math.Sqrt(float64(tableSize) / float64(fc.N))
	est := scale * float64(fc.F[1])
	for i, c := range fc.F {
		if i >= 2 {
			est += float64(c)
		}
	}
	return clampEstimate(est, fc, tableSize)
}

// Chao is Chao's 1984 species-richness lower bound D̂ = d + f1²/(2·f2),
// from the estimation literature the paper cites ([10], Bunge et al.).
func Chao(fc FreqCounts) float64 {
	if fc.F[2] == 0 {
		// Degenerate form (Chao's bias-corrected variant).
		return float64(fc.D) + float64(fc.F[1]*(fc.F[1]-1))/2
	}
	return float64(fc.D) + float64(fc.F[1]*fc.F[1])/(2*float64(fc.F[2]))
}

// AdaptiveEstimate is the advisor's composite-cardinality estimator
// (the role AE plays in the paper). GEE's sqrt(N/n)·f1 term overshoots
// on skewed data where singletons are genuinely rare values rather than
// a uniform slice of a huge domain; Chao's estimator is a sharp lower
// bound in exactly those cases. Following the adaptive idea of Charikar
// et al. — pick the scaling according to observed skew — we interpolate
// between the two on a log scale, weighting by the duplication rate of
// the sample, and clamp to the feasible range [d, N_table].
func AdaptiveEstimate(tableSize int64, fc FreqCounts) float64 {
	if fc.N == 0 {
		return 0
	}
	if int64(fc.N) >= tableSize {
		return float64(fc.D)
	}
	if fc.F[1] == 0 {
		// Every sampled value was seen at least twice: the domain is
		// effectively covered.
		return float64(fc.D)
	}
	gee := GEE(tableSize, fc)
	chao := clampEstimate(Chao(fc), fc, tableSize)
	// Duplication rate: 0 when all sample values unique (no skew signal,
	// trust GEE), →1 when heavy duplication (trust Chao).
	dup := 1 - float64(fc.D)/float64(fc.N)
	est := math.Exp((1-dup)*math.Log(gee) + dup*math.Log(chao))
	return clampEstimate(est, fc, tableSize)
}

func clampEstimate(est float64, fc FreqCounts, tableSize int64) float64 {
	if est < float64(fc.D) {
		est = float64(fc.D)
	}
	if est > float64(tableSize) {
		est = float64(tableSize)
	}
	return est
}

// Reservoir maintains a uniform random sample of byte-encoded items using
// Vitter's algorithm R. The CM Advisor samples composite keys this way
// during the Distinct Sampling scan, as in the paper (Section 4.2).
type Reservoir struct {
	capacity int
	items    [][]byte
	seen     int64
	rng      *rand.Rand
}

// NewReservoir creates a reservoir of the given capacity with a
// deterministic seed (experiments must be reproducible).
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity < 1 {
		capacity = 1
	}
	return &Reservoir{capacity: capacity, rng: rand.New(rand.NewSource(seed))}
}

// Add offers one item to the reservoir. The slice is copied.
func (r *Reservoir) Add(item []byte) {
	r.seen++
	cp := append([]byte(nil), item...)
	if len(r.items) < r.capacity {
		r.items = append(r.items, cp)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.capacity) {
		r.items[j] = cp
	}
}

// Items returns the sampled items (do not modify).
func (r *Reservoir) Items() [][]byte { return r.items }

// CPerUExact computes the paper's soft-FD strength measure from exact
// distinct counts: c_per_u = D(Au,Ac) / D(Au).
func CPerUExact(dU, dUC float64) float64 {
	if dU <= 0 {
		return 0
	}
	return dUC / dU
}

// PairCounter computes exact D(Au), D(Ac), D(Au,Ac), u_tups and c_tups
// for one attribute pair in a single pass. The engine feeds one from the
// scan that builds each secondary index, so the planner prices the index
// from exact counts without a scan of its own.
type PairCounter struct {
	u, c, uc map[uint64]struct{} // distinct Au, Ac and (Au, Ac) hashes
	n        int64
	// lastU and lastC are the previous tuple's hashes. A scan in
	// clustered order feeds runs of equal keys; a repeat adds nothing to
	// a set, so Add skips the map for it.
	lastU, lastC uint64
}

// NewPairCounter creates an empty counter.
func NewPairCounter() *PairCounter {
	return &PairCounter{
		u:  make(map[uint64]struct{}),
		c:  make(map[uint64]struct{}),
		uc: make(map[uint64]struct{}),
	}
}

// Add feeds one tuple's encoded Au and Ac keys.
func (p *PairCounter) Add(uKey, cKey []byte) {
	hu, hc := hash64(uKey), hash64(cKey)
	newU, newC := p.n == 0 || hu != p.lastU, p.n == 0 || hc != p.lastC
	p.n++
	p.lastU, p.lastC = hu, hc
	if newU {
		p.u[hu] = struct{}{}
	}
	if newC {
		p.c[hc] = struct{}{}
	}
	if newU || newC {
		// Combine the two hashes order-dependently for the pair count.
		p.uc[hu*0x9E3779B97F4A7C15^hc] = struct{}{}
	}
}

// DU returns D(Au).
func (p *PairCounter) DU() int64 { return int64(len(p.u)) }

// DUC returns D(Au,Ac).
func (p *PairCounter) DUC() int64 { return int64(len(p.uc)) }

// CPerU returns D(Au,Ac)/D(Au).
func (p *PairCounter) CPerU() float64 {
	return CPerUExact(float64(p.DU()), float64(p.DUC()))
}

// UTups returns the average tuples per Au value.
func (p *PairCounter) UTups() float64 {
	if len(p.u) == 0 {
		return 0
	}
	return float64(p.n) / float64(len(p.u))
}

// CTups returns the average tuples per Ac value.
func (p *PairCounter) CTups() float64 {
	if len(p.c) == 0 {
		return 0
	}
	return float64(p.n) / float64(len(p.c))
}

// Rows returns the number of tuples fed.
func (p *PairCounter) Rows() int64 { return p.n }
