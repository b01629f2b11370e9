package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

func TestDistinctSamplerExactWhenSmall(t *testing.T) {
	d := NewDistinctSampler(1024)
	for i := 0; i < 500; i++ {
		d.Add(key(i % 100)) // 100 distinct
	}
	if got := d.Estimate(); got != 100 {
		t.Errorf("estimate = %v, want exactly 100 (fits in sample)", got)
	}
}

func TestDistinctSamplerLargeDomainAccuracy(t *testing.T) {
	d := NewDistinctSampler(1024)
	const distinct = 50000
	for i := 0; i < distinct; i++ {
		d.Add(key(i))
		d.Add(key(i)) // duplicates must not inflate the estimate
	}
	got := d.Estimate()
	if got < 0.7*distinct || got > 1.3*distinct {
		t.Errorf("estimate = %v for %d distinct (>30%% error)", got, distinct)
	}
}

func TestDistinctSamplerMonotoneLevels(t *testing.T) {
	d := NewDistinctSampler(16)
	for i := 0; i < 10000; i++ {
		d.Add(key(i))
	}
	if d.level == 0 {
		t.Error("sampler never raised its level despite overflow")
	}
	if len(d.sample) > d.capacity {
		t.Error("sample exceeds capacity")
	}
}

func TestGEEExactSample(t *testing.T) {
	// When the "sample" is the whole table, GEE returns the exact count.
	var keys [][]byte
	for i := 0; i < 200; i++ {
		keys = append(keys, key(i%40))
	}
	fc := CountFrequencies(keys)
	if got := GEE(200, fc); got != 40 {
		t.Errorf("GEE full-sample = %v, want 40", got)
	}
}

func TestGEEUniformDomain(t *testing.T) {
	// Sample n of N uniform distinct values: most appear once, and GEE
	// should land within its sqrt(N/n) guarantee of the truth.
	rng := rand.New(rand.NewSource(5))
	const tableSize = 100000
	const distinct = 100000 // all unique
	const n = 10000
	var keys [][]byte
	for i := 0; i < n; i++ {
		keys = append(keys, key(rng.Intn(distinct)))
	}
	fc := CountFrequencies(keys)
	got := GEE(tableSize, fc)
	ratio := got / distinct
	// GEE's ratio error is O(sqrt(N/n)); allow a modest constant factor.
	bound := 1.5 * math.Sqrt(float64(tableSize)/float64(n))
	if ratio > bound || 1/ratio > bound {
		t.Errorf("GEE ratio error %v exceeds bound %v", ratio, bound)
	}
}

func TestChaoSkewed(t *testing.T) {
	// Heavy skew: a few hot values plus a tail. Chao should be close to
	// the true distinct count and far below naive sqrt-scaling.
	rng := rand.New(rand.NewSource(9))
	var keys [][]byte
	for i := 0; i < 10000; i++ {
		if rng.Float64() < 0.9 {
			keys = append(keys, key(rng.Intn(10))) // hot set
		} else {
			keys = append(keys, key(10+rng.Intn(500))) // tail
		}
	}
	fc := CountFrequencies(keys)
	got := Chao(fc)
	if got < 400 || got > 800 {
		t.Errorf("Chao = %v for ~510 true distinct", got)
	}
}

func TestAdaptiveEstimateBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 100 + rng.Intn(400)
		domain := 1 + rng.Intn(1000)
		var keys [][]byte
		for i := 0; i < n; i++ {
			keys = append(keys, key(rng.Intn(domain)))
		}
		fc := CountFrequencies(keys)
		tableSize := int64(n * 100)
		est := AdaptiveEstimate(tableSize, fc)
		return est >= float64(fc.D) && est <= float64(tableSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAdaptiveEstimateCompleteSample(t *testing.T) {
	var keys [][]byte
	for i := 0; i < 300; i++ {
		keys = append(keys, key(i%30))
	}
	fc := CountFrequencies(keys)
	// No singletons: sampled domain is covered.
	if got := AdaptiveEstimate(3000, fc); got != 30 {
		t.Errorf("AE with covered domain = %v, want 30", got)
	}
}

func TestAdaptiveBetweenChaoAndGEE(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var keys [][]byte
	for i := 0; i < 5000; i++ {
		keys = append(keys, key(rng.Intn(2000)))
	}
	fc := CountFrequencies(keys)
	const tableSize = 500000
	ae := AdaptiveEstimate(tableSize, fc)
	gee := GEE(tableSize, fc)
	chao := Chao(fc)
	lo, hi := math.Min(gee, chao), math.Max(gee, chao)
	if ae < float64(fc.D) || (ae < lo*0.99 || ae > hi*1.01) {
		t.Errorf("AE=%v outside [%v,%v]", ae, lo, hi)
	}
}

func TestEmptyInputs(t *testing.T) {
	fc := CountFrequencies(nil)
	if GEE(100, fc) != 0 || AdaptiveEstimate(100, fc) != 0 {
		t.Error("empty sample should estimate 0")
	}
	d := NewDistinctSampler(0)
	if d.capacity < 16 {
		t.Error("capacity clamp failed")
	}
}

func TestReservoirUniformity(t *testing.T) {
	// Statistical check: sampling 100 of 10000 repeatedly, the mean of
	// sampled indices should approach the population mean.
	var sum, count float64
	for trial := 0; trial < 30; trial++ {
		r := NewReservoir(100, int64(trial))
		for i := 0; i < 10000; i++ {
			r.Add([]byte{byte(i >> 8), byte(i)})
		}
		if len(r.Items()) != 100 {
			t.Fatalf("reservoir size %d", len(r.Items()))
		}
		for _, it := range r.Items() {
			sum += float64(int(it[0])<<8 | int(it[1]))
			count++
		}
	}
	mean := sum / count
	if mean < 4500 || mean > 5500 {
		t.Errorf("sample mean %v far from 5000: not uniform", mean)
	}
}

func TestReservoirSmallStream(t *testing.T) {
	r := NewReservoir(10, 1)
	for i := 0; i < 5; i++ {
		r.Add(key(i))
	}
	if len(r.Items()) != 5 || r.seen != 5 {
		t.Error("reservoir should keep everything when under capacity")
	}
}

func TestReservoirCopiesItems(t *testing.T) {
	r := NewReservoir(4, 1)
	buf := []byte("abc")
	r.Add(buf)
	buf[0] = 'z'
	if string(r.Items()[0]) != "abc" {
		t.Error("reservoir aliases caller buffer")
	}
}

func TestPairCounterExactCPerU(t *testing.T) {
	// city -> state example from the paper: boston maps to {MA, NH},
	// springfield to {MA, OH}, toledo to {OH}.
	p := NewPairCounter()
	add := func(city, state string, times int) {
		for i := 0; i < times; i++ {
			p.Add([]byte(city), []byte(state))
		}
	}
	add("boston", "MA", 3)
	add("boston", "NH", 1)
	add("springfield", "MA", 2)
	add("springfield", "OH", 1)
	add("toledo", "OH", 2)
	if p.DU() != 3 {
		t.Errorf("D(city) = %d", p.DU())
	}
	if len(p.c) != 3 {
		t.Errorf("D(state) = %d", len(p.c))
	}
	if p.DUC() != 5 {
		t.Errorf("D(city,state) = %d", p.DUC())
	}
	want := 5.0 / 3.0
	if got := p.CPerU(); math.Abs(got-want) > 1e-9 {
		t.Errorf("c_per_u = %v, want %v", got, want)
	}
	if got := p.UTups(); math.Abs(got-3) > 1e-9 {
		t.Errorf("u_tups = %v, want 3", got)
	}
	if got := p.CTups(); math.Abs(got-3) > 1e-9 {
		t.Errorf("c_tups = %v, want 3", got)
	}
	if p.Rows() != 9 {
		t.Errorf("rows = %d", p.Rows())
	}
}

func TestCPerUExactEdge(t *testing.T) {
	if CPerUExact(0, 5) != 0 {
		t.Error("zero D(Au) should yield 0")
	}
	if CPerUExact(4, 8) != 2 {
		t.Error("basic ratio wrong")
	}
}

func TestPerfectFDHasCPerUOne(t *testing.T) {
	// A hard functional dependency Au -> Ac gives c_per_u == 1.
	p := NewPairCounter()
	for i := 0; i < 1000; i++ {
		u := i % 50
		c := u / 5 // deterministic function of u
		p.Add(key(u), key(1000+c))
	}
	if got := p.CPerU(); got != 1 {
		t.Errorf("hard FD c_per_u = %v, want 1", got)
	}
}
