package filter

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestSketchNeverUndercounts is the count-min contract: for every
// inserted key, under any seed, the estimate is at least the true
// count (hash collisions can only inflate a row's counter).
func TestSketchNeverUndercounts(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 0xDEADBEEF, ^uint64(0)} {
		rng := rand.New(rand.NewSource(int64(seed) + 7))
		s := NewSketch(64, seed) // deliberately narrow: force collisions
		truth := make(map[string]uint32)
		for i := 0; i < 20000; i++ {
			key := []byte(fmt.Sprintf("key-%d", rng.Intn(500)))
			s.Add(Hash64(key, 0))
			truth[string(key)]++
		}
		for key, want := range truth {
			if got := s.Estimate(Hash64([]byte(key), 0)); got < want {
				t.Fatalf("seed %d: estimate(%q) = %d undercounts true %d", seed, key, got, want)
			}
		}
	}
}

// TestSketchHalveAges checks the aging step: halving rounds every
// counter down, so estimates never grow and a count of 1 decays to 0.
func TestSketchHalveAges(t *testing.T) {
	s := NewSketch(256, 9)
	hot, cold := Hash64([]byte("hot"), 0), Hash64([]byte("cold"), 0)
	for i := 0; i < 16; i++ {
		s.Add(hot)
	}
	s.Add(cold)
	before := s.Estimate(hot)
	s.Halve()
	if got := s.Estimate(hot); got > before/2+sketchDepth {
		t.Fatalf("halve left hot estimate %d (was %d)", got, before)
	}
	if got := s.Estimate(cold); got != 0 {
		t.Fatalf("halve left one-touch key at %d, want 0", got)
	}
}

// TestTinyLFUPrefersFrequent drives the admission filter with a hot
// key and a stream of one-touch keys: the hot key's estimate must
// dominate any cold key's, which is the whole admission decision.
func TestTinyLFUPrefersFrequent(t *testing.T) {
	tl := NewTinyLFU(256, 3)
	hot := Hash64([]byte("hot-page"), 0)
	for i := 0; i < 5000; i++ {
		tl.Touch(hot)
		tl.Touch(Hash64([]byte(fmt.Sprintf("sweep-%d", i)), 0))
	}
	coldest := Hash64([]byte("never-seen"), 0)
	if h, c := tl.Estimate(hot), tl.Estimate(coldest); h <= c {
		t.Fatalf("hot estimate %d not above unseen estimate %d", h, c)
	}
	if tl.Resets() == 0 {
		t.Fatalf("10000 touches on a 256-capacity filter closed no sample window")
	}
}

// TestBloomZeroFalseNegatives adds 50k random keys (with duplicate
// multiplicity), removes a third of them, and asserts every remaining
// member still answers MayContain — the one-sided bloom guarantee.
func TestBloomZeroFalseNegatives(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	b := NewBloom(50000, 0.01, 77)
	live := make(map[string]int)
	for i := 0; i < 50000; i++ {
		key := fmt.Sprintf("member-%d", rng.Intn(30000))
		b.Add([]byte(key))
		live[key]++
	}
	removed := 0
	for key := range live {
		if removed >= len(live)/3 {
			break
		}
		for i := 0; i < live[key]; i++ {
			b.Remove([]byte(key))
		}
		delete(live, key)
		removed++
	}
	for key := range live {
		if !b.MayContain([]byte(key)) {
			t.Fatalf("false negative for live member %q", key)
		}
	}
}

// TestBloomFalsePositiveRate loads a filter to its design load and
// measures the false-positive rate over disjoint probe keys: it must
// stay within 2x the configured target (the sizing math plus
// power-of-two rounding keeps real rates at or below target, so 2x is
// a generous regression bound).
func TestBloomFalsePositiveRate(t *testing.T) {
	const n, target = 20000, 0.01
	b := NewBloom(n, target, 5)
	for i := 0; i < n; i++ {
		b.Add([]byte(fmt.Sprintf("in-%d", i)))
	}
	fp := 0
	const probes = 100000
	for i := 0; i < probes; i++ {
		if b.MayContain([]byte(fmt.Sprintf("out-%d", i))) {
			fp++
		}
	}
	if rate := float64(fp) / probes; rate > 2*target {
		t.Fatalf("false-positive rate %.4f exceeds 2x target %.4f", rate, target)
	}
}

// FuzzSketch exercises the sketch over arbitrary key bytes and seeds:
// the estimate must never undercount the adds of the fuzzed key, and
// halving must never increase it.
func FuzzSketch(f *testing.F) {
	f.Add([]byte("page"), uint64(0), uint8(3))
	f.Add([]byte{}, uint64(42), uint8(1))
	f.Add([]byte{0xFF, 0x00, 0xFF}, ^uint64(0), uint8(9))
	f.Fuzz(func(t *testing.T, key []byte, seed uint64, reps uint8) {
		s := NewSketch(32, seed)
		h := Hash64(key, seed)
		n := uint32(reps%64) + 1
		for i := uint32(0); i < n; i++ {
			s.Add(h)
		}
		if got := s.Estimate(h); got < n {
			t.Fatalf("estimate %d undercounts %d adds (key %x, seed %d)", got, n, key, seed)
		}
		before := s.Estimate(h)
		s.Halve()
		if got := s.Estimate(h); got > before {
			t.Fatalf("halve increased estimate: %d -> %d", before, got)
		}
		tl := NewTinyLFU(16, seed)
		for i := uint32(0); i < n; i++ {
			tl.Touch(h)
		}
		if tl.Estimate(h) == 0 {
			t.Fatalf("touched key estimates 0 (key %x, seed %d)", key, seed)
		}
	})
}
