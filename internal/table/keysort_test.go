package table

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/keyenc"
	"repro/internal/value"
)

// TestKeyOrderIsStableSort holds keyOrder to a stable comparison sort
// over key sets that exercise each of its paths: fixed-width integer
// keys (most byte positions constant; non-negative ones small enough
// that at most four bytes vary, the packed path), strings shorter and longer than
// the 16 radix bytes sharing long prefixes, empty keys, keys that are
// zero-padded prefixes of others, and many duplicates.
func TestKeyOrderIsStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := []string{"", "\x00", "a", "ab", "ab\x00", "abcdefghijklmno", "abcdefghijklmnop", "abcdefghijklmnopq", "abcdefghijklmnopqr", "b"}
	gens := map[string]func() []byte{
		"int": func() []byte { return keyenc.EncodeValue(value.NewInt(int64(rng.Intn(4000) - 2000))) },
		"non-negative int": func() []byte {
			return keyenc.EncodeValue(value.NewInt(int64(rng.Intn(70000))))
		},
		"wide int": func() []byte {
			return keyenc.EncodeValue(value.NewInt(rng.Int63() - rng.Int63()))
		},
		"string": func() []byte {
			return []byte(alphabet[rng.Intn(len(alphabet))] + alphabet[rng.Intn(len(alphabet))])
		},
		"composite": func() []byte {
			return keyenc.EncodeValues(value.NewString(alphabet[rng.Intn(len(alphabet))]), value.NewInt(int64(rng.Intn(3))))
		},
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, 17, 3000} {
			var keys []byte
			offs := []int{0}
			for range n {
				keys = append(keys, gen()...)
				offs = append(offs, len(keys))
			}
			key := func(pos int) []byte { return keys[offs[pos]:offs[pos+1]] }
			want := make([]int, n)
			for i := range want {
				want[i] = i
			}
			slices.SortStableFunc(want, func(a, b int) int { return bytes.Compare(key(a), key(b)) })
			if got := keyOrder(keys, offs); !slices.Equal(got, want) && (n > 0 || len(got) != 0) {
				t.Errorf("%s keys, n=%d: keyOrder differs from a stable sort", name, n)
			}
		}
	}
}
