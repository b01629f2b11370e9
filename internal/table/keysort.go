package table

import (
	"bytes"
	"encoding/binary"
	"slices"
)

// keyOrder returns the positions of the keys keys[offs[i]:offs[i+1]],
// i < len(offs)-1, in ascending key order, equal keys in position order:
// the stable sort Load places rows by. It is a least-significant-digit
// radix sort over each key's first 16 bytes, zero-padded, that skips
// every byte position on which all keys agree — a small integer's
// order-preserving encoding varies in two or three of its nine — and
// then a comparison sort of each run those bytes tie whose keys differ
// in length or run past them. It allocates a constant number of arrays,
// none per key.
func keyOrder(keys []byte, offs []int) []int {
	n := len(offs) - 1
	if n <= 0 {
		return nil
	}
	type item struct {
		hi, lo uint64
		pos    int
	}
	a, b := make([]item, n), make([]item, n)
	// diffHi and diffLo have a byte set where some key differs from the
	// first.
	var diffHi, diffLo uint64
	for i := range a {
		var w [16]byte
		copy(w[:], keys[offs[i]:offs[i+1]])
		a[i] = item{hi: binary.BigEndian.Uint64(w[:8]), lo: binary.BigEndian.Uint64(w[8:]), pos: i}
		diffHi |= a[i].hi ^ a[0].hi
		diffLo |= a[i].lo ^ a[0].lo
	}
	// Byte 15 (lo's lowest) first, byte 0 (hi's highest) last; each
	// pass is a stable counting sort on one byte.
	for p := 15; p >= 0; p-- {
		hi, shift := p < 8, uint(8*(7-p%8))
		diff := diffLo
		if hi {
			diff = diffHi
		}
		if byte(diff>>shift) == 0 {
			continue
		}
		digit := func(it item) byte {
			if hi {
				return byte(it.hi >> shift)
			}
			return byte(it.lo >> shift)
		}
		var count [256]int
		for _, it := range a {
			count[digit(it)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, it := range a {
			d := digit(it)
			b[count[d]] = it
			count[d]++
		}
		a, b = b, a
	}
	key := func(it item) []byte { return keys[offs[it.pos]:offs[it.pos+1]] }
	for i := 0; i < n; {
		j := i + 1
		for j < n && a[j].hi == a[i].hi && a[j].lo == a[i].lo {
			j++
		}
		// Tied keys of one length within the 16 bytes are equal, and
		// already in position order.
		run, w := a[i:j], len(key(a[i]))
		if slices.ContainsFunc(run, func(it item) bool { l := len(key(it)); return l != w || l > 16 }) {
			slices.SortStableFunc(run, func(x, y item) int { return bytes.Compare(key(x), key(y)) })
		}
		i = j
	}
	order := make([]int, n)
	for i, it := range a {
		order[i] = it.pos
	}
	return order
}
