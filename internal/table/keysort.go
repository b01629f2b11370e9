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
// in length or run past them. Keys of one width that differ in at most
// four bytes are sorted as one word each, those bytes and the position
// (packedOrder). It allocates a constant number of arrays, none per key.
func keyOrder(keys []byte, offs []int) []int {
	n := len(offs) - 1
	if n <= 0 {
		return nil
	}
	// diffHi and diffLo have a byte set where some key differs from the
	// first; uniform says every key is as long as the first, at most 16
	// bytes, so keys the radix passes tie are equal.
	first := prefix16(keys[offs[0]:offs[1]])
	var diffHi, diffLo uint64
	width := offs[1] - offs[0]
	uniform := width <= 16
	for i := range n {
		k := keys[offs[i]:offs[i+1]]
		w := prefix16(k)
		diffHi |= binary.BigEndian.Uint64(w[:8]) ^ binary.BigEndian.Uint64(first[:8])
		diffLo |= binary.BigEndian.Uint64(w[8:]) ^ binary.BigEndian.Uint64(first[8:])
		uniform = uniform && len(k) == width
	}
	var varying []int // the byte positions some key differs in, most significant first
	for p := range 16 {
		diff := diffLo
		if p < 8 {
			diff = diffHi
		}
		if byte(diff>>(8*(7-p%8))) != 0 {
			varying = append(varying, p)
		}
	}
	if uniform && len(varying) <= 4 && n < 1<<32 {
		return packedOrder(keys, offs, varying)
	}
	type item struct {
		hi, lo uint64
		pos    int
	}
	a, b := make([]item, n), make([]item, n)
	for i := range a {
		w := prefix16(keys[offs[i]:offs[i+1]])
		a[i] = item{hi: binary.BigEndian.Uint64(w[:8]), lo: binary.BigEndian.Uint64(w[8:]), pos: i}
	}
	// Byte 15 (lo's lowest) first, byte 0 (hi's highest) last; each
	// pass is a stable counting sort on one byte.
	for j := len(varying) - 1; j >= 0; j-- {
		p := varying[j]
		hi, shift := p < 8, uint(8*(7-p%8))
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
	for i := 0; i < n && !uniform; {
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

// prefix16 returns the key's first 16 bytes, zero-padded.
func prefix16(k []byte) (w [16]byte) {
	copy(w[:], k)
	return w
}

// packedOrder is keyOrder for keys of one width, at most 16 bytes, that
// differ only in the byte positions varying (at most four, most
// significant first): each key becomes one word, those bytes above its
// position, and a radix pass per varying byte sorts the words — equal
// keys by position, since their words differ only there.
func packedOrder(keys []byte, offs []int, varying []int) []int {
	n := len(offs) - 1
	a, b := make([]uint64, n), make([]uint64, n)
	for i := range a {
		k := keys[offs[i]:offs[i+1]]
		var w uint64
		for _, p := range varying {
			w = w<<8 | uint64(k[p])
		}
		a[i] = w<<32 | uint64(i)
	}
	for shift := uint(32); shift < uint(32+8*len(varying)); shift += 8 {
		var count [256]int
		for _, w := range a {
			count[byte(w>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, w := range a {
			d := byte(w >> shift)
			b[count[d]] = w
			count[d]++
		}
		a, b = b, a
	}
	order := make([]int, n)
	for i, w := range a {
		order[i] = int(uint32(w))
	}
	return order
}
