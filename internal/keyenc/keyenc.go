// Package keyenc provides order-preserving byte encodings of values and
// composite keys.
//
// Both B+Trees and correlation maps need keys whose bytewise order matches
// the logical order of the encoded values, so that range scans over encoded
// keys visit values in sorted order. The encodings used here follow the
// conventions common to storage engines:
//
//   - int64: sign bit flipped, big-endian (so negative sorts before positive)
//   - float64: IEEE-754 bits with the usual monotone transform
//   - string: raw bytes with 0x00 escaped as 0x00 0xFF, terminated by
//     0x00 0x01, making composite keys self-delimiting
//
// Each encoded field is prefixed with a one-byte kind tag so heterogeneous
// composites still order deterministically and can be decoded.
package keyenc

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/value"
)

// Kind tags. They double as order discriminators between kinds.
const (
	tagInt    byte = 0x10
	tagFloat  byte = 0x20
	tagString byte = 0x30
)

// String escape bytes.
const (
	strEscape  byte = 0x00
	strEscaped byte = 0xFF
	strTerm    byte = 0x01
)

// AppendValue appends the order-preserving encoding of v to dst.
func AppendValue(dst []byte, v value.Value) []byte {
	switch v.K {
	case value.Int:
		dst = append(dst, tagInt)
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], uint64(v.I)^(1<<63))
		return append(dst, buf[:]...)
	case value.Float:
		dst = append(dst, tagFloat)
		bits := math.Float64bits(v.F)
		if bits&(1<<63) != 0 {
			bits = ^bits // negative: flip all so larger magnitude sorts first
		} else {
			bits |= 1 << 63 // positive: set sign so it sorts after negatives
		}
		var buf [8]byte
		binary.BigEndian.PutUint64(buf[:], bits)
		return append(dst, buf[:]...)
	default:
		dst = append(dst, tagString)
		for i := 0; i < len(v.S); i++ {
			c := v.S[i]
			if c == strEscape {
				dst = append(dst, strEscape, strEscaped)
			} else {
				dst = append(dst, c)
			}
		}
		return append(dst, strEscape, strTerm)
	}
}

// EncodeValue returns the order-preserving encoding of a single value.
func EncodeValue(v value.Value) []byte {
	return AppendValue(make([]byte, 0, 10), v)
}

// EncodeRowPrefix encodes the given columns of row, in order, as one
// composite key.
func EncodeRowPrefix(row value.Row, cols []int) []byte {
	return AppendRowPrefix(make([]byte, 0, 10*len(cols)), row, cols)
}

// AppendRowPrefix appends the EncodeRowPrefix encoding of the given
// columns of row to dst.
func AppendRowPrefix(dst []byte, row value.Row, cols []int) []byte {
	for _, c := range cols {
		dst = AppendValue(dst, row[c])
	}
	return dst
}

// EncodeValues encodes the given values, in order, as one composite key.
func EncodeValues(vals ...value.Value) []byte {
	dst := make([]byte, 0, 10*len(vals))
	for _, v := range vals {
		dst = AppendValue(dst, v)
	}
	return dst
}

// DecodeValue decodes the first value in b and returns it together with the
// remainder of the buffer.
func DecodeValue(b []byte) (value.Value, []byte, error) {
	if len(b) == 0 {
		return value.Value{}, nil, fmt.Errorf("keyenc: empty buffer")
	}
	switch b[0] {
	case tagInt:
		if len(b) < 9 {
			return value.Value{}, nil, fmt.Errorf("keyenc: truncated int key")
		}
		u := binary.BigEndian.Uint64(b[1:9])
		return value.NewInt(int64(u ^ (1 << 63))), b[9:], nil
	case tagFloat:
		if len(b) < 9 {
			return value.Value{}, nil, fmt.Errorf("keyenc: truncated float key")
		}
		bits := binary.BigEndian.Uint64(b[1:9])
		if bits&(1<<63) != 0 {
			bits &^= 1 << 63
		} else {
			bits = ^bits
		}
		return value.NewFloat(math.Float64frombits(bits)), b[9:], nil
	case tagString:
		out := make([]byte, 0, 16)
		i := 1
		for i < len(b) {
			c := b[i]
			if c != strEscape {
				out = append(out, c)
				i++
				continue
			}
			if i+1 >= len(b) {
				return value.Value{}, nil, fmt.Errorf("keyenc: truncated string key")
			}
			switch b[i+1] {
			case strEscaped:
				out = append(out, strEscape)
				i += 2
			case strTerm:
				return value.NewString(string(out)), b[i+2:], nil
			default:
				return value.Value{}, nil, fmt.Errorf("keyenc: bad string escape 0x%02x", b[i+1])
			}
		}
		return value.Value{}, nil, fmt.Errorf("keyenc: unterminated string key")
	default:
		return value.Value{}, nil, fmt.Errorf("keyenc: unknown tag 0x%02x", b[0])
	}
}

// DecodeAll decodes every value in a composite key.
func DecodeAll(b []byte) ([]value.Value, error) {
	var out []value.Value
	for len(b) > 0 {
		v, rest, err := DecodeValue(b)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
		b = rest
	}
	return out, nil
}
