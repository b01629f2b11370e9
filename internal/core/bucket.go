// Bucketers implement the paper's truncation bucketing (Section 5.4):
// ranges of an attribute's domain collapse onto a single representative
// value, shrinking the correlation map at the cost of false positives.
package core

import (
	"fmt"
	"math"

	"repro/internal/value"
)

// Bucketer maps an attribute value to its bucket representative. The
// representative of a bucket is its lower bound, as in the paper ("we
// only need to store the lower bounds of the intervals").
type Bucketer interface {
	// Bucket returns the representative for v. Representatives must be
	// monotone: v1 <= v2 implies Bucket(v1) <= Bucket(v2).
	Bucket(v value.Value) value.Value
	// String describes the bucketing for advisor output, e.g. "2^13".
	String() string
}

// Identity performs no bucketing: every distinct value is its own bucket.
type Identity struct{}

// Bucket returns v unchanged.
func (Identity) Bucket(v value.Value) value.Value { return v }

// String labels the identity bucketing like the paper's Table 4 ("none").
func (Identity) String() string { return "none" }

// IntWidth buckets integers by truncation to multiples of Width.
type IntWidth struct {
	Width int64
}

// Bucket returns the largest multiple of Width that is <= v (floor
// division, correct for negative values too).
func (b IntWidth) Bucket(v value.Value) value.Value {
	if b.Width <= 1 {
		return v
	}
	q := v.I / b.Width
	if v.I%b.Width != 0 && v.I < 0 {
		q--
	}
	return value.NewInt(q * b.Width)
}

// String renders the bucket width.
func (b IntWidth) String() string { return fmt.Sprintf("w=%d", b.Width) }

// FloatWidth buckets floats by truncation to multiples of Width, like the
// paper's 1°C / 1% humidity example.
type FloatWidth struct {
	Width float64
}

// Bucket returns Width * floor(v/Width).
func (b FloatWidth) Bucket(v value.Value) value.Value {
	if b.Width <= 0 {
		return v
	}
	return value.NewFloat(math.Floor(v.F/b.Width) * b.Width)
}

// String renders the bucket width.
func (b FloatWidth) String() string { return fmt.Sprintf("w=%g", b.Width) }

// StringPrefix buckets strings by their first Len bytes, the analogue of
// width truncation for categorical domains.
type StringPrefix struct {
	Len int
}

// Bucket returns the first Len bytes of v.
func (b StringPrefix) Bucket(v value.Value) value.Value {
	if b.Len <= 0 || len(v.S) <= b.Len {
		return v
	}
	return value.NewString(v.S[:b.Len])
}

// String renders the prefix length.
func (b StringPrefix) String() string { return fmt.Sprintf("prefix=%d", b.Len) }

// BucketerForLevel builds the standard power-of-two bucketer the advisor
// enumerates: for numeric kinds, a width of 2^level units; level 0 means
// no bucketing. (Figure 7's x axis is exactly this level.)
func BucketerForLevel(kind value.Kind, level int) Bucketer {
	if level <= 0 {
		return Identity{}
	}
	switch kind {
	case value.Int:
		return IntWidth{Width: int64(1) << uint(level)}
	case value.Float:
		return FloatWidth{Width: math.Pow(2, float64(level))}
	default:
		// Strings have no numeric width; shorten the prefix as the level
		// grows (min prefix 1 byte).
		return StringPrefix{Len: max(16-level, 1)}
	}
}
