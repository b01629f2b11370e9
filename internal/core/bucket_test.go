package core

import (
	"testing"
	"testing/quick"

	"repro/internal/value"
)

func TestIntWidthTruncation(t *testing.T) {
	b := IntWidth{Width: 10}
	cases := []struct{ in, want int64 }{
		{0, 0}, {9, 0}, {10, 10}, {19, 10}, {-1, -10}, {-10, -10}, {-11, -20},
	}
	for _, c := range cases {
		if got := b.Bucket(value.NewInt(c.in)).I; got != c.want {
			t.Errorf("IntWidth(10).Bucket(%d) = %d, want %d", c.in, got, c.want)
		}
	}
	if got := (IntWidth{Width: 2}).Bucket(value.NewInt(5)).I; got != 4 {
		t.Errorf("IntWidth(2).Bucket(5) = %d, want 4", got)
	}
}

func TestIntWidthMonotone(t *testing.T) {
	b := IntWidth{Width: 7}
	f := func(x, y int32) bool {
		vx, vy := b.Bucket(value.NewInt(int64(x))), b.Bucket(value.NewInt(int64(y)))
		if x <= y {
			return vx.Compare(vy) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIntWidthOneIsIdentity(t *testing.T) {
	b := IntWidth{Width: 1}
	if got := b.Bucket(value.NewInt(-37)).I; got != -37 {
		t.Errorf("width-1 bucket changed value: %d", got)
	}
}

func TestFloatWidth(t *testing.T) {
	b := FloatWidth{Width: 1.0}
	cases := []struct{ in, want float64 }{
		{12.3, 12}, {12.99, 12}, {-0.5, -1}, {3, 3},
	}
	for _, c := range cases {
		if got := b.Bucket(value.NewFloat(c.in)).F; got != c.want {
			t.Errorf("FloatWidth(1).Bucket(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	// Zero width is identity.
	if got := (FloatWidth{}).Bucket(value.NewFloat(1.25)).F; got != 1.25 {
		t.Error("zero width should be identity")
	}
}

func TestFloatWidthMonotone(t *testing.T) {
	b := FloatWidth{Width: 2.5}
	f := func(x, y float32) bool {
		vx, vy := b.Bucket(value.NewFloat(float64(x))), b.Bucket(value.NewFloat(float64(y)))
		if x <= y {
			return vx.Compare(vy) <= 0
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestStringPrefix(t *testing.T) {
	b := StringPrefix{Len: 3}
	if got := b.Bucket(value.NewString("abcdef")).S; got != "abc" {
		t.Errorf("prefix = %q", got)
	}
	if got := b.Bucket(value.NewString("ab")).S; got != "ab" {
		t.Errorf("short string changed: %q", got)
	}
	if got := (StringPrefix{}).Bucket(value.NewString("xyz")).S; got != "xyz" {
		t.Error("zero prefix should be identity")
	}
	if got := (StringPrefix{Len: 1}).Bucket(value.NewString("xyz")).S; got != "x" {
		t.Errorf("one-byte prefix = %q", got)
	}
}

func TestIdentity(t *testing.T) {
	v := value.NewString("anything")
	if got := (Identity{}).Bucket(v); !got.Equal(v) {
		t.Error("identity changed value")
	}
	if (Identity{}).String() != "none" {
		t.Error("identity label")
	}
}

func TestBucketerForLevel(t *testing.T) {
	if _, ok := BucketerForLevel(value.Int, 0).(Identity); !ok {
		t.Error("level 0 should be identity")
	}
	if b, ok := BucketerForLevel(value.Int, 13).(IntWidth); !ok || b.Width != 8192 {
		t.Errorf("int level 13 = %+v", b)
	}
	if b, ok := BucketerForLevel(value.Float, 3).(FloatWidth); !ok || b.Width != 8 {
		t.Errorf("float level 3 = %+v", b)
	}
	if b, ok := BucketerForLevel(value.String, 20).(StringPrefix); !ok || b.Len != 1 {
		t.Errorf("string deep level = %+v", b)
	}
	if b, ok := BucketerForLevel(value.Int, 1).(IntWidth); !ok || b.Width != 2 {
		t.Errorf("int level 1 = %+v", b)
	}
	if b, ok := BucketerForLevel(value.String, 15).(StringPrefix); !ok || b.Len != 1 {
		t.Errorf("string level 15 = %+v", b)
	}
}

func TestBucketerStrings(t *testing.T) {
	for _, b := range []Bucketer{IntWidth{8}, FloatWidth{0.5}, StringPrefix{2}, Identity{}} {
		if b.String() == "" {
			t.Errorf("%T has empty description", b)
		}
	}
}
