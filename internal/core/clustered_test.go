package core

import (
	"fmt"
	"testing"

	"repro/internal/keyenc"
	"repro/internal/value"
)

func intKey(i int64) []byte { return keyenc.EncodeValue(value.NewInt(i)) }

func TestBuilderTargetsAndBoundaryRule(t *testing.T) {
	// 4 tuples per bucket, but a clustered value must never straddle a
	// boundary: value 1 appears 6 times and must stay in one bucket.
	b := NewBuilder(4)
	var ids []int32
	keys := []int64{1, 1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 4}
	for _, k := range keys {
		ids = append(ids, b.Add(intKey(k)))
	}
	// First 6 tuples (value 1): bucket 0 — extended past target 4.
	for i := 0; i < 6; i++ {
		if ids[i] != 0 {
			t.Errorf("tuple %d bucket = %d, want 0", i, ids[i])
		}
	}
	// Tuple 6 (value 2) starts bucket 1.
	if ids[6] != 1 {
		t.Errorf("value 2 bucket = %d, want 1", ids[6])
	}
	cb := b.Finish()
	if cb.NumBuckets() < 2 {
		t.Fatalf("buckets = %d", cb.NumBuckets())
	}
}

func TestBuilderSameValueNeverSplits(t *testing.T) {
	b := NewBuilder(2)
	var ids []int32
	// Each distinct value appears 5 times with target 2.
	for v := int64(0); v < 10; v++ {
		for r := 0; r < 5; r++ {
			ids = append(ids, b.Add(intKey(v)))
		}
	}
	// Check: all 5 occurrences of each value share one bucket.
	for v := 0; v < 10; v++ {
		first := ids[v*5]
		for r := 1; r < 5; r++ {
			if ids[v*5+r] != first {
				t.Fatalf("value %d split across buckets %d and %d", v, first, ids[v*5+r])
			}
		}
	}
}

func TestLocate(t *testing.T) {
	b := NewBuilder(2)
	for _, k := range []int64{10, 10, 20, 20, 30, 30} {
		b.Add(intKey(k))
	}
	cb := b.Finish()
	if cb.NumBuckets() != 3 {
		t.Fatalf("buckets = %d, want 3", cb.NumBuckets())
	}
	cases := []struct {
		key  int64
		want int32
	}{
		{5, 0}, // below first bound clamps to 0
		{10, 0}, {15, 0},
		{20, 1}, {25, 1},
		{30, 2}, {99, 2},
	}
	for _, c := range cases {
		if got := cb.Locate(intKey(c.key)); got != c.want {
			t.Errorf("Locate(%d) = %d, want %d", c.key, got, c.want)
		}
	}
}

func TestUpperLowerBounds(t *testing.T) {
	b := NewBuilder(1)
	for _, k := range []int64{1, 2, 3} {
		b.Add(intKey(k))
	}
	cb := b.Finish()
	for i := range int32(3) {
		if got := cb.LowerBound(i); string(got) != string(intKey(int64(i)+1)) {
			t.Errorf("lower bound of bucket %d is %x", i, got)
		}
	}
	up, ok := cb.UpperBound(0)
	if !ok || string(up) != string(intKey(2)) {
		t.Error("upper bound of bucket 0 wrong")
	}
	if _, ok := cb.UpperBound(2); ok {
		t.Error("last bucket should have no upper bound")
	}
}

func TestLocateEmptyDirectory(t *testing.T) {
	cb := NewClusteredBuckets(nil)
	if got := cb.Locate(intKey(5)); got != 0 {
		t.Errorf("empty directory Locate = %d", got)
	}
}

func TestDirectorySize(t *testing.T) {
	b := NewBuilder(1)
	for i := int64(0); i < 100; i++ {
		b.Add(intKey(i))
	}
	cb := b.Finish()
	if cb.DirectorySizeBytes() <= 0 {
		t.Error("directory size should be positive")
	}
	// 100 bounds of 9-byte keys plus overhead: well under 2 KB.
	if cb.DirectorySizeBytes() > 2048 {
		t.Errorf("directory unexpectedly large: %d", cb.DirectorySizeBytes())
	}
}

func TestBuilderStringKeys(t *testing.T) {
	b := NewBuilder(3)
	states := []string{"AL", "AL", "AL", "AL", "CA", "CA", "MA", "MA", "MA", "NH"}
	var ids []int32
	for _, s := range states {
		ids = append(ids, b.Add(keyenc.EncodeValue(value.NewString(s))))
	}
	// AL (4 tuples) fills bucket 0 past target 3; CA starts bucket 1.
	if ids[3] != 0 || ids[4] != 1 {
		t.Errorf("ids = %v", ids)
	}
	cb := b.Finish()
	if got := cb.Locate(keyenc.EncodeValue(value.NewString("MA"))); got != cb.Locate(keyenc.EncodeValue(value.NewString("MD"))) {
		// MD sorts after MA and before NH; both fall in MA's bucket.
		t.Error("Locate for absent value should fall in enclosing bucket")
	}
	_ = fmt.Sprintf("%v", ids)
}

// UpperBound returns the encoded lower bound of bucket i+1 (the exclusive
// upper bound of bucket i), or ok=false for the last bucket, whose range
// is unbounded above.
func (cb *ClusteredBuckets) UpperBound(i int32) (key []byte, ok bool) {
	if int(i)+1 >= cb.NumBuckets() {
		return nil, false
	}
	return cb.bound(int(i) + 1), true
}
