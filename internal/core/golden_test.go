package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/value"
)

// goldenCheckpointCM builds a fixed CM over rows (k int, f float, s
// string, n int) with every column a stat column: one pair whose
// retraction removed its minimum (MMDirty) and one pair removed
// outright and then added again.
func goldenCheckpointCM() *CM {
	cm := New(Spec{Name: "golden", UCols: []int{0}, StatCols: []int{0, 1, 2, 3}})
	row := func(k int64, f float64, s string, n int64) value.Row {
		return value.Row{value.NewInt(k), value.NewFloat(f), value.NewString(s), value.NewInt(n)}
	}
	for i := int64(0); i < 24; i++ {
		cm.AddRow(row(i%4, float64(i)*0.75-3, string(rune('a'+i%7))+"-filler", -i*i), int32(i/5))
	}
	// The pair (k=1, bucket 1) holds rows 5 and 9 and loses row 5, its
	// minimum: dirty.
	if err := cm.RemoveRow(row(1, 5*0.75-3, "f-filler", -25), 1); err != nil {
		panic(err)
	}
	// The pair (k=3, bucket 4) holds one row: remove it, then add another.
	if err := cm.RemoveRow(row(3, 23*0.75-3, string(rune('a'+23%7))+"-filler", -23*23), 4); err != nil {
		panic(err)
	}
	cm.AddRow(row(3, 1e9, "zz", 42), 4)
	e := cm.m[string(cm.AppendKeyForRow(nil, row(1, 0, "", 0)))]
	if !cm.PairDirty(e.Slots[1]) || cm.Pairs() != 20 {
		panic(fmt.Sprintf("fixture: key 1 run %v, %d pairs", e.Buckets, cm.Pairs()))
	}
	return cm
}

// TestCheckpointGoldenBytes pins the v4 checkpoint byte for byte: a
// change to how the CM holds its statistics in memory must not move a
// single byte of what it writes.
func TestCheckpointGoldenBytes(t *testing.T) {
	cm := goldenCheckpointCM()
	var buf bytes.Buffer
	if err := cm.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	const want = "162479ae47bdbf956266d4d1bb43e4349fa527f26606fad58f01547fd778712b"
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("checkpoint sha256 %s (%d bytes), want %s", got, buf.Len(), want)
	}
	back := New(cm.Spec())
	if err := back.Deserialize(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	requireSameCM(t, back, cm)
}
