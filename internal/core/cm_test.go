package core

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/value"
)

// cityStateCM builds the paper's Figure 4 example: a CM on city with the
// table clustered on state, where each distinct state is its own
// clustered bucket (0=MA, 1=MN, 2=MS, 3=NH, 4=OH).
func cityStateCM() *CM {
	cm := New(Spec{Name: "city", UCols: []int{0}})
	rows := []struct {
		city    string
		cbucket int32
	}{
		{"boston", 0}, {"boston", 0}, {"boston", 0}, {"boston", 3},
		{"cambridge", 0},
		{"manchester", 1}, {"manchester", 3},
		{"jackson", 2},
		{"springfield", 0}, {"springfield", 4},
		{"toledo", 4},
	}
	for _, r := range rows {
		cm.AddRow(value.Row{value.NewString(r.city)}, r.cbucket)
	}
	return cm
}

func TestLookupFigure4(t *testing.T) {
	cm := cityStateCM()
	cases := []struct {
		city string
		want []int32
	}{
		{"boston", []int32{0, 3}},      // {MA, NH}
		{"springfield", []int32{0, 4}}, // {MA, OH}
		{"jackson", []int32{2}},        // {MS}
		{"nowhere", nil},
	}
	for _, c := range cases {
		got := cm.Lookup(value.NewString(c.city))
		if len(got) != len(c.want) {
			t.Errorf("Lookup(%s) = %v, want %v", c.city, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("Lookup(%s) = %v, want %v", c.city, got, c.want)
			}
		}
	}
	if cm.Keys() != 6 {
		t.Errorf("keys = %d, want 6 distinct cities", cm.Keys())
	}
	if cm.Pairs() != 9 {
		t.Errorf("pairs = %d, want 9 unique (city,state) pairs", cm.Pairs())
	}
}

func TestLookupManyUnion(t *testing.T) {
	cm := cityStateCM()
	// The paper's query: city = 'Boston' OR city = 'Springfield'
	// must scan MA, NH, OH = buckets {0, 3, 4}.
	got := cm.LookupMany([][]value.Value{
		{value.NewString("boston")},
		{value.NewString("springfield")},
	})
	want := []int32{0, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("union = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("union = %v, want %v", got, want)
		}
	}
}

func TestCoOccurrenceCountsSupportDeletes(t *testing.T) {
	cm := cityStateCM()
	boston := value.Row{value.NewString("boston")}
	// Three Boston/MA tuples: two removals keep the pair alive.
	for i := 0; i < 2; i++ {
		if err := cm.RemoveRow(boston, 0); err != nil {
			t.Fatal(err)
		}
		if got := cm.Lookup(value.NewString("boston")); len(got) != 2 {
			t.Fatalf("after %d removals lookup = %v", i+1, got)
		}
	}
	// Third removal drops MA from Boston's set.
	if err := cm.RemoveRow(boston, 0); err != nil {
		t.Fatal(err)
	}
	got := cm.Lookup(value.NewString("boston"))
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("after final removal lookup = %v, want [3]", got)
	}
	// Removing the NH tuple erases the key entirely.
	if err := cm.RemoveRow(boston, 3); err != nil {
		t.Fatal(err)
	}
	if got := cm.Lookup(value.NewString("boston")); len(got) != 0 {
		t.Fatalf("key should be gone, lookup = %v", got)
	}
	if cm.Keys() != 5 {
		t.Errorf("keys = %d after erasing boston", cm.Keys())
	}
}

func TestRemoveUnrecordedPairFails(t *testing.T) {
	cm := cityStateCM()
	if err := cm.RemoveRow(value.Row{value.NewString("boston")}, 4); err == nil {
		t.Error("removing unrecorded pair should error")
	}
	if err := cm.RemoveRow(value.Row{value.NewString("zzz")}, 0); err == nil {
		t.Error("removing missing key should error")
	}
}

func TestBucketedCM(t *testing.T) {
	// Temperature -> humidity example from Section 5.4: 1-degree buckets.
	cm := New(Spec{
		Name:      "temp",
		UCols:     []int{0},
		Bucketers: []Bucketer{FloatWidth{Width: 1.0}},
	})
	add := func(temp float64, cbucket int32) {
		cm.AddRow(value.Row{value.NewFloat(temp)}, cbucket)
	}
	add(12.3, 17)
	add(12.3, 18)
	add(12.7, 18)
	add(12.7, 20)
	add(14.4, 20)
	add(14.9, 21)
	// 12.3 and 12.7 collapse into bucket 12.
	if cm.Keys() != 2 {
		t.Errorf("keys = %d, want 2 buckets (12, 14)", cm.Keys())
	}
	got := cm.Lookup(value.NewFloat(12.5)) // any value in [12,13)
	want := []int32{17, 18, 20}
	if len(got) != len(want) {
		t.Fatalf("bucket 12 lookup = %v, want %v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bucket 12 lookup = %v, want %v", got, want)
		}
	}
}

func TestLookupMatchRange(t *testing.T) {
	cm := New(Spec{
		Name:      "price",
		UCols:     []int{0},
		Bucketers: []Bucketer{IntWidth{Width: 10}},
	})
	for p := int64(0); p < 200; p++ {
		cm.AddRow(value.Row{value.NewInt(p)}, int32(p/50))
	}
	// Range [95, 124] covers buckets 90..120 -> cbuckets 1 (50-99) and 2 (100-149).
	got, err := cm.LookupMatch(func(vals []value.Value) bool {
		return vals[0].I >= 90 && vals[0].I <= 120
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []int32{1, 2}
	if len(got) != len(want) || got[0] != 1 || got[1] != 2 {
		t.Fatalf("range lookup = %v, want %v", got, want)
	}
}

func TestCompositeCM(t *testing.T) {
	// (longitude, latitude) -> zipcode-bucket from Section 6: the pair
	// determines the bucket even though each alone does not.
	cm := New(Spec{
		Name:  "lonlat",
		UCols: []int{0, 1},
		Bucketers: []Bucketer{
			FloatWidth{Width: 0.5},
			FloatWidth{Width: 0.5},
		},
	})
	cm.AddRow(value.Row{value.NewFloat(10.1), value.NewFloat(20.1)}, 1)
	cm.AddRow(value.Row{value.NewFloat(10.2), value.NewFloat(20.3)}, 1)
	cm.AddRow(value.Row{value.NewFloat(10.1), value.NewFloat(21.1)}, 2)
	cm.AddRow(value.Row{value.NewFloat(11.1), value.NewFloat(20.1)}, 3)
	if cm.Keys() != 3 {
		t.Errorf("keys = %d", cm.Keys())
	}
	got := cm.Lookup(value.NewFloat(10.3), value.NewFloat(20.4))
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("composite lookup = %v", got)
	}
	// Each single attribute is ambiguous; the composite is not.
	if cm.CPerU() != 1 {
		t.Errorf("composite c_per_u = %v, want 1", cm.CPerU())
	}
}

func TestSizeAccountingMatchesSerializedSize(t *testing.T) {
	cm := cityStateCM()
	// SizeBytes incrementally tracks the counts-only layout (the paper's
	// CM size): per key [klen u16][key][npairs u32], per pair
	// [bucket i32][count u32]. Recount it from the entries.
	var want int64
	if err := cm.WalkStats(func(key []byte, _ []value.Value, buckets map[int32]*EntryStats) bool {
		want += 2 + int64(len(key)) + 4 + 8*int64(len(buckets))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got := cm.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, counts-only layout = %d", got, want)
	}
	// The checkpoint carries the stats blocks on top, so it is strictly
	// larger than the count structure alone.
	var ckpt bytes.Buffer
	if err := cm.Serialize(&ckpt); err != nil {
		t.Fatal(err)
	}
	if int64(ckpt.Len()) <= want {
		t.Errorf("checkpoint (%d bytes) not larger than the count structure (%d bytes)", ckpt.Len(), want)
	}
}

// statsCM builds a CM carrying per-entry statistics over a two-column
// row shape (col 0 an int key, col 1 a float measure), exercising both
// sum carriers plus min/max.
func statsCM() *CM {
	cm := New(Spec{Name: "k", UCols: []int{0}, StatCols: []int{0, 1}})
	for i := 0; i < 40; i++ {
		row := value.Row{value.NewInt(int64(i % 5)), value.NewFloat(float64(i) + 0.25)}
		cm.AddRow(row, int32(i/10))
	}
	return cm
}

// flatStats flattens a CM's per-entry statistic blocks into a
// comparable map keyed by (key bytes, clustered bucket).
func flatStats(t *testing.T, cm *CM) map[string]EntryStats {
	t.Helper()
	out := map[string]EntryStats{}
	err := cm.WalkStats(func(key []byte, _ []value.Value, buckets map[int32]*EntryStats) bool {
		for cb, es := range buckets {
			flat := *es
			out[string(key)+"/"+string(rune(cb))] = flat
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func statsEqual(a, b EntryStats) bool {
	if a.Count != b.Count || a.MMDirty != b.MMDirty {
		return false
	}
	if len(a.SumI) != len(b.SumI) || len(a.SumF) != len(b.SumF) ||
		len(a.Min) != len(b.Min) || len(a.Max) != len(b.Max) {
		return false
	}
	for i := range a.SumI {
		if a.SumI[i] != b.SumI[i] {
			return false
		}
	}
	for i := range a.SumF {
		if a.SumF[i] != b.SumF[i] {
			return false
		}
	}
	for i := range a.Min {
		if a.Min[i] != b.Min[i] || a.Max[i] != b.Max[i] {
			return false
		}
	}
	return true
}

// TestSerializeV2PreservesStats pins the versioned checkpoint: a
// Serialize -> Deserialize round trip keeps every per-entry statistic
// block bit-exact and the CM still reports StatsValid, so index-only
// aggregation survives recovery.
func TestSerializeV2PreservesStats(t *testing.T) {
	cm := statsCM()
	var buf bytes.Buffer
	if err := cm.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	cm2 := New(cm.Spec())
	if err := cm2.Deserialize(&buf); err != nil {
		t.Fatal(err)
	}
	if !cm2.StatsValid() {
		t.Fatal("v2 round trip lost statistics validity")
	}
	want, got := flatStats(t, cm), flatStats(t, cm2)
	if len(got) != len(want) {
		t.Fatalf("round trip has %d entries, want %d", len(got), len(want))
	}
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			t.Fatalf("entry %q missing after round trip", k)
		}
		if !statsEqual(g, w) {
			t.Errorf("entry %q stats drifted: got %+v want %+v", k, g, w)
		}
	}
}

// TestDeserializeStatLayoutMismatch: a checkpoint written under another
// stat-column layout loads its pair counts but marks the statistics
// invalid rather than misattributing them, so the planner will not
// answer aggregates from the CM until the table layer rebuilds them.
func TestDeserializeStatLayoutMismatch(t *testing.T) {
	cm := statsCM()
	other := New(Spec{Name: "k", UCols: []int{0}, StatCols: []int{1}})
	var buf bytes.Buffer
	if err := cm.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	if err := other.Deserialize(&buf); err != nil {
		t.Fatal(err)
	}
	if other.StatsValid() {
		t.Fatal("stat-column layout mismatch must invalidate statistics")
	}
	if other.Keys() != cm.Keys() || other.Pairs() != cm.Pairs() {
		t.Fatalf("layout mismatch lost counts: keys %d/%d pairs %d/%d",
			other.Keys(), cm.Keys(), other.Pairs(), cm.Pairs())
	}
	if got := other.Lookup(value.NewInt(2)); len(got) != 4 {
		t.Fatalf("lookup after mismatch = %v, want the 4 buckets", got)
	}
}

// TestDeserializeRejectsUnsupportedHeaders: there is one checkpoint
// format. The layouts earlier builds wrote — unversioned (opening with
// the key count) and version 2 — and truncated or empty input are clean
// errors, never a panic, and leave the CM as it was.
func TestDeserializeRejectsUnsupportedHeaders(t *testing.T) {
	var good bytes.Buffer
	if err := statsCM().Serialize(&good); err != nil {
		t.Fatal(err)
	}
	v2 := append([]byte(nil), good.Bytes()...)
	binary.LittleEndian.PutUint32(v2[4:8], 2)
	cases := map[string][]byte{
		"unversioned":      {5, 0, 0, 0, 3, 0, 'a', 'b', 'c', 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
		"version 2":        v2,
		"empty":            nil,
		"truncated header": good.Bytes()[:6],
		"truncated body":   good.Bytes()[:good.Len()/2],
	}
	for name, data := range cases {
		cm := statsCM()
		keys, pairs := cm.Keys(), cm.Pairs()
		if err := cm.Deserialize(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: Deserialize accepted it", name)
		}
		if cm.Keys() != keys || cm.Pairs() != pairs {
			t.Errorf("%s: rejected checkpoint changed the CM", name)
		}
	}
}

func TestSerializeDeserializeRoundTrip(t *testing.T) {
	cm := cityStateCM()
	var buf bytes.Buffer
	if err := cm.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	cm2 := New(cm.Spec())
	if err := cm2.Deserialize(&buf); err != nil {
		t.Fatal(err)
	}
	if cm2.Keys() != cm.Keys() || cm2.Pairs() != cm.Pairs() || cm2.SizeBytes() != cm.SizeBytes() {
		t.Errorf("roundtrip mismatch: keys %d/%d pairs %d/%d size %d/%d",
			cm2.Keys(), cm.Keys(), cm2.Pairs(), cm.Pairs(), cm2.SizeBytes(), cm.SizeBytes())
	}
	got := cm2.Lookup(value.NewString("boston"))
	if len(got) != 2 || got[0] != 0 || got[1] != 3 {
		t.Errorf("roundtrip lookup = %v", got)
	}
	// Counts survive: two removals then the pair disappears.
	boston := value.Row{value.NewString("boston")}
	for i := 0; i < 3; i++ {
		if err := cm2.RemoveRow(boston, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := cm2.Lookup(value.NewString("boston")); len(got) != 1 {
		t.Errorf("counts lost in roundtrip: %v", got)
	}
}

func TestAddRemoveInverseProperty(t *testing.T) {
	cm := New(Spec{Name: "p", UCols: []int{0}, Bucketers: []Bucketer{IntWidth{Width: 4}}})
	f := func(vals []int16, buckets []uint8) bool {
		n := len(vals)
		if len(buckets) < n {
			n = len(buckets)
		}
		before := cm.SizeBytes()
		kb, pb := cm.Keys(), cm.Pairs()
		for i := 0; i < n; i++ {
			cm.AddRow(value.Row{value.NewInt(int64(vals[i]))}, int32(buckets[i]%8))
		}
		for i := n - 1; i >= 0; i-- {
			if err := cm.RemoveRow(value.Row{value.NewInt(int64(vals[i]))}, int32(buckets[i]%8)); err != nil {
				return false
			}
		}
		return cm.SizeBytes() == before && cm.Keys() == kb && cm.Pairs() == pb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCPerU(t *testing.T) {
	cm := cityStateCM()
	// 9 pairs over 6 keys.
	want := 9.0 / 6.0
	if got := cm.CPerU(); got < want-1e-9 || got > want+1e-9 {
		t.Errorf("CPerU = %v, want %v", got, want)
	}
	empty := New(Spec{Name: "e", UCols: []int{0}})
	if empty.CPerU() != 0 {
		t.Error("empty CM CPerU should be 0")
	}
}

func TestWalk(t *testing.T) {
	cm := cityStateCM()
	n := 0
	if err := cm.Walk(func(vals []value.Value, buckets map[int32]uint32) bool {
		if len(vals) != 1 || vals[0].K != value.String {
			t.Error("walk decoded wrong shape")
		}
		n++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != cm.Keys() {
		t.Errorf("walk visited %d of %d", n, cm.Keys())
	}
	// Early stop.
	n = 0
	if err := cm.Walk(func([]value.Value, map[int32]uint32) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("walk did not stop early: %d", n)
	}
}

func TestLookupArityPanics(t *testing.T) {
	cm := cityStateCM()
	defer func() {
		if recover() == nil {
			t.Error("expected panic on arity mismatch")
		}
	}()
	cm.Lookup(value.NewString("a"), value.NewString("b"))
}
