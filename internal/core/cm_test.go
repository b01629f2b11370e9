package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
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
	got := slices.Concat(cm.Lookup(value.NewString("boston")), cm.Lookup(value.NewString("springfield")))
	slices.Sort(got)
	got = slices.Compact(got)
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
	var got []int32
	if err := cm.Walk(func(e Entry, vals []value.Value) bool {
		if vals[0].I >= 90 && vals[0].I <= 120 {
			got = append(got, e.Buckets...)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	got = slices.Compact(got)
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
	if err := cm.Walk(func(e Entry, _ []value.Value) bool {
		want += 2 + int64(len(e.Key)) + 4 + 8*int64(len(e.Buckets))
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
	requireSameCM(t, cm2, cm)
}

// TestDeserializeStatLayoutMismatch: a checkpoint written under another
// stat-column layout loads its pair counts but marks the statistics
// invalid rather than misattributing them, so the planner will not
// answer aggregates from the CM until the table layer rebuilds them.
func TestDeserializeStatLayoutMismatch(t *testing.T) {
	cm := statsCM()
	var buf bytes.Buffer
	if err := cm.Serialize(&buf); err != nil {
		t.Fatal(err)
	}
	// Another number of stat columns, and as many columns but others.
	for _, cols := range [][]int{{1}, {0, 2}} {
		other := New(Spec{Name: "k", UCols: []int{0}, StatCols: cols})
		if err := other.Deserialize(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatal(err)
		}
		if other.StatsValid() {
			t.Fatalf("stat columns %v: a layout mismatch must invalidate statistics", cols)
		}
		if other.Keys() != cm.Keys() || other.Pairs() != cm.Pairs() {
			t.Fatalf("stat columns %v: layout mismatch lost counts: keys %d/%d pairs %d/%d",
				cols, other.Keys(), cm.Keys(), other.Pairs(), cm.Pairs())
		}
		if got := other.Lookup(value.NewInt(2)); len(got) != 4 {
			t.Fatalf("stat columns %v: lookup after mismatch = %v, want the 4 buckets", cols, got)
		}
	}

	// A string column first reached after such a load holds no string
	// in the loaded pairs' slots: they read as empty strings.
	strs := New(Spec{Name: "k", UCols: []int{0}, StatCols: []int{2}})
	if err := strs.Deserialize(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	strs.AddRow(value.Row{value.NewInt(9), value.NewFloat(0), value.NewString("x")}, 9)
	before := strs.StatsSizeBytes()
	if err := strs.RemoveRow(value.Row{value.NewInt(2), value.NewFloat(2.25), value.NewString("y")}, 0); err != nil {
		t.Fatal(err)
	}
	e, _ := strs.Find(strs.AppendKeyForRow(nil, value.Row{value.NewInt(2)}))
	if _, _, lo, hi := strs.PairStat(e.Slots[0], 0); lo.S != "" || hi.S != "" || strs.StatsSizeBytes() != before {
		t.Fatalf("a loaded pair's string extremes read %q and %q; stats size %d, was %d", lo.S, hi.S, strs.StatsSizeBytes(), before)
	}
}

// TestStatKindMismatchInvalidatesStats: a stat column takes the kind
// of the first value it holds. A later value of another kind — what a
// checkpoint typed otherwise than the rows replayed into it would meet —
// is neither folded nor misread as the column's kind: the statistics are
// marked invalid until a Reset rebuilds them.
func TestStatKindMismatchInvalidatesStats(t *testing.T) {
	cm := New(Spec{Name: "k", UCols: []int{0}, StatCols: []int{1}})
	intRow, floatRow := value.Row{value.NewInt(1), value.NewInt(10)}, value.Row{value.NewInt(1), value.NewFloat(2.5)}
	cm.AddRow(intRow, 0)
	cm.AddRow(floatRow, 0)
	if cm.StatsValid() {
		t.Fatal("a float folded into an int stat column left the statistics valid")
	}
	e, _ := cm.Find(cm.AppendKeyForRow(nil, intRow))
	if sumI, sumF, lo, hi := cm.PairStat(e.Slots[0], 0); cm.PairCount(e.Slots[0]) != 2 || sumI != 10 || sumF != 0 || lo.I != 10 || hi.I != 10 {
		t.Fatalf("pair count %d, stats %d %v %v %v; want count 2 and the int row's alone", cm.PairCount(e.Slots[0]), sumI, sumF, lo, hi)
	}
	cm.Reset()
	cm.AddRow(intRow, 0)
	cm.AddRow(intRow, 0)
	if !cm.StatsValid() {
		t.Fatal("Reset did not make the statistics valid again")
	}
	if err := cm.RemoveRow(floatRow, 0); err != nil || cm.StatsValid() || cm.Pairs() != 1 {
		t.Fatalf("retracting a float from an int stat column: err %v, valid %v, %d pairs", err, cm.StatsValid(), cm.Pairs())
	}
}

// TestDeserializeRejectsUnsupportedHeaders: there is one checkpoint
// format. The layouts earlier builds wrote — unversioned (opening with
// the key count), version 2 and version 3 — a header that declares
// counts no input backs, and input cut short at any offset are clean
// errors, never a panic or an allocation sized from an unread count, and
// leave the CM as it was.
func TestDeserializeRejectsUnsupportedHeaders(t *testing.T) {
	var good bytes.Buffer
	if err := statsCM().Serialize(&good); err != nil {
		t.Fatal(err)
	}
	reversion := func(v uint32) []byte {
		b := append([]byte(nil), good.Bytes()...)
		binary.LittleEndian.PutUint32(b[4:8], v)
		return b
	}
	cases := map[string][]byte{
		"unversioned":                    {5, 0, 0, 0, 3, 0, 'a', 'b', 'c', 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0},
		"version 2":                      reversion(2),
		"version 3":                      reversion(3),
		"4G keys, no key":                killerCheckpoint(),
		"float extreme in an int column": misKindedCheckpoint(good.Bytes(), false),
		"float sum in an int column":     misKindedCheckpoint(good.Bytes(), true),
	}
	for cut := 0; cut < good.Len(); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = good.Bytes()[:cut]
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
	if err := cm.Walk(func(e Entry, vals []value.Value) bool {
		if len(vals) != 1 || vals[0].K != value.String {
			t.Error("walk decoded wrong shape")
		}
		if len(e.Slots) != len(e.Buckets) || !slices.Equal(e.Buckets, cm.Lookup(vals...)) {
			t.Errorf("walk handed %v (%d slots) for %v, lookup says %v", e.Buckets, len(e.Slots), vals, cm.Lookup(vals...))
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
	if err := cm.Walk(func(Entry, []value.Value) bool { n++; return false }); err != nil {
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

// TestLookupReturnsTheStoredRun: a probe hands out the key's sorted run
// as it is stored — no set, no sort, no copy — so the only allocation is
// the encoded key; and an absent key allocates no more than that.
func TestLookupReturnsTheStoredRun(t *testing.T) {
	cm := cityStateCM()
	for _, city := range []string{"boston", "nowhere"} {
		vals := []value.Value{value.NewString(city)}
		if allocs := testing.AllocsPerRun(100, func() { cm.Lookup(vals...) }); allocs > 1 {
			t.Errorf("Lookup(%s) allocates %.0f objects, want at most the encoded key", city, allocs)
		}
	}
	a, b := cm.Lookup(value.NewString("boston")), cm.Lookup(value.NewString("boston"))
	if &a[0] != &b[0] {
		t.Error("two lookups of one key returned different backing arrays")
	}
}

// killerCheckpoint is a 16-byte header declaring no stat columns and
// 2^32-1 keys: sizing anything from that count is an out-of-memory
// crash, not an error.
func killerCheckpoint() []byte {
	b := binary.LittleEndian.AppendUint32(nil, cmCheckpointMagic)
	b = binary.LittleEndian.AppendUint32(b, cmCheckpointVersion)
	b = binary.LittleEndian.AppendUint32(b, 0)
	return binary.LittleEndian.AppendUint32(b, 0xFFFFFFFF)
}

// misKindedCheckpoint rewrites statsCM's checkpoint so the first pair's
// int stat column (column 0) holds what no int column can: its minimum
// re-kinded as a float, or, with sum, a nonzero float sum beside the int
// one.
func misKindedCheckpoint(good []byte, sum bool) []byte {
	b := append([]byte(nil), good...)
	// header 12 + 2 stat columns × 4 + key count 4, then the first key's
	// length, key and pair count, then the pair's bucket, count and
	// MMDirty byte, then column 0's sumI.
	at := 24 + 2 + int(binary.LittleEndian.Uint16(b[24:])) + 4 + 4 + 8 + 1 + 8
	if sum {
		binary.LittleEndian.PutUint64(b[at:], math.Float64bits(1))
	} else {
		b[at+8] = 1 // the min value's kind byte: float
	}
	return b
}

// entriesOf collects a CM's entries by key, checking on the way that
// every stored run is strictly ascending with one slot per bucket.
func entriesOf(t testing.TB, cm *CM) map[string]Entry {
	t.Helper()
	out := map[string]Entry{}
	err := cm.Walk(func(e Entry, vals []value.Value) bool {
		if len(e.Slots) != len(e.Buckets) || len(e.Buckets) == 0 || len(vals) != len(cm.Spec().UCols) {
			t.Fatalf("key %x: %d buckets, %d slots, %d values", e.Key, len(e.Buckets), len(e.Slots), len(vals))
		}
		for i := 1; i < len(e.Buckets); i++ {
			if e.Buckets[i] <= e.Buckets[i-1] {
				t.Fatalf("key %x: run %v is not strictly ascending", e.Key, e.Buckets)
			}
		}
		out[e.Key] = e
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// requireSameCM fails unless the two CMs are Walk-equal — the same keys,
// runs, counts, statistics (floats by their bits) and MMDirty flags —
// with matching totals.
func requireSameCM(t testing.TB, got, want *CM) {
	t.Helper()
	if got.Keys() != want.Keys() || got.Pairs() != want.Pairs() || got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("keys %d pairs %d size %d, want %d %d %d",
			got.Keys(), got.Pairs(), got.SizeBytes(), want.Keys(), want.Pairs(), want.SizeBytes())
	}
	g, w := entriesOf(t, got), entriesOf(t, want)
	if len(g) != len(w) {
		t.Fatalf("%d entries, want %d", len(g), len(w))
	}
	for k, we := range w {
		ge, ok := g[k]
		if !ok || !slices.Equal(ge.Buckets, we.Buckets) {
			t.Fatalf("key %x: run %v, want %v", k, ge.Buckets, we.Buckets)
		}
		// The checkpoint form compares every statistic bit for bit.
		var gs, ws []byte
		for i := range we.Slots {
			gs, ws = got.appendPair(gs, ge.Slots[i]), want.appendPair(ws, we.Slots[i])
		}
		if !bytes.Equal(gs, ws) {
			t.Fatalf("key %x: statistics %x, want %x", k, gs, ws)
		}
	}
}

// FuzzCMDeserialize: whatever the bytes, Deserialize returns an error or
// a CM that round-trips through its own checkpoint — never a panic, and
// (the 16-byte seed) never memory sized from a count the input only
// declares.
func FuzzCMDeserialize(f *testing.F) {
	var good bytes.Buffer
	if err := statsCM().Serialize(&good); err != nil {
		f.Fatal(err)
	}
	for cut := 0; cut <= good.Len(); cut++ {
		f.Add(good.Bytes()[:cut])
	}
	f.Add(killerCheckpoint())
	f.Add(misKindedCheckpoint(good.Bytes(), false))
	f.Add(misKindedCheckpoint(good.Bytes(), true))
	f.Fuzz(func(t *testing.T, data []byte) {
		cm := New(statsCM().Spec())
		if err := cm.Deserialize(bytes.NewReader(data)); err != nil {
			if cm.Keys() != 0 {
				t.Fatalf("rejected checkpoint left %d keys behind", cm.Keys())
			}
			return
		}
		var again bytes.Buffer
		if err := cm.Serialize(&again); err != nil {
			t.Fatal(err)
		}
		cm2 := New(cm.Spec())
		if err := cm2.Deserialize(&again); err != nil {
			t.Fatalf("a CM's own checkpoint is refused: %v", err)
		}
		requireSameCM(t, cm2, cm)
	})
}

// TestCheckpointReaderRejects pins what a checkpoint reader refuses: a
// value of no known kind, more stat columns than a checkpoint may
// declare (4,096 is the most), a long value cut short, and buckets of a
// key out of ascending order or repeated.
func TestCheckpointReaderRejects(t *testing.T) {
	c := &checkpointReader{r: bytes.NewReader([]byte{9})}
	c.value()
	if c.err == nil || !strings.Contains(c.err.Error(), "bad value kind byte 9") {
		t.Errorf("value of kind 9: %v", c.err)
	}
	cm := New(Spec{Name: "x", UCols: []int{0}})
	for _, c := range []struct {
		nstat    uint32
		declared bool
	}{{1 << 12, false}, {1<<12 + 1, true}} {
		_, _, _, err := cm.readEntries(&checkpointReader{r: bytes.NewReader(binary.LittleEndian.AppendUint32(nil, c.nstat))})
		if got := err != nil && strings.Contains(err.Error(), "stat columns declared"); err == nil || got != c.declared {
			t.Errorf("%d stat columns: %v", c.nstat, err)
		}
	}

	// A string statistic longer than the reader's direct read
	// round-trips, and a checkpoint cut anywhere is an error.
	long := New(Spec{Name: "long", UCols: []int{0}, StatCols: []int{1}})
	long.AddRow(value.Row{value.NewInt(1), value.NewString(strings.Repeat("k", 70000))}, 3)
	var ckpt bytes.Buffer
	if err := long.Serialize(&ckpt); err != nil {
		t.Fatal(err)
	}
	back := New(long.Spec())
	if err := back.Deserialize(bytes.NewReader(ckpt.Bytes())); err != nil || back.Pairs() != 1 || !back.StatsValid() {
		t.Fatalf("a 70,000-byte string statistic: %v, %d pairs", err, back.Pairs())
	}
	for cut := 1; cut < ckpt.Len(); cut += 997 {
		if err := New(long.Spec()).Deserialize(bytes.NewReader(ckpt.Bytes()[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("a checkpoint cut to %d of %d bytes: %v, want the cut reported", cut, ckpt.Len(), err)
		}
	}

	// A small checkpoint cut at every byte reports the cut, and a read
	// that fails once fails the load even where the reads after it would
	// succeed: the first error sticks.
	ckpt.Reset()
	if err := statsCM().Serialize(&ckpt); err != nil {
		t.Fatal(err)
	}
	for cut := range ckpt.Len() {
		if err := New(statsCM().Spec()).Deserialize(bytes.NewReader(ckpt.Bytes()[:cut])); !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("the checkpoint cut to %d of %d bytes: %v, want the cut reported", cut, ckpt.Len(), err)
		}
	}
	errOnce := errors.New("read failed once")
	for n := 1; ; n++ {
		r := &failingRead{r: bytes.NewReader(ckpt.Bytes()), n: n, err: errOnce}
		err := New(statsCM().Spec()).Deserialize(r)
		if r.n > 0 {
			break // the load read less than n times
		}
		if !errors.Is(err, errOnce) {
			t.Fatalf("read %d failed: the load returned %v", n, err)
		}
	}

	for _, buckets := range [][]int32{{2, 1}, {1, 1}} {
		bad := New(Spec{Name: "bad", UCols: []int{0}})
		bad.AddRow(value.Row{value.NewInt(7)}, 1)
		bad.AddRow(value.Row{value.NewInt(7)}, 2)
		for _, e := range bad.m {
			e.Buckets = buckets
		}
		ckpt.Reset()
		if err := bad.Serialize(&ckpt); err != nil {
			t.Fatal(err)
		}
		if err := New(bad.Spec()).Deserialize(&ckpt); err == nil || !strings.Contains(err.Error(), "ascending run") {
			t.Errorf("buckets %v: %v", buckets, err)
		}
	}
}

// failingRead fails its n-th Read with err and serves every other from r.
type failingRead struct {
	r   io.Reader
	n   int
	err error
}

func (f *failingRead) Read(p []byte) (int, error) {
	if f.n--; f.n == 0 {
		return 0, f.err
	}
	return f.r.Read(p)
}

// TestStatsSizeBytesOfAFewPairs pins StatsSizeBytes on a small CM with an
// int and a string stat column: each array at its capacity, each slot
// run, and each distinct live string with its interning entry. Freeing a
// pair's slot adds the free list and drops what only that pair held; a
// reset empties everything, and NoteSweep's counters add up.
func TestStatsSizeBytesOfAFewPairs(t *testing.T) {
	cm := New(Spec{Name: "s", UCols: []int{0}, StatCols: []int{0, 1}})
	for i, s := range []string{"aa", "bbbb", "aa"} {
		cm.AddRow(value.Row{value.NewInt(int64(i % 2)), value.NewString(s)}, int32(i))
	}
	if got, want := cm.StatsSizeBytes(), int64(478); got != want {
		t.Errorf("StatsSizeBytes of three pairs = %d, want %d", got, want)
	}
	if err := cm.RemoveRow(value.Row{value.NewInt(1), value.NewString("bbbb")}, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := cm.StatsSizeBytes(), int64(346); got != want {
		t.Errorf("StatsSizeBytes after freeing a pair = %d, want %d", got, want)
	}
	// The freed slot is the next pair's.
	cm.AddRow(value.Row{value.NewInt(5), value.NewString("aa")}, 9)
	if n := len(cm.stats.count); n != 3 || len(cm.stats.free) != 0 {
		t.Errorf("after a new pair: %d slots, %d free; want the freed slot reused", n, len(cm.stats.free))
	}
	cm.NoteSweep(5, 2)
	cm.NoteSweep(3, 1)
	if cm.PagesSwept() != 8 || cm.FalsePositivePages() != 3 {
		t.Errorf("sweeps: %d pages, %d false positive; want 8 and 3", cm.PagesSwept(), cm.FalsePositivePages())
	}
	cm.Reset()
	if cm.SizeBytes() != 0 || cm.Pairs() != 0 || cm.StatsSizeBytes() != 0 {
		t.Errorf("after Reset: size %d, %d pairs, stats %d bytes", cm.SizeBytes(), cm.Pairs(), cm.StatsSizeBytes())
	}
}

// TestRetractingAnExtremeMarksThePairDirty: for each stat kind, taking
// back a pair's middle value leaves its extremes exact, and taking back
// its maximum marks them dirty.
func TestRetractingAnExtremeMarksThePairDirty(t *testing.T) {
	for _, vals := range [][]value.Value{
		{value.NewInt(1), value.NewInt(2), value.NewInt(3)},
		{value.NewFloat(1.5), value.NewFloat(2.5), value.NewFloat(3.5)},
		{value.NewString("a"), value.NewString("b"), value.NewString("c")},
	} {
		cm := New(Spec{Name: "d", UCols: []int{0}, StatCols: []int{1}})
		for _, v := range vals {
			cm.AddRow(value.Row{value.NewInt(7), v}, 0)
		}
		e, _ := cm.Find(cm.AppendKeyForRow(nil, value.Row{value.NewInt(7)}))
		for i, wantDirty := range []bool{false, true} {
			if err := cm.RemoveRow(value.Row{value.NewInt(7), vals[i+1]}, 0); err != nil {
				t.Fatal(err)
			}
			if cm.PairDirty(e.Slots[0]) != wantDirty {
				t.Errorf("after taking back %v the pair is dirty = %v, want %v", vals[i+1], !wantDirty, wantDirty)
			}
		}
	}
}
