package btree

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/buffer"
	"repro/internal/keyenc"
	"repro/internal/sim"
	"repro/internal/value"
)

func newTree(t *testing.T, pageSize, frames int) *Tree {
	t.Helper()
	d := sim.NewDisk(sim.Config{PageSize: pageSize})
	tr, err := New(buffer.NewPool(d, frames))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func ikey(i int64) []byte { return keyenc.EncodeValue(value.NewInt(i)) }

func ival(i int64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(i))
	return b[:]
}

func TestInsertGetSmall(t *testing.T) {
	tr := newTree(t, 256, 16)
	for i := int64(0); i < 10; i++ {
		if err := tr.Insert(ikey(i), ival(i*10)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 10; i++ {
		v, ok, err := get(tr, ikey(i))
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("key %d missing", i)
		}
		if got := int64(binary.BigEndian.Uint64(v)); got != i*10 {
			t.Errorf("Get(%d) = %d", i, got)
		}
	}
	if _, ok, _ := get(tr, ikey(99)); ok {
		t.Error("missing key found")
	}
	if tr.Len() != 10 {
		t.Errorf("len = %d", tr.Len())
	}
}

func TestOverwrite(t *testing.T) {
	tr := newTree(t, 256, 16)
	if err := tr.Insert(ikey(1), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(ikey(1), []byte("newvalue")); err != nil {
		t.Fatal(err)
	}
	v, ok, err := get(tr, ikey(1))
	if err != nil || !ok {
		t.Fatal(err, ok)
	}
	if string(v) != "newvalue" {
		t.Errorf("value = %q", v)
	}
	if tr.Len() != 1 {
		t.Errorf("len after overwrite = %d", tr.Len())
	}
}

func TestSplitsAscending(t *testing.T) {
	tr := newTree(t, 256, 32)
	const n = 2000
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(ikey(i), ival(i)); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Height() < 2 {
		t.Errorf("height = %d, expected splits", tr.Height())
	}
	for i := int64(0); i < n; i += 17 {
		v, ok, err := get(tr, ikey(i))
		if err != nil || !ok {
			t.Fatalf("key %d missing after splits: %v", i, err)
		}
		if int64(binary.BigEndian.Uint64(v)) != i {
			t.Fatalf("key %d wrong value", i)
		}
	}
}

func TestSplitsRandomOrder(t *testing.T) {
	tr := newTree(t, 256, 32)
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(3000)
	for _, i := range perm {
		if err := tr.Insert(ikey(int64(i)), ival(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 3000 {
		t.Fatalf("len = %d", tr.Len())
	}
	for i := int64(0); i < 3000; i++ {
		if _, ok, err := get(tr, ikey(i)); err != nil || !ok {
			t.Fatalf("key %d missing: %v", i, err)
		}
	}
}

func TestIterationSorted(t *testing.T) {
	tr := newTree(t, 256, 32)
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(1000) {
		if err := tr.Insert(ikey(int64(i)), ival(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	var prev []byte
	n := 0
	for it.Valid() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatal("iteration out of order")
		}
		prev = append(prev[:0], it.Key()...)
		n++
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 1000 {
		t.Errorf("iterated %d entries", n)
	}
}

func TestSeekGE(t *testing.T) {
	tr := newTree(t, 256, 32)
	for i := int64(0); i < 100; i += 2 { // even keys only
		if err := tr.Insert(ikey(i), ival(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Seek to an absent odd key lands on the next even key.
	it, err := tr.SeekGE(ikey(51))
	if err != nil {
		t.Fatal(err)
	}
	if !it.Valid() {
		t.Fatal("iterator invalid")
	}
	vals, err := keyenc.DecodeAll(it.Key())
	if err != nil {
		t.Fatal(err)
	}
	if vals[0].I != 52 {
		t.Errorf("SeekGE(51) landed on %d", vals[0].I)
	}
	// Seeking beyond the last key yields an invalid iterator.
	it, err = tr.SeekGE(ikey(1000))
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Error("iterator should be exhausted")
	}
}

func TestDelete(t *testing.T) {
	tr := newTree(t, 256, 32)
	for i := int64(0); i < 500; i++ {
		if err := tr.Insert(ikey(i), ival(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 500; i += 2 {
		ok, err := tr.Delete(ikey(i))
		if err != nil || !ok {
			t.Fatalf("delete %d: %v %v", i, ok, err)
		}
	}
	if tr.Len() != 250 {
		t.Errorf("len = %d", tr.Len())
	}
	for i := int64(0); i < 500; i++ {
		_, ok, err := get(tr, ikey(i))
		if err != nil {
			t.Fatal(err)
		}
		if want := i%2 == 1; ok != want {
			t.Errorf("key %d present=%v want %v", i, ok, want)
		}
	}
	// Deleting a missing key reports false.
	if ok, _ := tr.Delete(ikey(0)); ok {
		t.Error("double delete reported true")
	}
	// Iteration skips deleted keys and stays ordered.
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Valid() {
		vals, _ := keyenc.DecodeAll(it.Key())
		if vals[0].I%2 != 1 {
			t.Fatalf("deleted key %d still visible", vals[0].I)
		}
		n++
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 250 {
		t.Errorf("iterated %d", n)
	}
}

func TestEmptyTree(t *testing.T) {
	tr := newTree(t, 256, 8)
	if _, ok, err := get(tr, ikey(1)); ok || err != nil {
		t.Error("empty tree Get should be absent")
	}
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	if it.Valid() {
		t.Error("empty tree iterator should be invalid")
	}
	if ok, err := tr.Delete(ikey(1)); ok || err != nil {
		t.Error("empty tree delete should be false")
	}
}

func TestEmptyKeyRejected(t *testing.T) {
	tr := newTree(t, 256, 8)
	if err := tr.Insert(nil, []byte("x")); err == nil {
		t.Error("empty key accepted")
	}
}

func TestHugeEntryRejected(t *testing.T) {
	tr := newTree(t, 256, 8)
	if err := tr.Insert(ikey(1), make([]byte, 500)); err == nil {
		t.Error("oversized entry accepted")
	}
}

func TestVariableLengthStringKeys(t *testing.T) {
	tr := newTree(t, 512, 32)
	words := []string{"boston", "springfield", "manchester", "toledo", "jackson",
		"cambridge", "a", "zzzzzzzzzzzzzzzzzzzz", "nashua", "worcester"}
	for rep := 0; rep < 50; rep++ {
		for _, w := range words {
			k := keyenc.EncodeValues(value.NewString(w), value.NewInt(int64(rep)))
			if err := tr.Insert(k, []byte(w)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Len() != int64(50*len(words)) {
		t.Fatalf("len = %d", tr.Len())
	}
	// Prefix scan: all entries for "manchester" are contiguous.
	prefix := keyenc.EncodeValue(value.NewString("manchester"))
	it, err := tr.SeekGE(prefix)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Valid() && bytes.HasPrefix(it.Key(), prefix) {
		n++
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if n != 50 {
		t.Errorf("prefix scan found %d entries", n)
	}
}

// TestAgainstModel drives the tree against a map+sorted-slice model with
// random operations and checks full equivalence at the end.
func TestAgainstModel(t *testing.T) {
	tr := newTree(t, 256, 64)
	model := map[string]string{}
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 20000; op++ {
		k := ikey(int64(rng.Intn(2000)))
		switch rng.Intn(3) {
		case 0, 1:
			v := fmt.Sprintf("v%d", op)
			if err := tr.Insert(k, []byte(v)); err != nil {
				t.Fatal(err)
			}
			model[string(k)] = v
		case 2:
			ok, err := tr.Delete(k)
			if err != nil {
				t.Fatal(err)
			}
			_, inModel := model[string(k)]
			if ok != inModel {
				t.Fatalf("delete mismatch at op %d", op)
			}
			delete(model, string(k))
		}
	}
	if tr.Len() != int64(len(model)) {
		t.Fatalf("len %d vs model %d", tr.Len(), len(model))
	}
	// Full scan must equal the sorted model.
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for it.Valid() {
		if i >= len(keys) {
			t.Fatal("tree has extra keys")
		}
		if string(it.Key()) != keys[i] {
			t.Fatalf("key %d mismatch", i)
		}
		if string(it.vals[it.idx]) != model[keys[i]] {
			t.Fatalf("value mismatch for key %d", i)
		}
		i++
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if i != len(keys) {
		t.Fatalf("tree missing keys: %d vs %d", i, len(keys))
	}
}

func TestInsertGetQuick(t *testing.T) {
	tr := newTree(t, 512, 64)
	seen := map[int64][]byte{}
	f := func(k int64, v []byte) bool {
		if len(v) > 50 {
			v = v[:50]
		}
		if err := tr.Insert(ikey(k), v); err != nil {
			return false
		}
		seen[k] = append([]byte(nil), v...)
		got, ok, err := get(tr, ikey(k))
		return err == nil && ok && bytes.Equal(got, v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	for k, v := range seen {
		got, ok, err := get(tr, ikey(k))
		if err != nil || !ok || !bytes.Equal(got, v) {
			t.Fatalf("key %d lost or wrong", k)
		}
	}
}

func TestSortedLoadFillsPages(t *testing.T) {
	// With the rightmost-split optimization, ascending insertion should
	// produce pages that are nearly full, unlike a 50/50 split policy.
	tr := newTree(t, 8192, 256)
	const n = 50000
	for i := int64(0); i < n; i++ {
		if err := tr.Insert(ikey(i), ival(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Entry is 9-byte key + 8-byte value + 4-byte header + 2-byte slot = 23B.
	// A perfectly packed leaf holds ~(8192-13)/23 = 355 entries.
	nf := float64(n)
	minPages := int64(n / 356)
	maxPages := int64(nf/350.0*1.2) + tr.PageCount()/50 + 5
	if tr.PageCount() < minPages || tr.PageCount() > maxPages {
		t.Errorf("page count %d outside [%d, %d]: fill factor off", tr.PageCount(), minPages, maxPages)
	}
}

func TestHeightGrowsLogarithmically(t *testing.T) {
	tr := newTree(t, 256, 64)
	lastHeight := tr.Height()
	if lastHeight != 1 {
		t.Fatalf("fresh tree height = %d", lastHeight)
	}
	for i := int64(0); i < 5000; i++ {
		if err := tr.Insert(ikey(i), ival(i)); err != nil {
			t.Fatal(err)
		}
		if h := tr.Height(); h < lastHeight {
			t.Fatal("height decreased")
		} else {
			lastHeight = h
		}
	}
	if lastHeight < 3 || lastHeight > 8 {
		t.Errorf("height = %d after 5000 inserts on tiny pages", lastHeight)
	}
}

// TestPackedHeightMatchesSortedInserts holds PackedHeight to the tree
// ascending inserts really build, after every insert, on pages small
// enough that every internal level splits many times.
func TestPackedHeightMatchesSortedInserts(t *testing.T) {
	for _, c := range []struct{ pageSize, keyLen, n int }{
		{128, 19, 6000},
		{256, 19, 20000},
		{256, 40, 8000},
		{512, 9, 20000},
	} {
		t.Run(fmt.Sprintf("page=%d/key=%d", c.pageSize, c.keyLen), func(t *testing.T) {
			tr := newTree(t, c.pageSize, 1<<14)
			key := make([]byte, c.keyLen)
			for i := 0; i < c.n; i++ {
				if got := PackedHeight(c.pageSize, int64(i), c.keyLen); got != tr.Height() {
					t.Fatalf("after %d inserts: PackedHeight %d, the tree's height %d", i, got, tr.Height())
				}
				binary.BigEndian.PutUint64(key[c.keyLen-8:], uint64(i))
				if err := tr.Insert(key, nil); err != nil {
					t.Fatal(err)
				}
			}
			if tr.Height() < 3 {
				t.Errorf("the tree only reached height %d", tr.Height())
			}
		})
	}
}

// get is a point lookup through SeekGE: the value stored for key, or
// ok=false when the tree has no such key.
func get(tr *Tree, key []byte) (val []byte, ok bool, err error) {
	it, err := tr.SeekGE(key)
	if err != nil || !it.Valid() || !bytes.Equal(it.Key(), key) {
		return nil, false, err
	}
	return it.vals[it.idx], true, nil
}

// TestAscendingShortcutAgainstModel drives the search-free ascending
// insert, the remembered rightmost leaf and the packed 100/0 split
// against a sorted model: random streams of inserts above the largest
// key, inserts into the middle, overwrites (the largest key's too, with
// values of other lengths, so the rightmost leaf stops being packed) and
// deletes, a share of them of the largest keys, so the rightmost leaf
// empties and refills. Each insert elsewhere and each delete makes the
// tree forget its leaf, so the stream checks that the next ascending
// insert never lands in a stale one. Every few hundred operations the
// tree must hold exactly the model, in order.
func TestAscendingShortcutAgainstModel(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		// Ascending inserts that found the rightmost leaf remembered, and
		// ones that had to re-find it after an insert elsewhere or a
		// Delete: the stream must exercise both.
		remembered, refound := 0, 0
		tr := newTree(t, 256, 64)
		model := map[string]string{}
		rng := rand.New(rand.NewSource(seed))
		next := int64(0) // above every key inserted so far
		largest := func() (string, bool) {
			best, ok := "", false
			for k := range model {
				if !ok || k > best {
					best, ok = k, true
				}
			}
			return best, ok
		}
		for op := 0; op < 6000; op++ {
			v := fmt.Sprintf("v%d%s", op, bytes.Repeat([]byte{'x'}, rng.Intn(6)))
			var k []byte
			del := false
			// Mostly ascending, so runs of appends pack leaves for the
			// split to keep; the rest unpack them again.
			switch r := rng.Intn(20); {
			case r < 16: // above every key so far
				next += 1 + int64(rng.Intn(3))
				k = ikey(next)
			case r < 17: // into the middle
				k = ikey(rng.Int63n(next + 1))
			case r < 18: // overwrite, the largest key half the time
				if l, ok := largest(); ok && rng.Intn(2) == 0 {
					k = []byte(l)
				} else {
					k = ikey(rng.Int63n(next + 1))
				}
			case r < 19: // delete the largest key
				l, ok := largest()
				if !ok {
					continue
				}
				k, del = []byte(l), true
			default: // delete anywhere
				k, del = ikey(rng.Int63n(next+1)), true
			}
			if del {
				ok, err := tr.Delete(k)
				if err != nil {
					t.Fatal(err)
				}
				if _, in := model[string(k)]; ok != in {
					t.Fatalf("seed %d op %d: Delete reported %v, model %v", seed, op, ok, in)
				}
				delete(model, string(k))
			} else {
				if bytes.Compare(k, tr.top) > 0 {
					if tr.last != noSibling {
						remembered++
					} else {
						refound++
					}
				}
				if err := tr.Insert(k, []byte(v)); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = v
			}
			if op%500 == 499 || op == 5999 {
				requireModel(t, tr, model)
			}
		}
		if tr.Height() < 3 {
			t.Errorf("seed %d: height %d, want the stream to grow a 3-level tree", seed, tr.Height())
		}
		if remembered < 1000 || refound < 200 {
			t.Errorf("seed %d: %d ascending inserts into the remembered leaf, %d after forgetting it; want ≥ 1000 and ≥ 200", seed, remembered, refound)
		}
	}
}

// requireModel fails unless the tree holds exactly the model's entries.
func requireModel(t *testing.T, tr *Tree, model map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(model))
	for k := range model {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if tr.Len() != int64(len(keys)) {
		t.Fatalf("Len %d, model %d", tr.Len(), len(keys))
	}
	it, err := tr.SeekFirst()
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	for ; it.Valid(); i++ {
		if i >= len(keys) || string(it.Key()) != keys[i] || string(it.vals[it.idx]) != model[keys[i]] {
			t.Fatalf("entry %d: tree has %x=%q, model has %d entries", i, it.Key(), it.vals[it.idx], len(keys))
		}
		if err := it.Next(); err != nil {
			t.Fatal(err)
		}
	}
	if i != len(keys) {
		t.Fatalf("iteration ends after %d entries, model has %d", i, len(keys))
	}
	for _, k := range keys {
		if v, ok, err := get(tr, []byte(k)); err != nil || !ok || string(v) != model[k] {
			t.Fatalf("Get(%x) = %q, %v, %v; model %q", k, v, ok, err, model[k])
		}
	}
}

// TestAscendingInsertAppendsToTheRightmostLeaf: in two- and
// three-level trees, an insert above every key that fits in the
// remembered rightmost leaf costs one pool Get; one that splits it
// leaves the old leaf clean, its bytes on disk, when Insert returns.
// An insert below every key and a Delete make the tree forget the leaf,
// so the next ascending insert re-finds it through one page per level.
func TestAscendingInsertAppendsToTheRightmostLeaf(t *testing.T) {
	tr := newTree(t, 256, 64)
	disk := tr.pool.Disk()
	gets := func(key []byte) uint64 {
		t.Helper()
		before := tr.pool.Stats()
		if err := tr.Insert(key, nil); err != nil {
			t.Fatal(err)
		}
		after := tr.pool.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	n := int64(0)
	for _, height := range []int{2, 3} {
		fits, splits := 0, 0
		for tr.Height() < height || splits < 3 {
			leaf, pages := tr.last, tr.PageCount()
			g := gets(ikey(n))
			n++
			if tr.PageCount() == pages {
				fits++
				if g != 1 || tr.last != leaf {
					t.Fatalf("ascending insert that fits leaf %d: %d pool Gets, then leaf %d; want 1 and the same leaf", leaf, g, tr.last)
				}
				continue
			}
			splits++
			// The finished leaf is clean: writing it back costs nothing.
			// (The frame holds the disk's own page, so there is no
			// second copy to compare.)
			writes := disk.Stats().Writes
			if err := tr.pool.WriteBack(tr.file, leaf); err != nil {
				t.Fatal(err)
			}
			if disk.Stats().Writes != writes {
				t.Fatalf("leaf %d was left dirty by the ascending split", leaf)
			}
		}
		if fits < 10 {
			t.Fatalf("height %d: only %d ascending inserts fit the rightmost leaf", height, fits)
		}

		// Forgetting: below every key, then a Delete.
		for _, forget := range []func(){
			func() {
				if err := tr.Insert(ikey(-n), nil); err != nil {
					t.Fatal(err)
				}
			},
			func() {
				if _, err := tr.Delete(ikey(n - 1)); err != nil {
					t.Fatal(err)
				}
			},
		} {
			forget()
			if tr.last != noSibling {
				t.Fatalf("height %d: the tree still remembers leaf %d", height, tr.last)
			}
			for {
				pages := tr.PageCount()
				g := gets(ikey(n))
				n++
				if tr.PageCount() != pages {
					continue // a split: try again on a leaf with room
				}
				if g != uint64(tr.Height()) {
					t.Errorf("first ascending insert after forgetting, height %d: %d pool Gets, want %d", tr.Height(), g, tr.Height())
				}
				break
			}
			if g := gets(ikey(n)); g != 1 {
				t.Errorf("second ascending insert after forgetting: %d pool Gets, want 1", g)
			}
			n++
		}
	}
}

// TestRandomInsertsAllocateNothing: an Insert into a warm tree on 8 KiB
// pages allocates nothing of its own. What remains is the disk's new
// page at each split, well under one allocation per 20 inserts.
func TestRandomInsertsAllocateNothing(t *testing.T) {
	const n = 50_000
	tr := newTree(t, 8192, 1024)
	rng := rand.New(rand.NewSource(3))
	keys := make([][]byte, 2*n)
	for i := range keys {
		keys[i] = ikey(rng.Int63())
	}
	for _, k := range keys[:n] { // warm: the tree and its buffers
		if err := tr.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, k := range keys[n:] {
		if err := tr.Insert(k, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	per := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.3f allocations, %.0f B per Insert", per, float64(after.TotalAlloc-before.TotalAlloc)/n)
	if per >= 0.05 {
		t.Errorf("%.3f allocations per Insert; want < 0.05", per)
	}
}
