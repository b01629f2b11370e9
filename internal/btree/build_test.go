package btree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffer"
	"repro/internal/sim"
)

// kv is one entry of a test input.
type kv struct{ k, v []byte }

// buildInputs are Build's test inputs on pageSize-byte pages, each in the
// order a caller would have the entries before sorting them: random
// integers, ascending ones, string keys sharing long prefixes, entries of
// the largest cell a page takes, and the edge sizes — none, one, exactly
// one leaf's worth and one more.
func buildInputs(pageSize int) map[string][]kv {
	rng := rand.New(rand.NewSource(11))
	in := map[string][]kv{}
	for _, i := range rng.Perm(3000) {
		in["random"] = append(in["random"], kv{ikey(int64(i) * 7), ival(int64(i))})
	}
	for i := range 3000 {
		in["ascending"] = append(in["ascending"], kv{ikey(int64(i)), nil})
	}
	seen := map[string]bool{}
	for len(in["shared prefixes"]) < 1500 {
		k := fmt.Sprintf("warehouse/%03d/shelf/%d", rng.Intn(40), rng.Intn(100000))
		if !seen[k] {
			seen[k] = true
			in["shared prefixes"] = append(in["shared prefixes"], kv{[]byte(k), []byte{byte(len(k))}})
		}
	}
	maxCell := (pageSize - headerSize - slotSize*4) / 4
	for _, i := range rng.Perm(400) {
		k := bytes.Repeat([]byte{'k'}, 25)
		copy(k[16:], ikey(int64(i)))
		in["maximum cells"] = append(in["maximum cells"], kv{k, make([]byte, maxCell-4-len(k))})
	}
	in["empty"] = nil
	in["one entry"] = []kv{{ikey(42), ival(42)}}
	leafCap := (pageSize - headerSize) / (leafCellSize(ikey(0), ival(0)) + slotSize)
	for i := range leafCap + 1 {
		e := kv{ikey(int64(i)), ival(int64(i))}
		if i < leafCap {
			in["one leaf"] = append(in["one leaf"], e)
		}
		in["one leaf and one more"] = append(in["one leaf and one more"], e)
	}
	// A leaf filled to its last byte: the full leaf's entries and one
	// whose value takes up the rest, then one entry more.
	full := slices.Clone(in["one leaf"][:leafCap-1])
	rest := pageSize - headerSize - len(full)*(leafCellSize(ikey(0), ival(0))+slotSize)
	full = append(full, kv{ikey(int64(leafCap)), make([]byte, rest-slotSize-leafCellSize(ikey(0), nil))})
	in["a leaf to its last byte"] = full
	in["a leaf to its last byte and one more"] = append(slices.Clone(full), kv{ikey(int64(leafCap + 1)), nil})
	return in
}

// filePages reads every page of the tree's file straight from its disk.
func filePages(t *testing.T, tr *Tree) [][]byte {
	t.Helper()
	disk := tr.pool.Disk()
	pages := make([][]byte, tr.PageCount())
	for p := range pages {
		var err error
		if pages[p], _, err = disk.ReadPageDeferWait(tr.file, int64(p)); err != nil {
			t.Fatal(err)
		}
	}
	return pages
}

// seekAll returns what SeekGE answers for every probe: the key it lands
// on, or nil past the end.
func seekAll(t *testing.T, tr *Tree, probes [][]byte) [][]byte {
	t.Helper()
	out := make([][]byte, len(probes))
	for i, p := range probes {
		it, err := tr.SeekGE(p)
		if err != nil {
			t.Fatal(err)
		}
		if it.Valid() {
			out[i] = append([]byte(nil), it.Key()...)
		}
	}
	return out
}

// TestBuildEqualsInsertedTree holds Build to Insert. Inserting the sorted
// entries one by one must leave exactly the pages Build writes, page for
// page, so the two have the same root, Height, Len and page count.
// Inserting them in their input order must give the same entries, Len,
// Height and SeekGE answers. The build itself reads nothing, writes each
// page once and never touches its pool.
func TestBuildEqualsInsertedTree(t *testing.T) {
	const pageSize = 512
	for name, in := range buildInputs(pageSize) {
		t.Run(name, func(t *testing.T) {
			sorted := slices.Clone(in)
			slices.SortFunc(sorted, func(a, b kv) int { return bytes.Compare(a.k, b.k) })
			model := map[string]string{}
			for _, e := range in {
				model[string(e.k)] = string(e.v)
			}

			disk := sim.NewDisk(sim.Config{PageSize: pageSize})
			pool := buffer.NewPool(disk, 64)
			built, err := Build(pool, len(sorted), func(i int) ([]byte, []byte) { return sorted[i].k, sorted[i].v })
			if err != nil {
				t.Fatal(err)
			}
			if s := disk.Stats(); s.Reads != 0 || s.Writes != uint64(built.PageCount()) {
				t.Errorf("build of %d pages read %d and wrote %d pages; want 0 and one write each", built.PageCount(), s.Reads, s.Writes)
			}
			if s := pool.Stats(); s != (buffer.Stats{}) {
				t.Errorf("build used the pool: %+v", s)
			}

			asc := newTree(t, pageSize, 1024)
			inOrder := newTree(t, pageSize, 1024)
			for _, e := range sorted {
				if err := asc.Insert(e.k, e.v); err != nil {
					t.Fatal(err)
				}
			}
			for _, e := range in {
				if err := inOrder.Insert(e.k, e.v); err != nil {
					t.Fatal(err)
				}
			}
			if err := asc.pool.FlushAll(); err != nil {
				t.Fatal(err)
			}
			if built.root != asc.root || built.Height() != asc.Height() || built.Len() != asc.Len() {
				t.Errorf("built root %d, height %d, %d entries; ascending inserts %d, %d, %d",
					built.root, built.Height(), built.Len(), asc.root, asc.Height(), asc.Len())
			}
			bp, ap := filePages(t, built), filePages(t, asc)
			if len(bp) != len(ap) {
				t.Fatalf("built %d pages, ascending inserts %d", len(bp), len(ap))
			}
			for p := range bp {
				if !bytes.Equal(bp[p], ap[p]) {
					t.Fatalf("page %d differs from the one ascending inserts leave", p)
				}
			}

			requireModel(t, built, model)
			if built.Height() != inOrder.Height() || built.Len() != inOrder.Len() {
				t.Errorf("built height %d, %d entries; inserted in input order %d, %d",
					built.Height(), built.Len(), inOrder.Height(), inOrder.Len())
			}
			probes := [][]byte{{0}, bytes.Repeat([]byte{0xff}, 30)}
			for _, e := range in {
				probes = append(probes, e.k, append(slices.Clone(e.k), 0))
			}
			if got, want := seekAll(t, built, probes), seekAll(t, inOrder, probes); !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("SeekGE answers differ from the tree inserted in input order")
			}
		})
	}
}

// TestBuildRejectsWhatInsertRejects: an empty key, an entry too large
// for a page, and keys that do not strictly ascend.
func TestBuildRejectsWhatInsertRejects(t *testing.T) {
	for name, in := range map[string][]kv{
		"empty key":  {{ikey(1), nil}, {nil, nil}},
		"huge entry": {{ikey(1), make([]byte, 500)}},
		"descending": {{ikey(2), nil}, {ikey(1), nil}},
		"duplicate":  {{ikey(1), nil}, {ikey(1), nil}},
	} {
		pool := buffer.NewPool(sim.NewDisk(sim.Config{PageSize: 256}), 8)
		if _, err := Build(pool, len(in), func(i int) ([]byte, []byte) { return in[i].k, in[i].v }); err == nil {
			t.Errorf("%s: Build accepted it", name)
		}
	}
}

// TestFailedInsertKeepsLen sweeps a write fault over every write of a
// random insert stream into a 4-frame pool, on two page sizes: the
// insert the fault fails changes nothing (requireFailedStepChangesNothing).
// A share of the inserts replace, with values of other lengths. Then
// ascending inserts into a pool with room, where the only writes are
// the write-backs of the remembered leaves they split, fail each of the
// first of those.
func TestFailedInsertKeepsLen(t *testing.T) {
	writes := func(s sim.Stats) int64 { return int64(s.Writes) }
	failWrite := func(n int64) *sim.FaultPlan { return &sim.FaultPlan{FailWriteN: n} }
	for _, pageSize := range []int{256, 512} {
		for n := int64(1); n <= 240; n++ {
			tr := newTree(t, pageSize, 4)
			rng := rand.New(rand.NewSource(n))
			model := map[string]string{}
			insert := func() error {
				e := kv{ikey(rng.Int63n(600)), bytes.Repeat([]byte{'v'}, rng.Intn(12))}
				err := tr.Insert(e.k, e.v)
				if err == nil {
					model[string(e.k)] = string(e.v)
				}
				return err
			}
			name := fmt.Sprintf("page %d, write %d", pageSize, n)
			requireFailedStepChangesNothing(t, name, tr, model, insert, failWrite, writes, n)
		}
	}
	for n := int64(1); n <= 20; n++ {
		tr := newTree(t, 256, 64)
		model := map[string]string{}
		next := int64(0)
		insert := func() error {
			k := ikey(next)
			next++
			err := tr.Insert(k, nil)
			if err == nil {
				model[string(k)] = ""
			}
			return err
		}
		requireFailedStepChangesNothing(t, fmt.Sprintf("ascending, write-back %d", n), tr, model, insert, failWrite, writes, n)
	}
}

// TestFailedDeleteChangesNothing sweeps a read fault over every read of
// a random Delete stream through a 4-frame pool, on two page sizes, each
// over a tree of a few hundred random entries: the Delete the fault fails
// changes nothing.
func TestFailedDeleteChangesNothing(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		for n := int64(1); n <= 240; n++ {
			tr := newTree(t, pageSize, 4)
			rng := rand.New(rand.NewSource(n))
			model := map[string]string{}
			for range 400 {
				k, v := ikey(rng.Int63n(600)), bytes.Repeat([]byte{'v'}, rng.Intn(12))
				if err := tr.Insert(k, v); err != nil {
					t.Fatal(err)
				}
				model[string(k)] = string(v)
			}
			del := func() error {
				k := ikey(rng.Int63n(600))
				ok, err := tr.Delete(k)
				if err == nil {
					if _, in := model[string(k)]; ok != in {
						t.Fatalf("Delete(%x) reported %v, the model %v", k, ok, in)
					}
					delete(model, string(k))
				}
				return err
			}
			name := fmt.Sprintf("page %d, read %d", pageSize, n)
			requireFailedStepChangesNothing(t, name, tr, model, del,
				func(n int64) *sim.FaultPlan { return &sim.FaultPlan{FailReadN: n} },
				func(s sim.Stats) int64 { return int64(s.Reads) }, n)
		}
	}
}

// requireFailedStepChangesNothing runs step, an operation on tr that
// keeps model up to date when it succeeds, until the n-th disk access
// that counted counts fails under the fault plan plan(n). The failing
// step must return the injected error, pin no frame and change nothing:
// the tree holds exactly the model, so SeekGE finds every key that
// iteration yields and Len agrees, and the tree's file has the pages and
// bytes it had before the step. Before each step the file is copied with
// no plan installed, and the plan is installed again for the accesses
// left.
func requireFailedStepChangesNothing(t *testing.T, name string, tr *Tree, model map[string]string,
	step func() error, plan func(n int64) *sim.FaultPlan, counted func(sim.Stats) int64, n int64) {
	t.Helper()
	disk := tr.pool.Disk()
	var before [][]byte
	for range 5000 {
		pages := filePages(t, tr)
		before = slices.Grow(before[:0], len(pages))[:len(pages)]
		for p, pg := range pages {
			before[p] = append(before[p][:0], pg...)
		}
		disk.SetFaultPlan(plan(n))
		start := counted(disk.Stats())
		err := step()
		disk.SetFaultPlan(nil)
		n -= counted(disk.Stats()) - start
		if err == nil {
			continue
		}
		if !errors.Is(err, sim.ErrInjected) {
			t.Fatalf("%s: the step returned %v", name, err)
		}
		if p := tr.pool.PinnedFrames(); p != 0 {
			t.Fatalf("%s: %d frames pinned after the failed step", name, p)
		}
		requireModel(t, tr, model)
		after := filePages(t, tr)
		if len(after) != len(before) {
			t.Fatalf("%s: the failed step left %d pages in the file, %d before it", name, len(after), len(before))
		}
		for p := range after {
			if !bytes.Equal(after[p], before[p]) {
				t.Fatalf("%s: the failed step changed page %d", name, p)
			}
		}
		return
	}
	t.Fatalf("%s: no step failed", name)
}

// TestWritesChargeChangedPages: once an Insert returns, flushing the pool
// writes exactly the pages it changed or added — a split's nodes and the
// parent that took the separator, no untouched level above — and after
// an Insert that failed, nothing.
func TestWritesChargeChangedPages(t *testing.T) {
	tr := newTree(t, 256, 256)
	rng := rand.New(rand.NewSource(5))
	disk := tr.pool.Disk()
	for i := range 3000 {
		before := filePages(t, tr)
		snap := make([][]byte, len(before))
		for p, pg := range before {
			snap[p] = bytes.Clone(pg)
		}
		if err := tr.Insert(ikey(rng.Int63n(1<<40)), bytes.Repeat([]byte{'v'}, rng.Intn(20))); err != nil {
			t.Fatal(err)
		}
		writes := disk.Stats().Writes
		if err := tr.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		changed := 0
		for p, pg := range filePages(t, tr) {
			if p >= len(snap) || !bytes.Equal(pg, snap[p]) {
				changed++
			}
		}
		if got := int(disk.Stats().Writes - writes); got != changed {
			t.Fatalf("insert %d: flushing wrote %d pages, the insert changed %d", i, got, changed)
		}
	}
	if tr.Height() < 3 {
		t.Fatalf("the tree reached height %d; the stream tested no split under a parent", tr.Height())
	}

	// A full root leaf whose split cannot get a page (the one other
	// frame holds a dirty page whose write-back fails) is left clean.
	small := newTree(t, 256, 2)
	for i := range int64(16) {
		if err := small.Insert(ikey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	disk = small.pool.Disk()
	if err := small.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	other := disk.CreateFile()
	_, fr, err := small.pool.NewPage(other)
	if err != nil {
		t.Fatal(err)
	}
	small.pool.Unpin(fr, true)
	disk.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
	err = small.Insert(ikey(16), nil)
	disk.SetFaultPlan(nil)
	if !errors.Is(err, sim.ErrInjected) || small.Height() != 1 {
		t.Fatalf("the split under a failing write-back: %v, height %d", err, small.Height())
	}
	writes := disk.Stats().Writes
	if err := small.pool.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := disk.Stats().Writes - writes; got != 1 {
		t.Fatalf("after the failed Insert flushing wrote %d pages, want only the other file's", got)
	}
}

// TestFaultedReadsFail: a read fault fails an ascending Insert whose
// rightmost leaf left the pool and a SeekGE at any of its reads, and a
// write fault at any of a three-level Build's writes fails it and gives
// every page it took back to the disk.
func TestFaultedReadsFail(t *testing.T) {
	tr := newTree(t, 256, 4)
	for i := range int64(200) {
		if err := tr.Insert(ikey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	disk := tr.pool.Disk()
	for _, step := range []func() error{
		func() error { return tr.Insert(ikey(1000), nil) },
		func() error { _, err := tr.SeekGE(ikey(7)); return err },
	} {
		if err := tr.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tr.pool.Invalidate()
		disk.SetFaultPlan(&sim.FaultPlan{FailReadN: 1})
		err := step()
		disk.SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) || tr.pool.PinnedFrames() != 0 {
			t.Fatalf("under a read fault: %v, %d frames pinned", err, tr.pool.PinnedFrames())
		}
	}
	// A fault at any read of a SeekGE fails it, also at the read of the
	// next leaf, where a key past the end of its leaf steps on.
	cold := func() {
		t.Helper()
		if err := tr.pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		tr.pool.Invalidate()
	}
	for i := range int64(200) {
		probe := append(ikey(i), 0)
		cold()
		before := disk.Stats().Reads
		if _, err := tr.SeekGE(probe); err != nil {
			t.Fatal(err)
		}
		reads := int64(disk.Stats().Reads - before)
		for n := int64(1); n <= reads; n++ {
			cold()
			disk.SetFaultPlan(&sim.FaultPlan{FailReadN: n})
			_, err := tr.SeekGE(probe)
			disk.SetFaultPlan(nil)
			if !errors.Is(err, sim.ErrInjected) || tr.pool.PinnedFrames() != 0 {
				t.Fatalf("SeekGE past key %d under a fault at read %d of %d: %v, %d frames pinned", i, n, reads, err, tr.pool.PinnedFrames())
			}
		}
	}

	build := func() error {
		built, err := Build(tr.pool, 500, func(i int) ([]byte, []byte) { return ikey(int64(i)), nil })
		if err == nil && built.Height() != 3 {
			t.Fatalf("the build reached height %d; it tested no write above the first internal level", built.Height())
		}
		return err
	}
	before := disk.Stats().Writes
	if err := build(); err != nil {
		t.Fatal(err)
	}
	writes := int64(disk.Stats().Writes - before)
	store := disk.StoreBytes()
	for n := int64(1); n <= writes; n++ {
		disk.SetFaultPlan(&sim.FaultPlan{FailWriteN: n})
		err := build()
		disk.SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) || disk.StoreBytes() != store {
			t.Fatalf("Build under a fault at write %d of %d: %v, the store grew by %d bytes", n, writes, err, disk.StoreBytes()-store)
		}
	}
}
