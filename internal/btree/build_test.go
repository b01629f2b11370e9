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

// TestFailedInsertKeepsLen sweeps a write fault over every eviction of a
// random insert stream into a 4-frame pool, on two page sizes: the
// failing Insert returns the injected error, pins no frame, and leaves
// Len equal to the entries the tree yields — every key inserted before
// it, and its own key only if a leaf took it. (A split that failed after
// counting its entry, or after the replace path had removed the old
// one, left Len one off.)
func TestFailedInsertKeepsLen(t *testing.T) {
	for _, pageSize := range []int{256, 512} {
		for n := int64(1); n <= 240; n++ {
			tr := newTree(t, pageSize, 4)
			disk := tr.pool.Disk()
			rng := rand.New(rand.NewSource(n))
			model := map[string]string{}
			disk.SetFaultPlan(&sim.FaultPlan{FailWriteN: n})
			var err error
			var failed kv
			for i := 0; err == nil && i < 5000; i++ {
				// A key space small enough that a share of the inserts
				// replace, with values of other lengths.
				e := kv{ikey(rng.Int63n(600)), bytes.Repeat([]byte{'v'}, rng.Intn(12))}
				if err = tr.Insert(e.k, e.v); err == nil {
					model[string(e.k)] = string(e.v)
				} else {
					failed = e
				}
			}
			disk.SetFaultPlan(nil)
			if !errors.Is(err, sim.ErrInjected) {
				t.Fatalf("page %d, write %d: Insert returned %v", pageSize, n, err)
			}
			if p := tr.pool.PinnedFrames(); p != 0 {
				t.Fatalf("page %d, write %d: %d frames pinned after the failed Insert", pageSize, n, p)
			}
			// The entries, in order, must be the model's, with the failed
			// Insert's entry in place of its key's earlier one when a leaf
			// took it. (Iteration follows the leaf chain: a failed internal
			// split leaves the new right node unreachable from the root,
			// so a descent can miss keys that iteration still yields.)
			it, err := tr.SeekFirst()
			if err != nil {
				t.Fatal(err)
			}
			yielded := 0
			for ; it.Valid(); yielded++ {
				k, v := string(it.Key()), string(it.vals[it.idx])
				if k == string(failed.k) && v == string(failed.v) {
					model[k] = v
				}
				if want, ok := model[k]; !ok || v != want {
					t.Fatalf("page %d, write %d: the tree yields %x=%q, the model %q (%v)", pageSize, n, k, v, want, ok)
				}
				if err := it.Next(); err != nil {
					t.Fatal(err)
				}
			}
			if yielded != len(model) || tr.Len() != int64(yielded) {
				t.Fatalf("page %d, write %d: Len %d after the failed Insert; the tree yields %d entries, the model has %d",
					pageSize, n, tr.Len(), yielded, len(model))
			}
		}
	}
}
