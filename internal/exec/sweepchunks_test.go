package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/heap"
	"repro/internal/value"
)

// refScanChunks is the chunk count the executor used before page runs
// became the unit of fan-out, kept as the reference for what a page range
// of at least workers*minChunkPages pages must still be cut into. Below
// that size its floor-to-workers override cut chunks of one or two pages
// — the defect sweepChunks removes — so it is a reference only above it.
func refScanChunks(workers, pages int) int {
	n := workers * oversplit
	if max := pages / minChunkPages; n > max {
		n = max
	}
	if n < workers {
		n = workers
	}
	return n
}

// checkSweepChunks holds sweepChunks(ps, workers, maxGap) to its contract
// and returns the chunks (a set left whole as its one chunk).
func checkSweepChunks(t testing.TB, ps PageSet, workers int, maxGap int64) [][2]int {
	t.Helper()
	n := ps.len()
	chunks := sweepChunks(ps, workers, maxGap)
	if chunks == nil && n > 0 {
		chunks = [][2]int{{0, n}}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("sweepChunks(%+v, workers %d, maxGap %d) = %v: %s", ps, workers, maxGap, chunks, fmt.Sprintf(format, args...))
	}

	// The chunks concatenate to the input, in order, none empty.
	at := 0
	for _, c := range chunks {
		if c[0] != at || c[1] <= c[0] {
			fail("chunk %v does not continue at %d with at least one page", c, at)
		}
		at = c[1]
	}
	if at != n {
		fail("chunks cover %d of %d pages", at, n)
	}
	if len(chunks) > max(workers, 1)*oversplit {
		fail("%d chunks, more than workers*oversplit", len(chunks))
	}
	if workers <= 1 && len(chunks) > 1 {
		fail("one worker has nothing to fan out over")
	}

	// [runStart[i], runEndAt[i]) is the run position i lies in, found
	// without the kernel's coalescing code.
	runStart := make([]int, n)
	runEndAt := make([]int, n)
	for i := 0; i < n; i++ {
		if i > 0 && (ps.n > 0 || ps.list[i]-ps.list[i-1] <= maxGap) {
			runStart[i] = runStart[i-1]
		} else {
			runStart[i] = i
		}
	}
	for i := n - 1; i >= 0; i-- {
		if i+1 < n && runStart[i+1] == runStart[i] {
			runEndAt[i] = runEndAt[i+1]
		} else {
			runEndAt[i] = i + 1
		}
	}
	// A cut is free on a run boundary. Inside a run it must leave at
	// least minChunkPages of that run on both sides, up to the next cut
	// or the run's end (so the run holds 2*minChunkPages or more).
	for i := 0; i+1 < len(chunks); i++ {
		cut := chunks[i][1]
		if runStart[cut] == cut {
			continue
		}
		before := cut - max(chunks[i][0], runStart[cut])
		after := min(chunks[i+1][1], runEndAt[cut]) - cut
		if before < minChunkPages || after < minChunkPages {
			fail("cut at %d falls inside run [%d, %d) leaving pieces of %d and %d pages", cut, runStart[cut], runEndAt[cut], before, after)
		}
	}

	if ps.n > 0 && workers > 1 && n >= workers*minChunkPages {
		ref := chunkSlices(n, refScanChunks(workers, n))
		if fmt.Sprint(chunks) != fmt.Sprint(ref) {
			fail("a %d-page range was cut differently from before: %v", n, ref)
		}
	}
	return chunks
}

// pageSeq returns the n consecutive pages from lo.
func pageSeq(lo, n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = lo + int64(i)
	}
	return out
}

// pagesFromGaps builds a sorted distinct page list whose i-th gap is
// 1 + gaps[i]: every byte value is a legal list.
func pagesFromGaps(first int64, gaps []byte) []int64 {
	pages := make([]int64, 0, len(gaps)+1)
	pages = append(pages, first)
	for _, g := range gaps {
		pages = append(pages, pages[len(pages)-1]+1+int64(g))
	}
	return pages
}

// TestSweepChunks pins the splitter by property: named shapes around the
// thresholds, then generated lists and ranges at workers 1–9 and maxGap
// 1–100.
func TestSweepChunks(t *testing.T) {
	cat := func(lists ...[]int64) []int64 {
		var out []int64
		for _, l := range lists {
			out = append(out, l...)
		}
		return out
	}
	for _, c := range []struct {
		name    string
		ps      PageSet
		workers int
		maxGap  int64
		want    string
	}{
		{"empty", PageSet{}, 4, 70, "[]"},
		{"one page", PageSet{list: []int64{9}}, 4, 70, "[[0 1]]"},
		{"the benchmark's point probe: one short run", PageSet{list: pageSeq(40, 5)}, 2, 70, "[[0 5]]"},
		{"15-page run stays whole", PageSet{list: pageSeq(40, 15)}, 9, 70, "[[0 15]]"},
		{"16-page run may be halved", PageSet{list: pageSeq(40, 16)}, 2, 70, "[[0 8] [8 16]]"},
		{"15-page range stays whole", PageSet{lo: 3, n: 15}, 4, 70, "[[0 15]]"},
		{"17-page range", PageSet{lo: 3, n: 17}, 4, 70, "[[0 9] [9 17]]"},
		{"gap inside maxGap is one run", PageSet{list: cat(pageSeq(0, 5), pageSeq(60, 5))}, 4, 70, "[[0 10]]"},
		{"gap past maxGap is a free cut", PageSet{list: cat(pageSeq(0, 5), pageSeq(100, 5))}, 4, 70, "[[0 5] [5 10]]"},
		{"run plus a tail page", PageSet{list: cat(pageSeq(0, 14), []int64{500})}, 4, 70, "[[0 14] [14 15]]"},
		{"three short runs", PageSet{list: cat(pageSeq(0, 3), pageSeq(200, 4), pageSeq(400, 2))}, 4, 70, "[[0 3] [3 7] [7 9]]"},
		{"spare cuts go to the long run", PageSet{list: cat(pageSeq(0, 4), pageSeq(200, 32))}, 2, 70, "[[0 4] [4 12] [12 20] [20 28] [28 36]]"},
		{"one worker never cuts", PageSet{lo: 0, n: 1334}, 1, 70, "[[0 1334]]"},
		{"more runs than chunks are grouped", PageSet{list: pagesFromGaps(0, []byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})}, 1 + 1, 5,
			"[[0 2] [2 3] [3 5] [5 6] [6 8] [8 9] [9 11] [11 12]]"},
	} {
		if got := fmt.Sprint(checkSweepChunks(t, c.ps, c.workers, c.maxGap)); got != c.want {
			t.Errorf("%s: chunks %s, want %s", c.name, got, c.want)
		}
	}

	// Every table scan of the benchmark's 1 334-page fixture, and ranges
	// around each worker count's threshold, are cut as before.
	for workers := 2; workers <= 9; workers++ {
		for _, n := range []int{workers * minChunkPages, workers*minChunkPages + 1, workers * minChunkPages * oversplit, 1334, 100000} {
			checkSweepChunks(t, PageSet{lo: 7, n: int64(n)}, workers, 70)
		}
	}

	rng := rand.New(rand.NewSource(20))
	for i := 0; i < 4000; i++ {
		workers, maxGap := 1+rng.Intn(9), int64(1+rng.Intn(100))
		n := rng.Intn(400)
		if rng.Intn(4) == 0 {
			checkSweepChunks(t, PageSet{lo: int64(rng.Intn(50)), n: int64(n)}, workers, maxGap)
			continue
		}
		// Mostly-dense lists with a tunable share of wide gaps: from a
		// handful of long runs to more runs than the chunk budget.
		wide := rng.Intn(40)
		gaps := make([]byte, n)
		for j := range gaps {
			if rng.Intn(100) < wide {
				gaps[j] = byte(rng.Intn(256))
			} else {
				gaps[j] = byte(rng.Intn(3))
			}
		}
		checkSweepChunks(t, PageSet{list: pagesFromGaps(int64(rng.Intn(50)), gaps)}, workers, maxGap)
	}
}

// FuzzSweepChunks feeds the splitter arbitrary page lists (gaps holds
// each gap to the next page, minus one) and page ranges.
func FuzzSweepChunks(f *testing.F) {
	f.Add([]byte{}, uint8(4), uint8(70), false)
	f.Add([]byte{0, 0, 0, 0}, uint8(2), uint8(70), false)                               // the benchmark's point probe
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(9), uint8(70), false) // 15 pages
	f.Add(make([]byte, 15), uint8(2), uint8(70), false)                                 // 16 pages
	f.Add([]byte{0, 0, 200, 0, 0, 0, 200, 0}, uint8(4), uint8(70), false)               // three runs
	f.Add([]byte{0, 0, 0, 0, 69, 70, 0, 0}, uint8(4), uint8(70), false)                 // a gap of maxGap, one past it
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(1), uint8(5), false)
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(2), uint8(5), false)
	f.Add(make([]byte, 1333), uint8(2), uint8(70), true)
	f.Add(make([]byte, 71), uint8(9), uint8(1), true)
	f.Fuzz(func(t *testing.T, gaps []byte, workers, maxGap uint8, asRange bool) {
		w, g := 1+int(workers%9), 1+int64(maxGap%100)
		if asRange {
			checkSweepChunks(t, PageSet{lo: 11, n: int64(len(gaps))}, w, g)
			return
		}
		checkSweepChunks(t, PageSet{list: pagesFromGaps(3, gaps)}, w, g)
	})
}

// TestSweepFanOutDecision pins the one decision Sweep takes, read
// off the observer's chunk count: a set the splitter cannot cut, or one
// worker, always runs inline; a set of 2*minChunkPages pages or more
// fans out cached or not; a few short runs fan out only while one of
// their pages is missing from the buffer pool.
func TestSweepFanOutDecision(t *testing.T) {
	db := buildTestDB(t, 6000, 42, 0)
	pool := db.tbl.Pool()
	if n := db.tbl.Heap().NumPages(); n < 120 {
		t.Fatalf("fixture has %d heap pages; the page lists below need 120", n)
	}
	twoRuns := append(pageSeq(3, 5), pageSeq(100, 5)...) // 93 pages apart: past maxGap (70)
	for _, c := range []struct {
		name       string
		ps         PageSet
		workers    int
		warm, cold int64 // chunks with every page cached / with none
	}{
		{"one short run", PageSet{list: pageSeq(3, 15)}, 4, 0, 0},
		{"two short runs", PageSet{list: twoRuns}, 4, 0, 2},
		{"two short runs, one worker", PageSet{list: twoRuns}, 1, 0, 0},
		{"one long run", PageSet{list: pageSeq(3, 16)}, 4, 2, 2},
		{"short run and a long one", PageSet{list: append(pageSeq(3, 5), pageSeq(100, 16)...)}, 4, 3, 3},
		{"table scan", PageSet{n: db.tbl.Heap().NumPages()}, 2, 8, 8},
	} {
		for _, state := range []string{"warm", "cold"} {
			want := c.warm
			if state == "cold" {
				want = c.cold
				if err := pool.FlushAll(); err != nil {
					t.Fatal(err)
				}
				pool.Invalidate()
			}
			obs := &ScanObs{}
			if state == "warm" {
				if err := newLazyScan(db.tbl, Query{}.asOr()).sweep(db.tbl, c.ps, nil, func(heap.RID, value.Row) (bool, bool) { return true, true }); err != nil {
					t.Fatal(err)
				}
			}
			rows := 0
			oq := Query{Obs: obs}.asOr()
			if err := SweepTuples(db.tbl, oq, c.ps, c.workers, DecodeTo(db.tbl.Schema(), oq, func(heap.RID, value.Row) bool { rows++; return true })); err != nil {
				t.Fatal(err)
			}
			if rows == 0 {
				t.Fatalf("%s: swept no rows; fixture broken", c.name)
			}
			if got := obs.Chunks.Load(); got != want || obs.Sweeps.Load() != 1 {
				t.Errorf("%s, pool %s: %d sweeps in %d chunks, want 1 sweep in %d", c.name, state, obs.Sweeps.Load(), got, want)
			}
		}
	}
}
