package costmodel

import (
	"testing"
	"time"
)

// paperStats reproduces the TPC-H lineitem scale used by Figure 3:
// ~18M rows, ~136-byte tuples on 8K pages (~60 tups/page), height-3 tree.
func paperStats() (Hardware, TableStats) {
	return DefaultHardware(), TableStats{
		TupsPerPage: 60,
		TotalTups:   18e6,
		BTreeHeight: 3,
	}
}

func TestScanCost(t *testing.T) {
	h, ts := paperStats()
	got := Scan(h, ts)
	// 300k pages * 0.078ms = 23.4s.
	want := 23400 * time.Millisecond
	if got < want-time.Second || got > want+time.Second {
		t.Errorf("scan = %v, want ~%v", got, want)
	}
}

func TestPipelinedExplodesQuickly(t *testing.T) {
	h, ts := paperStats()
	p := PairStats{UTups: 7000, CTups: 7000, CPerU: 3}
	// Even one lookup costs u_tups * height seeks: far beyond a scan.
	if got := PipelinedIndex(h, ts, p, 1); got < Scan(h, ts) {
		t.Errorf("pipelined %v should exceed scan %v for 7000 matching tuples", got, Scan(h, ts))
	}
}

func TestSortedIndexCorrelatedVsUncorrelated(t *testing.T) {
	h, ts := paperStats()
	// Correlated (shipdate/receiptdate): c_per_u ~ 3 distinct receipt
	// dates per ship date.
	corr := PairStats{UTups: 7000, CTups: 7000, CPerU: 3}
	// Uncorrelated (clustered on orderkey): each shipdate's 7000 tuples
	// land on ~7000 distinct clustered values.
	unc := PairStats{UTups: 7000, CTups: 7000, CPerU: 7000}

	nc := SortedIndex(h, ts, corr, 10)
	nu := SortedIndex(h, ts, unc, 10)
	if nc >= nu {
		t.Errorf("correlated %v should beat uncorrelated %v", nc, nu)
	}
	// Uncorrelated must cap at scan cost (the paper's Figure 3 plateau).
	if nu != Scan(h, ts) {
		t.Errorf("uncorrelated 10-lookup cost %v should hit scan cap %v", nu, Scan(h, ts))
	}
	// The correlated case grows linearly in n_lookups below the cap.
	one := SortedIndex(h, ts, corr, 1)
	five := SortedIndex(h, ts, corr, 5)
	if five < 4*one || five > 6*one {
		t.Errorf("linear growth violated: 1->%v 5->%v", one, five)
	}
}

func TestSortedIndexScanCap(t *testing.T) {
	h, ts := paperStats()
	p := PairStats{UTups: 7000, CTups: 7000, CPerU: 7000}
	for _, n := range []int{1, 10, 100} {
		if got := SortedIndex(h, ts, p, n); got > Scan(h, ts) {
			t.Errorf("n=%d: %v exceeds scan cap", n, got)
		}
	}
}

func TestCPagesSmallClusteredDomain(t *testing.T) {
	// Few-valued clustered attribute: c_per_u small but c_pages huge —
	// the gender example from Section 5.3.
	h, ts := paperStats()
	gender := PairStats{UTups: 9e6, CTups: 9e6, CPerU: 2}
	got := SortedIndex(h, ts, gender, 1)
	// Scanning both genders' ranges is the whole table: cap at scan.
	if got != Scan(h, ts) {
		t.Errorf("few-valued clustered domain should cost a scan, got %v", got)
	}
	if cp := gender.CPages(ts); cp < 100000 {
		t.Errorf("c_pages = %v, expected huge", cp)
	}
}

func TestCMLookupMatchesSortedShape(t *testing.T) {
	h, ts := paperStats()
	cm := CMStats{CPerU: 3, PagesPerCBucket: 10}
	one := CMLookup(h, ts, cm, 1)
	ten := CMLookup(h, ts, cm, 10)
	if ten < 9*one || ten > 11*one {
		t.Errorf("CM cost not linear: %v -> %v", one, ten)
	}
	// Wider buckets only add sequential I/O: going 1 -> 40 pages per
	// bucket must cost ~39 * 0.078ms per bucket visit, not reseeks.
	narrow := CMLookup(h, ts, CMStats{CPerU: 2, PagesPerCBucket: 1}, 1)
	wide := CMLookup(h, ts, CMStats{CPerU: 2, PagesPerCBucket: 40}, 1)
	delta := wide - narrow
	want := time.Duration(2 * 39 * float64(h.SeqPageCost))
	if delta < want/2 || delta > want*2 {
		t.Errorf("bucket widening delta = %v, want ~%v", delta, want)
	}
	// And CM cost is also capped at scan.
	huge := CMLookup(h, ts, CMStats{CPerU: 1e6, PagesPerCBucket: 100}, 100)
	if huge != Scan(h, ts) {
		t.Errorf("CM cost should cap at scan, got %v", huge)
	}
}

func TestZeroStats(t *testing.T) {
	h := DefaultHardware()
	var ts TableStats
	if Scan(h, ts) != 0 {
		t.Error("empty table scan should be 0")
	}
	if (PairStats{}).CPages(ts) != 0 {
		t.Error("CPages of empty stats should be 0")
	}
}

func TestTable3Reproduction(t *testing.T) {
	// Table 3 of the paper: I/O cost of an SX6-style query (2 fieldID
	// values) as clustered bucketing widens. With c_per_u=1 and about
	// 48 pages per fieldID at bucket size 1, widening to 40 pages/bucket
	// adds purely sequential reads. The paper's numbers: 96 pages ->
	// 15.34ms, 160 pages -> 19.5ms. Our model: 2 lookups * 1 bucket *
	// (5.5ms*height + 0.078*pages/bucket).
	h, _ := paperStats()
	ts := TableStats{TupsPerPage: 100, TotalTups: 2e7, BTreeHeight: 1}
	base := CMLookup(h, ts, CMStats{CPerU: 1, PagesPerCBucket: 48}, 2)
	wide := CMLookup(h, ts, CMStats{CPerU: 1, PagesPerCBucket: 80}, 2)
	// base: 2*(5.5 + 48*0.078) = 18.5ms; paper reports 15.34 with
	// height folded differently — what matters is the delta shape:
	// +64 pages sequential = +5ms.
	delta := wide - base
	want := time.Duration(2 * 32 * float64(h.SeqPageCost))
	if delta < want-time.Millisecond || delta > want+time.Millisecond {
		t.Errorf("bucket widening delta = %v, want ~%v", delta, want)
	}
}
