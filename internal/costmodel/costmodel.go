// Package costmodel implements the paper's analytical cost model
// (Section 4) — to our knowledge the first secondary-index cost model
// that embraces data correlations via the c_per_u statistic.
//
// All formulas translate page-access patterns into time using the two
// hardware constants of Table 1:
//
//	cost_scan         = seq_page_cost * p
//	cost_uncorrelated = n_lookups * u_tups * seek_cost * btree_height
//	c_pages           = c_tups / tups_per_page
//	cost_sorted       = min(n_lookups * c_per_u * (seek_cost*btree_height
//	                      + seq_page_cost*c_pages), cost_scan)
//
// The CM variant applies cost_sorted at clustered-bucket granularity:
// each CM lookup yields c_per_u clustered buckets, each requiring one
// clustered-index descent plus a sequential sweep of the bucket's pages.
//
// A predicate on the clustering attribute itself is the c_per_u = 1
// case — the CM formula under the identity mapping — and needs no
// correlation statistics at all: the clustered bucket directory says
// which buckets the probed key ranges span (see ClusteredRange).
package costmodel

import (
	"time"

	"repro/internal/sim"
)

// Hardware holds the I/O constants (Table 1).
type Hardware struct {
	SeekCost    time.Duration
	SeqPageCost time.Duration
}

// DefaultHardware returns the paper's measured values: 5.5 ms seek,
// 0.078 ms sequential page read.
func DefaultHardware() Hardware {
	return Hardware{SeekCost: sim.DefaultSeekCost, SeqPageCost: sim.DefaultSeqPageCost}
}

// TableStats are the per-table statistics of Table 1.
type TableStats struct {
	TupsPerPage float64
	TotalTups   float64
	BTreeHeight float64
}

// Pages returns the heap page count implied by the statistics.
func (t TableStats) Pages() float64 {
	if t.TupsPerPage <= 0 {
		return 0
	}
	return t.TotalTups / t.TupsPerPage
}

// PairStats are the per-attribute-pair statistics of Tables 1 and 2.
type PairStats struct {
	UTups float64 // avg tuples per Au value
	CTups float64 // avg tuples per Ac value
	CPerU float64 // avg distinct Ac values per Au value
}

// CPages returns c_tups/tups_per_page: pages scanned per clustered value.
func (p PairStats) CPages(t TableStats) float64 {
	if t.TupsPerPage <= 0 {
		return 0
	}
	return p.CTups / t.TupsPerPage
}

func dur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// Scan predicts a full sequential table scan.
func Scan(h Hardware, t TableStats) time.Duration {
	return dur(ms(h.SeqPageCost) * t.Pages())
}

// capped converts a cost in milliseconds to a duration, bounded by the
// sequential scan cost: no heap-visiting path reads more than every
// page once (the min(..., cost_scan) term of the model).
func capped(costMs float64, h Hardware, t TableStats) time.Duration {
	if scan := ms(h.SeqPageCost) * t.Pages(); costMs > scan {
		costMs = scan
	}
	return dur(costMs)
}

// PipelinedIndex predicts a pipelined (unsorted) secondary index scan,
// which seeks for every matching tuple: n_lookups * u_tups * seek_cost *
// btree_height.
func PipelinedIndex(h Hardware, t TableStats, p PairStats, nLookups int) time.Duration {
	return dur(float64(nLookups) * p.UTups * ms(h.SeekCost) * t.BTreeHeight)
}

// SortedIndex predicts a sorted (bitmap-style) secondary index scan in
// the presence of correlations, capped by the sequential scan cost.
func SortedIndex(h Hardware, t TableStats, p PairStats, nLookups int) time.Duration {
	cPages := p.CPages(t)
	return capped(float64(nLookups)*p.CPerU*
		(ms(h.SeekCost)*t.BTreeHeight+ms(h.SeqPageCost)*cPages), h, t)
}

// CMStats describe a correlation map design at clustered-bucket
// granularity.
type CMStats struct {
	CPerU           float64 // clustered buckets per (bucketed) CM key
	PagesPerCBucket float64 // heap pages spanned by one clustered bucket
}

// CMLookup predicts a CM-driven lookup: per CM key, c_per_u clustered
// buckets are located through the clustered index (btree_height seeks
// each) and swept sequentially. Like SortedIndex it is capped by the
// table scan cost. The CM probe itself is memory-resident and free at
// this model's granularity.
func CMLookup(h Hardware, t TableStats, c CMStats, nLookups int) time.Duration {
	return capped(float64(nLookups)*c.CPerU*
		(ms(h.SeekCost)*t.BTreeHeight+ms(h.SeqPageCost)*c.PagesPerCBucket), h, t)
}

// ClusteredRange predicts a clustered-index scan driven by predicates
// on the clustering attribute itself: CMLookup under the identity
// mapping (c_per_u = 1), with the clustered buckets read off the
// bucket directory instead of a correlation map. The probed key ranges
// span `buckets` clustered buckets forming `runs` maximal runs of
// adjacent buckets; each run is one clustered-index descent, each
// bucket a sequential sweep of its pages — so a point or IN probe costs
// exactly CMLookup(c_per_u = 1, n_lookups = buckets), while a range pays
// one descent for the whole interval plus the pages of every bucket it
// spans, and a range spanning all buckets costs a scan plus a descent
// and hits the cap.
func ClusteredRange(h Hardware, t TableStats, pagesPerCBucket float64, runs, buckets int) time.Duration {
	return capped(float64(runs)*ms(h.SeekCost)*t.BTreeHeight+
		float64(buckets)*ms(h.SeqPageCost)*pagesPerCBucket, h, t)
}

// CMAggregate predicts the index-only aggregation path (cm-agg): the
// pure part of the answer folds from memory-resident per-entry
// statistics — free at this model's granularity, the same treatment
// CMLookup gives the probe — and each impure clustered bucket costs one
// clustered-index descent plus a sequential sweep of its pages. A fully
// pure plan therefore costs zero I/O, the term that makes covered
// aggregates always beat heap-visiting paths; like every other formula
// it is capped by the sequential scan cost.
func CMAggregate(h Hardware, t TableStats, c CMStats, nImpureBuckets int) time.Duration {
	return capped(float64(nImpureBuckets)*
		(ms(h.SeekCost)*t.BTreeHeight+ms(h.SeqPageCost)*c.PagesPerCBucket), h, t)
}
