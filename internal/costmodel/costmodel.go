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
// The CM variant applies cost_sorted at clustered-bucket granularity.
// The engine resolves a bucket to its heap pages through a
// memory-resident bucket→page directory, not through the clustered
// index, so the btree_height factor drops out:
//
//	cost_cm           = min(n_lookups * c_per_u * (seek_cost
//	                      + seq_page_cost*pages_per_bucket), cost_scan)
//
// That is the statistical form (CMLookup), for the advisor and the
// figures, which price designs that do not exist yet. For a CM that does
// exist the planner probes it — CM and directory are both in memory — and
// prices the page runs the scan will really sweep:
//
//	cost_pages        = min(runs * seek_cost + pages * seq_page_cost,
//	                      cost_scan)
//
// (PageRuns; also cm-agg's hybrid sweep of its impure buckets.)
//
// A predicate on the clustering attribute itself needs no correlation
// statistics either: the bucket bounds say which buckets the probed key
// ranges span, the page directory which pages those hold, and the path
// is priced like a live CM's, by PageRuns.
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

// CMLookup predicts a CM-driven lookup from correlation statistics: per
// CM key, c_per_u clustered buckets are each reached with one seek and
// swept sequentially. Like SortedIndex it is capped by the table scan
// cost. The CM probe and the bucket→page directory are memory-resident
// and free at this model's granularity — no clustered-index descent is
// paid. This is the advisor's and the figures' formula, for designs that
// do not exist yet; a live CM is costed from its actual pages (PageRuns).
func CMLookup(h Hardware, t TableStats, c CMStats, nLookups int) time.Duration {
	return capped(float64(nLookups)*c.CPerU*
		(ms(h.SeekCost)+ms(h.SeqPageCost)*c.PagesPerCBucket), h, t)
}

// PageRuns predicts a physical-order sweep of heap pages known before
// execution: `runs` maximal runs of nearby pages, each opened by one
// seek, reading `pages` pages in all, capped by the scan. The planner
// costs the CM scan and cm-agg's hybrid sweep with it, from the page
// runs the bucket→page directory yields for the probed buckets.
func PageRuns(h Hardware, t TableStats, runs int, pages int64) time.Duration {
	return capped(float64(runs)*ms(h.SeekCost)+float64(pages)*ms(h.SeqPageCost), h, t)
}
