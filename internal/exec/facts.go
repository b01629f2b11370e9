package exec

import (
	"fmt"

	"repro/internal/costmodel"
	"repro/internal/table"
)

// Method identifies an access path.
type Method int

// The access paths the engine can choose among.
const (
	// MethodAuto names no path: a plan spec carrying it leaves the choice
	// to internal/plan's cost model, and a compiled plan reports it for
	// the shapes that are no single path (an OR union, cm-agg). No
	// executor runs it.
	MethodAuto Method = iota
	MethodTableScan
	MethodPipelined
	MethodSorted
	MethodCM
	// MethodClustered resolves predicates on the leading clustering
	// column(s) to clustered buckets through the bucket bounds and the
	// buckets to heap pages through the page directory, then sweeps the
	// pages in physical order (ProbeClustered): a CM scan with the
	// bounds in the CM's place.
	MethodClustered
)

// String names the method.
func (m Method) String() string {
	switch m {
	case MethodAuto:
		return "auto"
	case MethodTableScan:
		return "table-scan"
	case MethodPipelined:
		return "pipelined-index-scan"
	case MethodSorted:
		return "sorted-index-scan"
	case MethodCM:
		return "cm-scan"
	case MethodClustered:
		return "clustered-index-scan"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// StatsProvider supplies the correlation statistics internal/plan's cost
// model needs. The engine plans with ExactStats; tests can stub them.
type StatsProvider interface {
	// TableStats returns the Table 1 statistics for the table.
	TableStats(t *table.Table) costmodel.TableStats
	// PairStats returns the Table 2 statistics for the attribute set
	// uCols against the table's clustering attribute. ok=false when
	// unknown, which disqualifies index paths needing them.
	PairStats(t *table.Table, uCols []int) (costmodel.PairStats, bool)
}

// PageRuns counts a physical-order sweep of the given sorted distinct heap
// pages the way the sweep kernel reads them: pages closer than one seek's
// worth of sequential reads coalesce into a run that is read straight
// through (runEnd), so runs is the seeks the sweep pays and read the pages
// it transfers, gap pages included. It is what the planner prices every
// path whose page list is known before execution from — the CM scan and
// cm-agg's hybrid sweep, both resolved through the page directory without
// I/O.
func PageRuns(t *table.Table, pages []int64) (runs int, read int64) {
	_ = forEachPageRun(pages, maxGapFor(t), func(lo, hi int64) (bool, error) {
		runs++
		read += hi - lo + 1
		return true, nil
	})
	return runs, read
}

// Hardware returns the cost model's two constants as the disk under t
// charges them, so every estimate — and the gap the sweep reads through
// (maxGapFor) — is priced on the disk the plan will run on: the paper's
// 5.5 ms / 0.078 ms unless the engine was configured otherwise.
func Hardware(t *table.Table) costmodel.Hardware {
	cfg := t.Pool().Disk().Config()
	return costmodel.Hardware{SeekCost: cfg.SeekCost, SeqPageCost: cfg.SeqPageCost}
}

// clusteredBuckets locates the query's clustered-key probe ranges in the
// bucket bounds and returns the sorted distinct clustered buckets they
// span; ok is false when the clustered index does not apply — no
// Eq/IN/range predicate on the leading clustering column. A table never
// bulk-loaded has no bounds: every row is in bucket 0. Only memory is
// consulted.
func clusteredBuckets(t *table.Table, q Query) (buckets []int32, ok bool) {
	if q.IndexablePredOn(t.ClusteredCols()[0]) == nil {
		return nil, false
	}
	dir := t.Buckets()
	last := int32(max(dir.NumBuckets()-1, 0))
	for _, r := range indexProbeRanges(t.ClusteredCols(), q) {
		lo, hi := int32(0), last
		if len(r.Lo) > 0 {
			lo = dir.Locate(r.Lo)
		}
		if len(r.Hi) > 0 {
			// Every clustered key carrying the prefix r.Hi sorts below
			// r.Hi ‖ 0xFF: a following column starts with a kind tag.
			hi = dir.Locate(append(append([]byte(nil), r.Hi...), 0xFF))
		}
		for b := lo; b <= hi; b++ {
			buckets = append(buckets, b)
		}
	}
	return sortedDistinct(buckets), true
}

// ExactStats is the StatsProvider the engine plans with. Pair statistics
// are the exact ones each secondary index carries (table.Index.Pairs),
// counted in the scan that built it or by a bulk load, so planning reads
// no page for them. Table statistics are O(1) and read live on every
// plan, so heap growth (and a bulk load) shows in the next estimate. It
// holds no state: safe for concurrent use.
type ExactStats struct{}

// NewExactStats creates a provider.
func NewExactStats() *ExactStats { return &ExactStats{} }

// TableStats implements StatsProvider, reading the table's current
// page count, tuple count and the height of a packed dense B+Tree over
// its clustering key (table.Stats).
func (e *ExactStats) TableStats(t *table.Table) costmodel.TableStats {
	st := t.Stats()
	return costmodel.TableStats{
		TupsPerPage: st.TupsPerPage,
		TotalTups:   float64(st.TotalTups),
		BTreeHeight: float64(st.BTreeHeight),
	}
}

// PairStats implements StatsProvider with the statistics of the index
// whose columns are exactly uCols (table.Table.IndexPairs); ok is false
// when the table has no such index.
func (e *ExactStats) PairStats(t *table.Table, uCols []int) (costmodel.PairStats, bool) {
	p, ok := t.IndexPairs(uCols)
	return costmodel.PairStats{UTups: p.UTups, CTups: p.CTups, CPerU: p.CPerU}, ok
}
