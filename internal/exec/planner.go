package exec

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/table"
)

// Method identifies an access path.
type Method int

// The access paths the engine can choose among.
const (
	MethodTableScan Method = iota
	MethodPipelined
	MethodSorted
	MethodCM
	// MethodClustered probes the clustered index with predicates on the
	// leading clustering column(s) and sweeps the RIDs' pages in
	// physical order — the sorted-scan executor over t.Clustered().
	MethodClustered
)

// String names the method.
func (m Method) String() string {
	switch m {
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

// StatsProvider supplies the correlation statistics the planner's cost
// model needs. The facade caches these; tests can stub them.
type StatsProvider interface {
	// TableStats returns the Table 1 statistics for the table.
	TableStats(t *table.Table) costmodel.TableStats
	// PairStats returns the Table 2 statistics for the attribute set
	// uCols against the table's clustering attribute. ok=false when
	// unknown, which disqualifies index paths needing them.
	PairStats(t *table.Table, uCols []int) (costmodel.PairStats, bool)
}

// Plan is a chosen access path with its predicted cost.
type Plan struct {
	Method Method
	Index  *table.Index // for MethodPipelined / MethodSorted / MethodClustered
	CM     *core.CM     // for MethodCM
	Cost   time.Duration
}

// Run executes the plan with the given scan fan-out.
func (p Plan) Run(t *table.Table, q Query, workers int, fn RowFunc) error {
	switch p.Method {
	case MethodTableScan:
		return TableScan(t, q, workers, fn)
	case MethodPipelined:
		return PipelinedIndexScan(t, p.Index, q, workers, fn)
	case MethodSorted, MethodClustered:
		return SortedIndexScan(t, p.Index, q, workers, fn)
	case MethodCM:
		return CMScan(t, p.CM, q, workers, fn)
	default:
		return fmt.Errorf("exec: unknown method %v", p.Method)
	}
}

// ChoosePlan costs every applicable access path with the Section 4 model
// and returns the cheapest. A secondary index applies when its leading
// key column is predicated; the clustered index applies when the leading
// clustering column is (costed from the bucket directory alone — see
// clusteredSpan); a CM applies when at least one of its columns is
// predicated (false positives are filtered after the heap sweep) and is
// costed from the heap pages its probe resolves to (see SweepCost).
func ChoosePlan(t *table.Table, q Query, sp StatsProvider) Plan {
	h := hardwareFor(t)
	ts := sp.TableStats(t)
	best := Plan{Method: MethodTableScan, Cost: costmodel.Scan(h, ts)}

	consider := func(p Plan) {
		if p.Cost < best.Cost {
			best = p
		}
	}

	for _, ix := range t.Indexes() {
		p := q.IndexablePredOn(ix.Cols[0])
		if p == nil {
			continue
		}
		ps, ok := sp.PairStats(t, ix.Cols)
		if !ok {
			continue
		}
		n := p.NLookups()
		consider(Plan{
			Method: MethodSorted,
			Index:  ix,
			Cost:   costmodel.SortedIndex(h, ts, ps, n),
		})
		consider(Plan{
			Method: MethodPipelined,
			Index:  ix,
			Cost:   costmodel.PipelinedIndex(h, ts, ps, n),
		})
	}

	if runs, buckets := clusteredSpan(t, q); buckets > 0 {
		// One bucket's share of the scan's reads: its heap pages plus
		// its slice of the clustered index the RIDs come from.
		pages := t.PagesPerCBucket() +
			float64(t.Clustered().Tree.PageCount())/float64(t.Buckets().NumBuckets())
		consider(Plan{
			Method: MethodClustered,
			Index:  t.Clustered(),
			Cost:   costmodel.ClusteredRange(h, ts, pages, runs, buckets),
		})
	}

	for _, cm := range t.CMs() {
		// The CM and the page directory are memory-resident, so the plan
		// probes them (as the paper's prototype resolves the CM before the
		// query is planned, Section 7.1) and costs the scan from the page
		// runs it will actually sweep — no c_per_u estimate needed.
		pages, err := cmPages(t, cm, q, false)
		if err != nil {
			continue // no predicate on the CM's columns
		}
		consider(Plan{Method: MethodCM, CM: cm, Cost: SweepCost(t, ts, pages)})
	}
	return best
}

// SweepCost predicts a physical-order sweep of the given sorted distinct
// heap pages, counted the way the sweep kernel reads them: pages closer than
// one seek's worth of sequential reads coalesce into a run that is read
// straight through, each run opens with one seek, and nothing costs
// more than the scan. It prices every path whose page list is known
// before execution — the CM scan and cm-agg's hybrid sweep, both
// resolved through the page directory without I/O.
func SweepCost(t *table.Table, ts costmodel.TableStats, pages []int64) time.Duration {
	runs, read := 0, int64(0)
	_ = forEachPageRun(pages, maxGapFor(t), func(lo, hi int64) (bool, error) {
		runs++
		read += hi - lo + 1
		return true, nil
	})
	return costmodel.PageRuns(hardwareFor(t), ts, runs, read)
}

// hardwareFor returns the cost model's two constants as the disk under t
// charges them, so every estimate — and the gap the sweep reads through
// (maxGapFor) — is priced on the disk the plan will run on: the paper's
// 5.5 ms / 0.078 ms unless the engine was configured otherwise.
func hardwareFor(t *table.Table) costmodel.Hardware {
	cfg := t.Pool().Disk().Config()
	return costmodel.Hardware{SeekCost: cfg.SeekCost, SeqPageCost: cfg.SeqPageCost}
}

// clusteredSpan locates the query's clustered-key probe ranges in the
// bucket directory: buckets is how many distinct clustered buckets the
// ranges span, runs how many maximal runs of adjacent buckets those
// form (one clustered-index descent each). Both are 0 when the
// clustered index does not apply — no Eq/IN/range predicate on the
// leading clustering column — or the table has no directory (never
// bulk-loaded: nothing memory-resident says where a key range lives).
// Only the directory is consulted — planning reads no page.
func clusteredSpan(t *table.Table, q Query) (runs, buckets int) {
	dir := t.Buckets()
	if q.IndexablePredOn(t.ClusteredCols()[0]) == nil || dir.NumBuckets() == 0 {
		return 0, 0
	}
	ranges, _ := indexProbeRanges(t.ClusteredCols(), q)
	spans := make([][2]int32, len(ranges))
	for i, r := range ranges {
		lo, hi := int32(0), int32(dir.NumBuckets()-1)
		if len(r.Lo) > 0 {
			lo = dir.Locate(r.Lo)
		}
		if len(r.Hi) > 0 {
			// Every clustered key carrying the prefix r.Hi sorts below
			// r.Hi ‖ 0xFF: a following column starts with a kind tag.
			hi = dir.Locate(append(append([]byte(nil), r.Hi...), 0xFF))
		}
		if hi < lo {
			hi = lo // empty interval: still one descent
		}
		spans[i] = [2]int32{lo, hi}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	end := int32(-2) // last bucket counted so far
	for _, sp := range spans {
		lo, hi := sp[0], sp[1]
		if lo > end+1 {
			runs++
		}
		if lo <= end {
			lo = end + 1
		}
		if hi >= lo {
			buckets += int(hi-lo) + 1
			end = hi
		}
	}
	return runs, buckets
}

// ExactStats is a StatsProvider computing exact pair statistics with
// table scans, caching them per table and attribute set. Fine for tests
// and moderate tables; production advisors use the sampling estimators
// instead. Table statistics are O(1) and read live on every plan, so
// heap growth (and a bulk load) shows in the next estimate. Safe for
// concurrent use: concurrent planners share one cache under a mutex.
type ExactStats struct {
	mu      sync.Mutex
	cachePS map[*table.Table]map[string]costmodel.PairStats
}

// NewExactStats creates an empty provider.
func NewExactStats() *ExactStats {
	return &ExactStats{cachePS: make(map[*table.Table]map[string]costmodel.PairStats)}
}

// TableStats implements StatsProvider, reading the table's current
// page count, tuple count and clustered tree height.
func (e *ExactStats) TableStats(t *table.Table) costmodel.TableStats {
	st := t.Stats()
	return costmodel.TableStats{
		TupsPerPage: st.TupsPerPage,
		TotalTups:   float64(st.TotalTups),
		BTreeHeight: float64(st.BTreeHeight),
	}
}

// Forget drops the table's cached pair statistics; the facade calls it
// after a bulk load, which invalidates anything computed before it.
func (e *ExactStats) Forget(t *table.Table) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.cachePS, t)
}

// PairStats implements StatsProvider. The mutex is held across the
// computation so concurrent first queries on a cold cache scan the
// table once, not once each.
func (e *ExactStats) PairStats(t *table.Table, uCols []int) (costmodel.PairStats, bool) {
	key := fmt.Sprint(uCols)
	e.mu.Lock()
	defer e.mu.Unlock()
	if ps, ok := e.cachePS[t][key]; ok {
		return ps, true
	}
	pc, err := t.PairStats(uCols)
	if err != nil {
		return costmodel.PairStats{}, false
	}
	ps := costmodel.PairStats{
		UTups: pc.UTups(),
		CTups: pc.CTups(),
		CPerU: pc.CPerU(),
	}
	if e.cachePS[t] == nil {
		e.cachePS[t] = make(map[string]costmodel.PairStats)
	}
	e.cachePS[t][key] = ps
	return ps, true
}
