package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/table"
)

// Optimize finalizes the tree: it chooses the access path
// (chooseAccess). The operator nodes EXPLAIN prints are described from
// that choice only when something asks for them (Explain). Optimize
// must run under the same shared table latch hold as Run.
func (tr *Tree) Optimize(sp exec.StatsProvider) error {
	if err := tr.chooseAccess(sp); err != nil {
		return err
	}
	tr.optimized = true
	return nil
}

// pricing is what one Optimize call prices paths with: the statistics
// provider, the table's Table 1 numbers, the two constants of the disk
// under it and the sequential scan's cost they imply, and the rows a
// sweep stops after (limit; -1 when it reads to the end).
type pricing struct {
	sp    exec.StatsProvider
	ts    costmodel.TableStats
	h     costmodel.Hardware
	scan  time.Duration
	limit int
}

// rowLimit returns the rows a plain unsorted select's access path stops
// after — its LIMIT, 0 for LIMIT 0, which reads nothing — or -1 for
// every other plan, whose access path reads to the end.
func (tr *Tree) rowLimit() int {
	spec := tr.spec
	switch {
	case spec.IsAggregate() || len(spec.OrderBy) > 0 || spec.Limit == 0:
		return -1
	case spec.Limit < 0:
		return 0
	default:
		return spec.Limit
	}
}

// firstRows caps cost, the price of sweeping read pages in runs runs
// for conjunction q of table t, at what the sweep pays when it stops
// after pr.limit rows, with the rows q is expected to match
// (expectedRows) spread evenly over those pages: it reads the
// ceil(limit × read / matches) pages that hold them, opening the same
// share of the runs (at least one, its seek). LIMIT 0 reads nothing. A
// sweep with no limit, or no estimate of its matches, keeps its price.
func (pr pricing) firstRows(cost time.Duration, runs int, read int64, t *table.Table, q exec.Query) time.Duration {
	switch {
	case pr.limit == 0:
		return 0
	case pr.limit < 0 || read <= 0:
		return cost
	}
	matches := pr.expectedRows(t, q)
	if matches <= 0 {
		return cost
	}
	need := math.Ceil(float64(pr.limit) * float64(read) / matches)
	if need >= float64(read) {
		return cost
	}
	opened := max(1, int(math.Ceil(float64(runs)*need/float64(read))))
	return min(cost, costmodel.PageRuns(pr.h, pr.ts, opened, int64(need)))
}

// expectedRows estimates the rows conjunction q matches: every tuple
// when it has no predicate, else the lookups of its most selective
// equality or IN predicate on a column whose pair statistics are known
// times that column's u_tups; 0 when nothing says.
func (pr pricing) expectedRows(t *table.Table, q exec.Query) float64 {
	if len(q.Preds) == 0 {
		return pr.ts.TotalTups
	}
	rows := 0.0
	for _, p := range q.Preds {
		if p.Op != exec.OpEq && p.Op != exec.OpIn {
			continue
		}
		ps, ok := pr.sp.PairStats(t, []int{p.Col})
		if n := float64(p.NLookups()) * ps.UTups; ok && n > 0 && (rows == 0 || n < rows) {
			rows = n
		}
	}
	return rows
}

// chooseAccess is the one place an access path is chosen. A forced
// method resolves to its structure, unpriced. Otherwise every disjunct
// takes the cheapest leg the Section 4 model finds (cheapestLeg) and the
// legs stand only while they are worth it: a single conjunction keeps a
// leg that beats the sequential scan; an OR keeps its union only when
// every disjunct found a probing leg and their summed costs beat one
// scan — a disjunct that would scan anyway makes per-disjunct probing
// pure overhead — and otherwise falls back to a single filtered scan of
// the whole heap. Last, an aggregate over one conjunction may lower onto
// a CM's bucket statistics (chooseCMAgg).
func (tr *Tree) chooseAccess(sp exec.StatsProvider) error {
	spec := tr.spec
	if spec.Method != exec.MethodAuto {
		l, err := tr.forcedLeg(spec.Disjuncts[0])
		if err != nil || l.method == exec.MethodTableScan {
			return err
		}
		tr.legs = []leg{l}
		return nil
	}
	pr := pricing{sp: sp, ts: sp.TableStats(tr.t), h: exec.Hardware(tr.t), limit: tr.rowLimit()}
	pr.scan = costmodel.Scan(pr.h, pr.ts)
	if len(spec.Disjuncts) == 1 && len(spec.Disjuncts[0].Preds) == 0 {
		// Every tuple matches, so a limited scan stops within its first
		// pages. Under a predicate the scan keeps its whole-heap price:
		// correlated matches may all sit past the pages a count predicts.
		pr.scan = pr.firstRows(pr.scan, 1, int64(math.Ceil(pr.ts.Pages())), tr.t, spec.Disjuncts[0])
	}
	for _, q := range spec.Disjuncts {
		l := tr.cheapestLeg(q, pr)
		if l.method == exec.MethodTableScan {
			tr.cost = pr.scan
			break
		}
		tr.legs = append(tr.legs, l)
		tr.cost += l.cost
	}
	if tr.cost >= pr.scan {
		tr.legs, tr.cost = nil, pr.scan
	}
	if spec.IsAggregate() && len(spec.Disjuncts) == 1 {
		tr.chooseCMAgg(pr)
	}
	return nil
}

// cheapestLeg costs every access path applicable to one conjunction with
// the Section 4 model and returns the cheapest; a table-scan leg means
// nothing beat the sequential scan (ties go to the scan). A secondary
// index applies when its leading key column is predicated; the clustered
// index applies when the leading clustering column is; a CM applies when
// at least one of its columns is predicated (false positives are
// filtered after the heap sweep). The clustered index and a CM are
// costed from the heap pages their probe resolves to (sweepCost), which
// reads only memory — no c_per_u estimate needed.
func (tr *Tree) cheapestLeg(q exec.Query, pr pricing) leg {
	t := tr.t
	best := leg{method: exec.MethodTableScan, cost: pr.scan}
	consider := func(l leg) {
		if l.cost < best.cost {
			best = l
		}
	}
	for _, ix := range t.Indexes() {
		p := q.IndexablePredOn(ix.Cols[0])
		if p == nil {
			continue
		}
		ps, ok := pr.sp.PairStats(t, ix.Cols)
		if !ok {
			continue
		}
		n := p.NLookups()
		consider(leg{method: exec.MethodSorted, index: ix, cost: costmodel.SortedIndex(pr.h, pr.ts, ps, n)})
		consider(leg{method: exec.MethodPipelined, index: ix, cost: costmodel.PipelinedIndex(pr.h, pr.ts, ps, n)})
	}
	if probe, ok := exec.ProbeClustered(t, q); ok {
		consider(leg{method: exec.MethodClustered, probe: probe, cost: tr.sweepCost(pr, probe.Pages, q)})
	}
	for _, cm := range t.CMs() {
		probe, ok, err := exec.ProbeCM(t, cm, q)
		if !ok || err != nil {
			continue // no predicate on the CM's columns
		}
		consider(leg{method: exec.MethodCM, probe: probe, cost: tr.sweepCost(pr, probe.Pages, q)})
	}
	return best
}

// sweepCost predicts a physical-order sweep of the given sorted distinct
// heap pages for conjunction q, counted the way the sweep kernel reads
// them (exec.PageRuns): each run opens with one seek, and nothing costs
// more than the scan; a limited plain select's sweep stops once it has
// its rows (firstRows). It prices every path whose page list is known
// before execution — the clustered and CM scans and cm-agg's hybrid
// sweep.
func (tr *Tree) sweepCost(pr pricing, pages []int64, q exec.Query) time.Duration {
	runs, read := exec.PageRuns(tr.t, pages)
	return pr.firstRows(costmodel.PageRuns(pr.h, pr.ts, runs, read), runs, read, tr.t, q)
}

// forcedLeg resolves a forced method to the first structure it applies
// to (or the CM the spec names); a table-scan leg reads none.
func (tr *Tree) forcedLeg(q exec.Query) (leg, error) {
	m := tr.spec.Method
	switch m {
	case exec.MethodTableScan:
		return leg{method: m}, nil
	case exec.MethodSorted, exec.MethodPipelined:
		for _, ix := range tr.t.Indexes() {
			if q.IndexablePredOn(ix.Cols[0]) != nil {
				return leg{method: m, index: ix}, nil
			}
		}
		return leg{}, fmt.Errorf("plan: no secondary index applies to %s", q.String())
	case exec.MethodCM:
		named := tr.spec.CM != ""
		for _, cm := range tr.t.CMs() {
			if named && cm.Spec().Name != tr.spec.CM {
				continue
			}
			probe, ok, err := exec.ProbeCM(tr.t, cm, q)
			if !ok {
				if !named {
					continue // not this CM's columns: try the next
				}
				err = exec.ErrCMNotApplicable
			}
			return leg{method: m, probe: probe}, err
		}
		if named {
			return leg{}, fmt.Errorf("plan: table %s has no CM %q", tr.t.Name(), tr.spec.CM)
		}
		return leg{}, fmt.Errorf("plan: no CM applies to %s", q.String())
	case exec.MethodClustered:
		probe, ok := exec.ProbeClustered(tr.t, q)
		if !ok {
			return leg{}, fmt.Errorf("plan: the clustered index does not apply to %s", q.String())
		}
		return leg{method: m, probe: probe}, nil
	default:
		return leg{}, fmt.Errorf("plan: unknown access method %v", m)
	}
}

// chooseCMAgg attempts the cm-agg lowering: under Auto, a
// single-conjunction aggregate whose predicates, grouping and aggregated
// columns are all covered by one CM answers from the bucket statistics
// when the §4 model says the hybrid remainder (impure buckets only) beats
// the best heap-visiting path. A fully pure plan costs zero I/O and
// always wins. While a writer statement is mid-flight the CM directory
// already carries the statement's additions (its retractions are
// deferred to publish), so the statistics describe a state no snapshot
// can see — the lowering stands down and the heap-visiting paths, which
// re-filter through tuple visibility, answer instead.
func (tr *Tree) chooseCMAgg(pr pricing) {
	if tr.t.WriterActive() {
		return
	}
	spec, heapCost, heapLeg := tr.spec, tr.cost, tr.soleLeg()
	for _, cm := range tr.t.CMs() {
		// PlanCMAgg resolves the predicates to their CM entries the way a
		// CM probe does — direct lookups for a point aggregate, one walk
		// for a range — and eagerly folds the pure statistics.
		cp, ok := exec.PlanCMAgg(tr.t, cm, spec.Disjuncts[0], spec.Aggs, spec.GroupBy)
		if !ok {
			continue
		}
		// The pure part folds from memory-resident statistics and costs
		// nothing; the hybrid remainder is priced from the heap pages
		// the page directory gives for its impure buckets.
		cost := tr.sweepCost(pr, cp.ImpurePages, spec.Disjuncts[0])
		// Engage when the §4 model says the hybrid remainder is
		// strictly cheaper than the best heap-visiting path — at the
		// cap (hybrid sweep ~ full scan) the simpler plan wins the
		// tie — or when the alternative is a CM scan of the same CM,
		// which cm-agg dominates outright whenever the statistics
		// retire any of the buckets that scan would sweep (the fold
		// is free; the sweep is a strict subset).
		dominatesCMScan := heapLeg != nil && heapLeg.method == exec.MethodCM && heapLeg.probe.CM == cm &&
			len(cp.ImpureBuckets) < cp.MatchedBuckets
		if (cost >= heapCost && !dominatesCMScan) || (tr.cmagg != nil && cost >= tr.cost) {
			continue
		}
		tr.cmagg, tr.cost = cp, cost
	}
}

// decodedCols mirrors what execution materializes per surviving
// tuple: the projection (plus predicated and order columns) for plain
// selects, the aggregated + grouped + predicated columns for heap
// aggregation, and the hybrid sweep's column set (zero when fully
// index-only) for cm-agg.
func (tr *Tree) decodedCols() int {
	spec := tr.spec
	ncols := len(tr.t.Schema().Cols)
	if tr.cmagg != nil {
		if len(tr.cmagg.ImpureBuckets) == 0 {
			return 0
		}
		return len(tr.cmagg.NeedCols)
	}
	var scanProj []int
	if spec.IsAggregate() {
		scanProj = []int{}
		for _, sp := range spec.Aggs {
			if sp.Col >= 0 {
				scanProj = append(scanProj, sp.Col)
			}
		}
		scanProj = append(scanProj, spec.GroupBy...)
	} else if spec.Proj != nil {
		scanProj = append([]int{}, spec.Proj...) // non-nil even when empty: nil means every column
		for _, o := range spec.OrderBy {
			scanProj = append(scanProj, o.Col)
		}
	}
	oq := exec.OrQuery{Disjuncts: spec.Disjuncts, Proj: scanProj}
	return len(oq.MaterializeCols(ncols))
}

// nodes describes the operator nodes from the physical decisions,
// bottom-up: access (scan | union | cm-agg), filter, project, agg,
// having, sort, limit — each present only when it does work.
func (tr *Tree) nodes() []PlanNode {
	spec := tr.spec
	var nodes []PlanNode

	hasPreds := false
	for _, q := range spec.Disjuncts {
		if len(q.Preds) > 0 {
			hasPreds = true
		}
	}

	access := PlanNode{Kind: kindScan, EstCost: tr.cost}
	parts := make([]string, len(tr.legs))
	for i, l := range tr.legs {
		parts[i] = fmt.Sprintf("%s(%s)", l.method, tr.uses(l))
	}
	switch {
	case tr.cmagg != nil:
		access.Kind, access.Detail = kindCMAgg, tr.cmagg.Describe()
	case len(tr.legs) > 1:
		access.Kind, access.Detail = kindUnion, fmt.Sprintf(
			"%d disjuncts, rid-dedup union: %s", len(tr.legs), strings.Join(parts, " + "))
	case len(tr.legs) == 1:
		access.Detail = parts[0]
	case len(spec.Disjuncts) > 1:
		access.Detail = fmt.Sprintf("table-scan (filtered-scan fallback over %d disjuncts)", len(spec.Disjuncts))
	default:
		access.Detail = exec.MethodTableScan.String()
	}
	nodes = append(nodes, access)

	if tr.cmagg == nil {
		if hasPreds {
			nodes = append(nodes, PlanNode{Kind: kindFilter, Detail: tr.filterDetail()})
		}
		if !spec.IsAggregate() && len(spec.Proj) > 0 && !tr.identityProj(spec.Proj) {
			nodes = append(nodes, PlanNode{Kind: kindProject, Detail: strings.Join(tr.colNames(spec.Proj), ", ")})
		}
		if spec.IsAggregate() {
			detail := strings.Join(tr.aggNames(), ", ")
			if len(spec.GroupBy) > 0 {
				withAggs := detail
				detail = "group by " + strings.Join(tr.colNames(spec.GroupBy), ", ")
				if withAggs != "" {
					detail = withAggs + " " + detail
				}
			}
			nodes = append(nodes, PlanNode{Kind: kindGroupAgg, Detail: detail})
		}
	}
	if len(spec.Having) > 0 {
		parts := make([]string, len(spec.Having))
		for i := range spec.Having {
			parts[i] = tr.havingDetail(spec.Having[i])
		}
		nodes = append(nodes, PlanNode{Kind: kindHaving, Detail: strings.Join(parts, " and ")})
	}
	if len(spec.OrderBy) > 0 {
		parts := make([]string, len(spec.OrderBy))
		for i, o := range spec.OrderBy {
			name := ""
			if spec.IsAggregate() {
				name = tr.outName(o.Col)
			} else {
				name = tr.colNames([]int{o.Col})[0]
			}
			dir := "asc"
			if o.Desc {
				dir = "desc"
			}
			parts[i] = name + " " + dir
		}
		mode := "full sort"
		if spec.Limit != 0 {
			mode = fmt.Sprintf("top-%d heap", max(spec.Limit, 0))
		}
		nodes = append(nodes, PlanNode{Kind: kindSort, Detail: strings.Join(parts, ", ") + " (" + mode + ")"})
	}
	if spec.Limit != 0 {
		nodes = append(nodes, PlanNode{Kind: kindLimit, Detail: fmt.Sprintf("first %d rows", max(spec.Limit, 0))})
	}
	return nodes
}

// identityProj reports a projection that selects every column in schema
// order — SELECT * — which needs no project node.
func (tr *Tree) identityProj(proj []int) bool {
	if len(proj) != len(tr.t.Schema().Cols) {
		return false
	}
	for i, c := range proj {
		if c != i {
			return false
		}
	}
	return true
}

// colNames resolves schema column names for node details.
func (tr *Tree) colNames(cols []int) []string {
	sch := tr.t.Schema()
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = sch.Cols[c].Name
	}
	return out
}

// aggNames renders the canonical aggregate names of the spec.
func (tr *Tree) aggNames() []string {
	sch := tr.t.Schema()
	out := make([]string, len(tr.spec.Aggs))
	for i, sp := range tr.spec.Aggs {
		if sp.Col < 0 {
			out[i] = sp.Kind.String() + "(*)"
		} else {
			out[i] = sp.Kind.String() + "(" + sch.Cols[sp.Col].Name + ")"
		}
	}
	return out
}

// outName names one canonical aggregate-output position: a grouping
// column, then the aggregates.
func (tr *Tree) outName(pos int) string {
	if pos < len(tr.spec.GroupBy) {
		return tr.colNames(tr.spec.GroupBy[pos : pos+1])[0]
	}
	return tr.aggNames()[pos-len(tr.spec.GroupBy)]
}

// havingDetail renders one HAVING predicate over output-column names.
func (tr *Tree) havingDetail(p exec.Pred) string {
	return p.Describe(tr.outName(p.Col))
}

// filterDetail renders the WHERE clause with schema column names: each
// disjunct's conjunction joined with AND, disjuncts parenthesized and
// joined with OR.
func (tr *Tree) filterDetail() string {
	sch := tr.t.Schema()
	conj := func(q exec.Query) string {
		parts := make([]string, len(q.Preds))
		for i, p := range q.Preds {
			parts[i] = p.Describe(sch.Cols[p.Col].Name)
		}
		return strings.Join(parts, " AND ")
	}
	if len(tr.spec.Disjuncts) == 1 {
		return conj(tr.spec.Disjuncts[0])
	}
	parts := make([]string, len(tr.spec.Disjuncts))
	for i, q := range tr.spec.Disjuncts {
		parts[i] = "(" + conj(q) + ")"
	}
	return strings.Join(parts, " OR ")
}
