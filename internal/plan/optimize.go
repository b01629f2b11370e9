package plan

import (
	"fmt"
	"strings"

	"repro/internal/exec"
)

// Optimize finalizes the tree: it chooses the access path with the
// Section 4 cost model (or resolves a forced method to its structure),
// attempts the cm-agg lowering for covered aggregates, and materializes
// the operator node chain EXPLAIN prints. It must run under the same
// shared table latch hold as Run.
func (tr *Tree) Optimize(sp exec.StatsProvider) error {
	spec := tr.spec
	if len(spec.Disjuncts) > 1 {
		tr.useOr = true
		oq := exec.OrQuery{Disjuncts: spec.Disjuncts}
		tr.orPlan = exec.ChooseOrPlan(tr.t, oq, sp)
		tr.cost, tr.costEstimated = tr.orPlan.Cost, true
		if !tr.orPlan.Union {
			tr.method = exec.MethodTableScan
		}
	} else {
		p, err := tr.singlePlan(spec.Disjuncts[0], sp)
		if err != nil {
			return err
		}
		tr.single = p
		tr.method, tr.uses = p.Method, structureName(p)
		if spec.Force == Auto {
			tr.cost, tr.costEstimated = p.Cost, true
		}
		if spec.IsAggregate() {
			// The aggregate executor runs through the OR plan shape even
			// for one conjunction: a probe method unions its own RIDs, a
			// table scan sweeps the heap.
			if p.Method == exec.MethodTableScan {
				tr.orPlan = exec.OrPlan{Union: false, Cost: p.Cost}
			} else {
				tr.orPlan = exec.OrPlan{Union: true, Plans: []exec.Plan{p}, Cost: p.Cost}
			}
		}
	}

	// The cm-agg lowering: under Auto, a single-conjunction aggregate
	// whose predicates, grouping and aggregated columns are all covered
	// by one CM answers from the bucket statistics when the §4 model says
	// the hybrid remainder (impure buckets only) beats the best
	// heap-visiting path. A fully pure plan costs zero I/O and always
	// wins. While a writer statement is mid-flight the CM directory
	// already carries the statement's additions (its retractions are
	// deferred to publish), so the statistics describe a state no snapshot
	// can see — the lowering stands down and the heap-visiting paths,
	// which re-filter through tuple visibility, answer instead.
	if spec.IsAggregate() && spec.Force == Auto && !tr.useOr && !tr.t.WriterActive() {
		ts := sp.TableStats(tr.t)
		for _, cm := range tr.t.CMs() {
			// PlanCMAgg walks the whole (memory-resident) CM directory and
			// eagerly folds the pure statistics — the same full-walk
			// economics the range CM scan already accepts (LookupMatch),
			// paid only for CMs that pass the cheap eligibility checks.
			// If planning latency over very large directories ever
			// matters, split classification (costing) from the fold.
			cp, ok := exec.PlanCMAgg(tr.t, cm, spec.Disjuncts[0], spec.Aggs, spec.GroupBy)
			if !ok {
				continue
			}
			// The pure part folds from memory-resident statistics and costs
			// nothing; the hybrid remainder is priced from the heap pages
			// the page directory gives for its impure buckets.
			cost := exec.SweepCost(tr.t, ts, cp.ImpurePages)
			// Engage when the §4 model says the hybrid remainder is
			// strictly cheaper than the best heap-visiting path — at the
			// cap (hybrid sweep ~ full scan) the simpler plan wins the
			// tie — or when the alternative is a CM scan of the same CM,
			// which cm-agg dominates outright whenever the statistics
			// retire any of the buckets that scan would sweep (the fold
			// is free; the sweep is a strict subset).
			dominatesCMScan := tr.single.Method == exec.MethodCM && tr.single.CM == cm &&
				len(cp.ImpureBuckets) < cp.MatchedBuckets
			if (cost >= tr.single.Cost && !dominatesCMScan) || (tr.cmagg != nil && cost >= tr.cost) {
				continue
			}
			tr.cmagg = cp
			tr.cost, tr.costEstimated = cost, true
		}
		if tr.cmagg != nil {
			tr.uses = tr.cmagg.CM.Spec().Name
		}
	}

	tr.decodedCols = tr.computeDecodedCols()
	tr.buildNodes()
	tr.optimized = true
	return nil
}

// singlePlan resolves one conjunction's access plan: the cost model's
// choice under Auto, or the first applicable structure for a forced
// method.
func (tr *Tree) singlePlan(q exec.Query, sp exec.StatsProvider) (exec.Plan, error) {
	switch tr.spec.Force {
	case Auto:
		return exec.ChoosePlan(tr.t, q, sp), nil
	case ForceTableScan:
		return exec.Plan{Method: exec.MethodTableScan}, nil
	case ForceSorted, ForcePipelined:
		for _, ix := range tr.t.Indexes() {
			if q.IndexablePredOn(ix.Cols[0]) != nil {
				m := exec.MethodSorted
				if tr.spec.Force == ForcePipelined {
					m = exec.MethodPipelined
				}
				return exec.Plan{Method: m, Index: ix}, nil
			}
		}
		return exec.Plan{}, fmt.Errorf("plan: no secondary index applies to %s", q.String())
	case ForceCM:
		for _, cm := range tr.t.CMs() {
			for _, c := range cm.Spec().UCols {
				if q.IndexablePredOn(c) != nil {
					return exec.Plan{Method: exec.MethodCM, CM: cm}, nil
				}
			}
		}
		return exec.Plan{}, fmt.Errorf("plan: no CM applies to %s", q.String())
	case ForceClustered:
		if q.IndexablePredOn(tr.t.ClusteredCols()[0]) == nil {
			return exec.Plan{}, fmt.Errorf("plan: the clustered index does not apply to %s", q.String())
		}
		return exec.Plan{Method: exec.MethodClustered, Index: tr.t.Clustered()}, nil
	default:
		return exec.Plan{}, fmt.Errorf("plan: unknown access method %v", tr.spec.Force)
	}
}

// structureName names the index or CM a plan reads, if any.
func structureName(p exec.Plan) string {
	switch p.Method {
	case exec.MethodSorted, exec.MethodPipelined, exec.MethodClustered:
		return p.Index.Name
	case exec.MethodCM:
		return p.CM.Spec().Name
	default:
		return ""
	}
}

// describePlan renders one access plan for node details.
func describePlan(p exec.Plan) string {
	if name := structureName(p); name != "" {
		return fmt.Sprintf("%s(%s)", p.Method, name)
	}
	return p.Method.String()
}

// computeDecodedCols mirrors what execution materializes per surviving
// tuple: the projection (plus predicated and order columns) for plain
// selects, the aggregated + grouped + predicated columns for heap
// aggregation, and the hybrid sweep's column set (zero when fully
// index-only) for cm-agg.
func (tr *Tree) computeDecodedCols() int {
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
	if tr.useOr {
		oq := exec.OrQuery{Disjuncts: spec.Disjuncts, Proj: scanProj}
		return len(oq.MaterializeCols(ncols))
	}
	q := spec.Disjuncts[0]
	q.Proj = scanProj
	return len(q.MaterializeCols(ncols))
}

// buildNodes materializes the operator chain from the physical
// decisions, bottom-up: access (scan | union | cm-agg), filter,
// project, agg, having, sort, limit — each present only when it does
// work.
func (tr *Tree) buildNodes() {
	spec := tr.spec
	var chain []*Node

	hasPreds := false
	for _, q := range spec.Disjuncts {
		if len(q.Preds) > 0 {
			hasPreds = true
		}
	}

	switch {
	case tr.cmagg != nil:
		chain = append(chain, &Node{Kind: KindCMAgg, Detail: tr.cmagg.Describe(), Cost: tr.cost})
	case tr.useOr && tr.orPlan.Union:
		parts := make([]string, len(tr.orPlan.Plans))
		for i, p := range tr.orPlan.Plans {
			parts[i] = describePlan(p)
		}
		chain = append(chain, &Node{Kind: KindUnion, Cost: tr.cost, Detail: fmt.Sprintf(
			"%d disjuncts, rid-dedup union: %s", len(tr.orPlan.Plans), strings.Join(parts, " + "))})
	case tr.useOr:
		chain = append(chain, &Node{Kind: KindScan, Cost: tr.cost, Detail: fmt.Sprintf(
			"table-scan (filtered-scan fallback over %d disjuncts)", len(spec.Disjuncts))})
	default:
		chain = append(chain, &Node{Kind: KindScan, Detail: describePlan(tr.single), Cost: tr.cost})
	}

	if tr.cmagg == nil {
		if hasPreds {
			chain = append(chain, &Node{Kind: KindFilter, Detail: tr.filterDetail()})
		}
		if !spec.IsAggregate() && len(spec.Proj) > 0 && !tr.identityProj(spec.Proj) {
			chain = append(chain, &Node{Kind: KindProject, Detail: strings.Join(tr.colNames(spec.Proj), ", ")})
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
			chain = append(chain, &Node{Kind: KindGroupAgg, Detail: detail})
		}
	}
	if len(spec.Having) > 0 {
		parts := make([]string, len(spec.Having))
		for i := range spec.Having {
			parts[i] = tr.havingDetail(spec.Having[i])
		}
		chain = append(chain, &Node{Kind: KindHaving, Detail: strings.Join(parts, " and ")})
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
		if spec.Limit > 0 {
			mode = fmt.Sprintf("top-%d heap", spec.Limit)
		}
		chain = append(chain, &Node{Kind: KindSort, Detail: strings.Join(parts, ", ") + " (" + mode + ")"})
	}
	if spec.Limit > 0 {
		chain = append(chain, &Node{Kind: KindLimit, Detail: fmt.Sprintf("first %d rows", spec.Limit)})
	}

	// Link top-down: Root is the topmost operator, Child points toward
	// the access leaf.
	for i := len(chain) - 1; i > 0; i-- {
		chain[i].Child = chain[i-1]
	}
	tr.Root = chain[len(chain)-1]
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
	return predDetail(tr.outName(p.Col), p)
}

// filterDetail renders the WHERE clause with schema column names: each
// disjunct's conjunction joined with AND, disjuncts parenthesized and
// joined with OR.
func (tr *Tree) filterDetail() string {
	sch := tr.t.Schema()
	conj := func(q exec.Query) string {
		parts := make([]string, len(q.Preds))
		for i, p := range q.Preds {
			parts[i] = predDetail(sch.Cols[p.Col].Name, p)
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

// predDetail renders one executor predicate against a display name —
// the named twin of exec.Pred.String, built from the predicate struct
// rather than by placeholder substitution so a column literally named
// "colN" (or a string literal containing one) cannot corrupt the
// output.
func predDetail(name string, p exec.Pred) string {
	switch p.Op {
	case exec.OpEq:
		return fmt.Sprintf("%s = %v", name, p.Vals[0])
	case exec.OpIn:
		parts := make([]string, len(p.Vals))
		for i, v := range p.Vals {
			parts[i] = v.String()
		}
		return fmt.Sprintf("%s IN (%s)", name, strings.Join(parts, ", "))
	case exec.OpNe:
		return fmt.Sprintf("%s != %v", name, p.Vals[0])
	default:
		switch {
		case p.Lo != nil && p.Hi == nil:
			op := ">="
			if p.LoExcl {
				op = ">"
			}
			return fmt.Sprintf("%s %s %v", name, op, *p.Lo)
		case p.Lo == nil && p.Hi != nil:
			op := "<="
			if p.HiExcl {
				op = "<"
			}
			return fmt.Sprintf("%s %s %v", name, op, *p.Hi)
		case p.LoExcl || p.HiExcl:
			loOp, hiOp := ">=", "<="
			if p.LoExcl {
				loOp = ">"
			}
			if p.HiExcl {
				hiOp = "<"
			}
			return fmt.Sprintf("%s %s %v AND %s %s %v", name, loOp, *p.Lo, name, hiOp, *p.Hi)
		default:
			lo, hi := "-inf", "+inf"
			if p.Lo != nil {
				lo = p.Lo.String()
			}
			if p.Hi != nil {
				hi = p.Hi.String()
			}
			return fmt.Sprintf("%s BETWEEN %s AND %s", name, lo, hi)
		}
	}
}
