package plan

import (
	"fmt"
	"strings"

	"repro/internal/exec"
	"repro/internal/table"
)

// WriteTree is a compiled write statement — UPDATE or DELETE: a write
// node on top of the read plan that finds the matching rows. The read
// side goes through the same Build → Optimize pipeline as a select, so
// UPDATE/DELETE ... WHERE pick their access path (clustered index,
// secondary index, CM or table scan) with the Section 4 cost model and
// EXPLAIN shows exactly the chain Run executes.
type WriteTree struct {
	// Root is the operator chain: the write node above the read plan.
	Root *Node

	inner *Tree
	sets  []exec.SetClause // the UPDATE's assignments; nil for DELETE
}

// CompileUpdate builds and optimizes an UPDATE: the spec is the read
// side (WHERE clause in Disjuncts; aggregates, ordering, limits and
// projections are rejected — an UPDATE touches whole rows), sets are the
// assignments. Callers Run the result without holding the table latch.
func CompileUpdate(t *table.Table, spec Spec, sets []exec.SetClause, sp exec.StatsProvider) (*WriteTree, error) {
	if err := exec.CheckSets(t.Schema(), sets); err != nil {
		return nil, err
	}
	sch := t.Schema()
	parts := make([]string, len(sets))
	for i, s := range sets {
		parts[i] = fmt.Sprintf("%s = %v", sch.Cols[s.Col].Name, s.Val)
	}
	return compileWrite(t, spec, sp, &Node{Kind: KindUpdate, Detail: "set " + strings.Join(parts, ", ")}, sets)
}

// CompileDelete builds and optimizes a DELETE. The spec is the read
// side, under CompileUpdate's restrictions; the read plan materializes
// nothing beyond the predicated columns, since only RIDs reach the
// write phase.
func CompileDelete(t *table.Table, spec Spec, sp exec.StatsProvider) (*WriteTree, error) {
	return compileWrite(t, spec, sp, &Node{Kind: KindDelete}, nil)
}

// compileWrite validates the read-side spec, compiles it and hangs the
// write node on top.
func compileWrite(t *table.Table, spec Spec, sp exec.StatsProvider, root *Node, sets []exec.SetClause) (*WriteTree, error) {
	stmt := strings.ToUpper(root.Kind.String())
	if spec.IsAggregate() || len(spec.Having) > 0 {
		return nil, fmt.Errorf("plan: %s cannot aggregate", stmt)
	}
	if len(spec.OrderBy) > 0 || spec.Limit > 0 {
		return nil, fmt.Errorf("plan: %s takes no ORDER BY or LIMIT", stmt)
	}
	if spec.Proj != nil {
		return nil, fmt.Errorf("plan: %s takes no projection", stmt)
	}
	if sets == nil {
		spec.Proj = []int{}
	}
	inner, err := Compile(t, spec, sp)
	if err != nil {
		return nil, err
	}
	root.Child = inner.chain()
	return &WriteTree{Root: root, inner: inner, sets: sets}, nil
}

// Run executes the statement with the given scan fan-out and returns
// the number of rows written. The read phase streams matching rows in
// physical heap order (identical at any worker count and for any access
// path), so the resulting table state is byte-identical at any worker
// count. The caller must not hold the table latch: the
// writer statement takes the writer gate for the whole read + write
// span and latches per batch, so concurrent readers are never blocked
// for more than one batch.
//
// The latch the tree was compiled under is gone by now, and another
// writer may have published in between, so the pages its CM and
// clustered legs were priced from are dropped: the read phase probes
// again under the writer gate and sweeps what they resolve to now.
func (wt *WriteTree) Run(workers int) (int64, error) {
	tr := wt.inner
	return exec.WriteByScan(tr.spec.Ctx, tr.t, func(fn exec.RowFunc) error {
		for i := range tr.legs {
			l, q := &tr.legs[i], tr.spec.Disjuncts[i]
			var err error
			switch l.method {
			case exec.MethodCM:
				l.probe, err = exec.ProbeCM(tr.t, l.probe.CM, q)
			case exec.MethodClustered:
				// The leg was planned: the clustered index applies to q.
				l.probe, _ = exec.ProbeClustered(tr.t, q)
			}
			if err != nil {
				return err
			}
		}
		return tr.runRows(tr.spec.Proj, workers, fn)
	}, wt.sets)
}

// RunAnalyzed executes the statement like Run while measuring per-node
// actuals — it really writes. The read chain's actuals mirror a
// select's; the write node reports rows written and the whole
// statement's wall time (read, write batches and publish together,
// since the MVCC writer interleaves them).
func (wt *WriteTree) RunAnalyzed(workers int) (int64, *Analysis, error) {
	var affected, read int64
	an, err := wt.inner.measure(func(st *analysisState) (err error) {
		affected, err = wt.Run(workers)
		st.outRows, read = affected, st.accessRows
		return err
	})
	if err != nil {
		return affected, nil, err
	}
	// The write node sits above the read chain; its phase time is the
	// whole statement (the writer interleaves reading and writing).
	an.Nodes = append(an.Nodes, NodeActuals{Rows: affected, TuplesIn: read, Elapsed: an.Elapsed})
	return affected, an, nil
}

// Explain flattens the write tree for EXPLAIN: the read plan's info
// with the write node appended at the top of the chain.
func (wt *WriteTree) Explain() Info {
	info := wt.inner.Explain()
	info.Nodes = append(info.Nodes, NodeInfo{Kind: wt.Root.Kind.String(), Detail: wt.Root.Detail})
	return info
}
