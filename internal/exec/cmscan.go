package exec

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/table"
	"repro/internal/value"
)

// cmBuckets evaluates the query's predicates over the CM and returns the
// matching clustered bucket IDs, sorted, and how many point combinations
// the CM's bloom filter proved absent and dropped before the lookup.
//
// When every CM column carries an equality or IN predicate the lookup is
// a direct probe (the cm_lookup({v1..vN}) API). Otherwise — range
// predicates or partially covered composites — the CM is scanned with the
// predicates mapped through the bucketers: a bucket representative
// matches a range [lo, hi] iff it lies in [bucket(lo), bucket(hi)],
// because representatives are bucket lower bounds on the same grid.
//
// The skips are returned, not recorded: the planner probes every
// candidate CM to price it, and only the probe whose pages a statement
// goes on to sweep counts (CMProbe.Note).
func cmBuckets(cm *core.CM, q Query) (buckets []int32, blooms int64, err error) {
	spec := cm.Spec()
	allPoint := true
	for _, col := range spec.UCols {
		p := q.IndexablePredOn(col)
		if p == nil || p.Op == OpRange {
			allPoint = false
			break
		}
	}
	if allPoint {
		combos := [][]value.Value{nil}
		for _, col := range spec.UCols {
			p := q.IndexablePredOn(col)
			next := make([][]value.Value, 0, len(combos)*len(p.Vals))
			for _, combo := range combos {
				for _, v := range p.Vals {
					ext := make([]value.Value, len(combo), len(combo)+1)
					copy(ext, combo)
					next = append(next, append(ext, v))
				}
			}
			combos = next
		}
		if cm.BloomEnabled() {
			// The bloom summarizes bucketed keys, so a combo it rejects
			// has no CM entry and can contribute no buckets — drop it
			// before the lookup.
			kept := combos[:0]
			for _, combo := range combos {
				if cm.ProbePossible(combo) {
					kept = append(kept, combo)
				}
			}
			blooms = int64(len(combos) - len(kept))
			combos = kept
		}
		return cm.LookupMany(combos), blooms, nil
	}

	// Bucket-transformed predicate match over the whole (small) CM.
	type bpred struct {
		idx int // position within the CM key
		p   Pred
	}
	var bpreds []bpred
	for i, col := range spec.UCols {
		p := q.IndexablePredOn(col)
		if p == nil {
			continue
		}
		tp := Pred{Col: i, Op: p.Op}
		b := spec.Bucketers[i]
		switch p.Op {
		case OpEq, OpIn:
			tp.Vals = make([]value.Value, len(p.Vals))
			for j, v := range p.Vals {
				tp.Vals[j] = b.Bucket(v)
			}
		case OpRange:
			if p.Lo != nil {
				lo := b.Bucket(*p.Lo)
				tp.Lo = &lo
			}
			if p.Hi != nil {
				hi := b.Bucket(*p.Hi)
				tp.Hi = &hi
			}
		}
		bpreds = append(bpreds, bpred{idx: i, p: tp})
	}
	buckets, err = cm.LookupMatch(func(vals []value.Value) bool {
		for _, bp := range bpreds {
			if !bp.p.Matches(vals) {
				return false
			}
		}
		return true
	})
	return buckets, 0, err
}

// bucketPages resolves sorted clustered bucket IDs to the sorted distinct
// heap pages that hold their tuples, from the table's memory-resident
// page directory: no index page is read and no RID is materialised. By
// the directory's invariant this is exactly the page set the clustered
// B+Tree's RIDs for those buckets would give.
func bucketPages(t *table.Table, buckets []int32) []int64 {
	dir := t.PageDir()
	pages := make([]int64, 0, 4*len(buckets))
	for _, b := range buckets {
		pages = dir.AppendPages(pages, b)
	}
	// Adjacent buckets share their boundary page, and a bucket's tail
	// versions sit past the next bucket's pages.
	return distinctPages(pages)
}

// CMProbe is one resolved probe of a correlation map: the sorted
// distinct heap pages of the clustered buckets the query's predicates
// map to, and the point combinations the CM's bloom filter proved absent
// on the way. Both the CM and the page directory are memory-resident, so
// a probe reads no page; it holds for as long as the table latch (or
// writer gate) it was taken under is held.
type CMProbe struct {
	CM     *core.CM
	Pages  []int64
	Blooms int64
}

// ProbeCM probes the CM with the query's predicates and resolves the
// matching clustered buckets to heap pages through the page directory —
// the whole of a CM scan up to its sweep, and what the planner prices
// the scan from. It fails when the query predicates none of the CM's
// columns.
func ProbeCM(t *table.Table, cm *core.CM, q Query) (CMProbe, error) {
	covered := false
	for _, col := range cm.Spec().UCols {
		if q.IndexablePredOn(col) != nil {
			covered = true
			break
		}
	}
	if !covered {
		return CMProbe{}, fmt.Errorf("exec: query predicates none of the CM's columns")
	}
	buckets, blooms, err := cmBuckets(cm, q)
	if err != nil {
		return CMProbe{}, err
	}
	return CMProbe{CM: cm, Pages: bucketPages(t, buckets), Blooms: blooms}, nil
}

// Note records the probe as one a statement acted on: its bloom skips
// count into obs and against the CM. Call it once, for the probe whose
// pages are swept.
func (p CMProbe) Note(obs *ScanObs) {
	obs.AddBlooms(p.Blooms)
	p.CM.NoteBloomSkips(p.Blooms)
}

// SweepObs returns the observer the heap sweep of a scan this probe
// drives tallies into, and the function to call when the sweep ends: it
// folds the sweep's counts into obs and into the CM's own health gauges
// — page visits, and how many of them held no matching tuple (the CM's
// false-positive pages). Without an observer nothing is counted and the
// sweep pays nothing.
func (p CMProbe) SweepObs(obs *ScanObs) (sweep *ScanObs, done func()) {
	if obs == nil {
		return nil, func() {}
	}
	sweep = &ScanObs{}
	return sweep, func() {
		obs.AddFrom(sweep)
		p.CM.NoteSweep(sweep.Pages.Load(), sweep.EmptyPages.Load())
	}
}

// CMScan evaluates the query through a correlation map (Section 5.2):
// the CM probe yields clustered bucket IDs, the page directory turns them
// into heap pages, and the pages are swept in physical order — fanned out
// over workers — with the rows re-filtered by the original predicates,
// discarding the CM's false positives.
func CMScan(t *table.Table, cm *core.CM, q Query, workers int, fn RowFunc) error {
	probe, err := ProbeCM(t, cm, q)
	if err != nil {
		return err
	}
	probe.Note(q.Obs)
	obs, done := probe.SweepObs(q.Obs)
	defer done()
	q.Obs = obs
	return Sweep(t, q.asOr(), PageSet{list: probe.Pages}, workers, fn)
}

// bucketRuns coalesces sorted bucket IDs into maximal contiguous runs,
// so adjacent buckets become one clustered-key range of the rewrite.
func bucketRuns(buckets []int32) [][2]int32 {
	var runs [][2]int32
	for i := 0; i < len(buckets); {
		j := i
		for j+1 < len(buckets) && buckets[j+1] == buckets[j]+1 {
			j++
		}
		runs = append(runs, [2]int32{buckets[i], buckets[j]})
		i = j + 1
	}
	return runs
}

// CMRewrite describes the predicate-introduction rewrite a CM performs:
// the clustered-attribute key ranges that will be added to the query, as
// the prototype added "AND shipdate IN (s1 ... sn)" (Section 7.1). For
// single-value clustered buckets the ranges degenerate to the IN list.
type CMRewrite struct {
	Buckets []int32
	Ranges  []KeyRange
}

// KeyRange is a clustered-key interval [Lo, HiExcl); HiExcl nil means
// unbounded.
type KeyRange struct {
	Lo     []byte
	HiExcl []byte
}

// RewriteWithCM computes the rewrite without executing it, for
// explanation, tests and the advisor's what-if output.
func RewriteWithCM(t *table.Table, cm *core.CM, q Query) (CMRewrite, error) {
	buckets, _, err := cmBuckets(cm, q)
	if err != nil {
		return CMRewrite{}, err
	}
	dir := t.Buckets()
	rw := CMRewrite{Buckets: buckets}
	for _, run := range bucketRuns(buckets) {
		lo := dir.LowerBound(run[0])
		hiExcl, _ := dir.UpperBound(run[1])
		rw.Ranges = append(rw.Ranges, KeyRange{Lo: lo, HiExcl: hiExcl})
	}
	return rw, nil
}
