package exec

import (
	"bytes"
	"errors"
	"slices"

	"repro/internal/core"
	"repro/internal/keyenc"
	"repro/internal/table"
	"repro/internal/value"
)

// cmKeyPred is one indexable query predicate mapped into the CM's key
// space: its column rebased to the key position and, on a bucketed
// column, its constants replaced by their bucket representatives with
// the bounds made inclusive — a representative matches [lo, hi] iff it
// lies in [bucket(lo), bucket(hi)], because representatives are bucket
// lower bounds on the same grid. On an unbucketed (Identity) column the
// key is the value, so the predicate stands as written, strict bounds
// included.
type cmKeyPred struct {
	p        Pred
	identity bool
}

// pure reports whether every tuple under a key the predicate matches
// satisfies the original predicate: always for identity bucketing, and
// for a range whose boundary buckets the key lies strictly between
// (representatives are interval lower bounds, so such a key covers only
// in-range values). A bucketed point match is never pure.
func (kp *cmKeyPred) pure(vals []value.Value) bool {
	if kp.identity {
		return true
	}
	if kp.p.Op != OpRange {
		return false
	}
	v := vals[kp.p.Col]
	return (kp.p.Lo == nil || v.Compare(*kp.p.Lo) > 0) && (kp.p.Hi == nil || v.Compare(*kp.p.Hi) < 0)
}

// cmResolver answers "which entries of this CM do these predicates
// select" — the one question under a CM scan (which wants the entries'
// clustered buckets) and under cm-agg (which wants their statistics and
// whether each entry is pure).
type cmResolver struct {
	cm     *core.CM
	kpreds []cmKeyPred
}

// newCMResolver maps the query's indexable predicates over the CM's
// columns into key space; predicates on other columns, and Ne, are left
// to the re-filter. ok is false when none of the CM's columns is
// predicated: the CM has nothing to say about the query.
func newCMResolver(cm *core.CM, q Query) (r cmResolver, ok bool) {
	spec := cm.Spec()
	r.cm = cm
	for _, p := range q.Preds {
		pos := slices.Index(spec.UCols, p.Col)
		if pos < 0 || !p.Indexable() {
			continue
		}
		b := spec.Bucketers[pos]
		kp := cmKeyPred{p: p}
		kp.p.Col = pos
		if _, kp.identity = b.(core.Identity); !kp.identity {
			kp.p.LoExcl, kp.p.HiExcl = false, false
			kp.p.Vals = make([]value.Value, len(p.Vals))
			for j, v := range p.Vals {
				kp.p.Vals[j] = b.Bucket(v)
			}
			if p.Lo != nil {
				lo := b.Bucket(*p.Lo)
				kp.p.Lo = &lo
			}
			if p.Hi != nil {
				hi := b.Bucket(*p.Hi)
				kp.p.Hi = &hi
			}
		}
		r.kpreds = append(r.kpreds, kp)
	}
	return r, len(r.kpreds) > 0
}

// cmEntryFunc receives one selected entry: the stored entry, its key's
// bucketed values, and whether the entry is pure. Both are valid during
// the call.
type cmEntryFunc func(e core.Entry, vals []value.Value, pure bool)

// visit classifies one entry against every predicate and hands the
// selected ones on with their purity.
func (r *cmResolver) visit(e core.Entry, vals []value.Value, fn cmEntryFunc) {
	pure := true
	for i := range r.kpreds {
		kp := &r.kpreds[i]
		if !kp.p.Matches(vals) {
			return
		}
		pure = pure && kp.pure(vals)
	}
	fn(e, vals, pure)
}

// each calls fn for every entry the predicates select, in no particular
// order, each entry once. When every CM column carries an equality or IN
// predicate the distinct bucketed keys those spell are looked up
// directly (the cm_lookup({v1..vN}) API: an absent key is a missed hash
// lookup); otherwise — a range, or a composite covered in part — the
// whole CM is walked, which is cheap because it is small and
// memory-resident.
func (r *cmResolver) each(fn cmEntryFunc) error {
	if parts := r.pointParts(); parts != nil {
		r.lookup(parts, fn)
		return nil
	}
	return r.walk(fn)
}

// walk is the arm of each that visits every entry of the CM.
func (r *cmResolver) walk(fn cmEntryFunc) error {
	return r.cm.Walk(func(e core.Entry, vals []value.Value) bool {
		r.visit(e, vals, fn)
		return true
	})
}

// keyPart is one bucketed value a key column can take, with its key
// encoding.
type keyPart struct {
	enc []byte
	val value.Value
}

// pointParts returns, per key column, the distinct bucketed values its
// first equality or IN predicate admits — IN (5, 5), or two values of
// one bucket, spell one key, and a statistic folded twice is a wrong
// answer — or nil when some column has no such predicate.
func (r *cmResolver) pointParts() [][]keyPart {
	parts := make([][]keyPart, len(r.cm.Spec().UCols))
	for i := range r.kpreds {
		p := &r.kpreds[i].p
		if p.Op == OpRange || parts[p.Col] != nil {
			continue
		}
		col := make([]keyPart, len(p.Vals))
		for j, v := range p.Vals {
			col[j] = keyPart{enc: keyenc.EncodeValue(v), val: v}
		}
		if len(col) > 1 {
			slices.SortFunc(col, func(a, b keyPart) int { return bytes.Compare(a.enc, b.enc) })
			col = slices.CompactFunc(col, func(a, b keyPart) bool { return bytes.Equal(a.enc, b.enc) })
		}
		parts[p.Col] = col
	}
	for _, col := range parts {
		if len(col) == 0 { // unpredicated, or IN ()
			return nil
		}
	}
	return parts
}

// lookup is the arm of each that probes the cross product of the
// columns' parts, one hash lookup per key. A found entry still goes
// through visit: a second predicate on a column may reject it.
func (r *cmResolver) lookup(parts [][]keyPart, fn cmEntryFunc) {
	at := make([]int, len(parts)) // odometer over parts
	vals := make([]value.Value, len(parts))
	var key []byte
	for {
		key = key[:0]
		for i, col := range parts {
			key = append(key, col[at[i]].enc...)
			vals[i] = col[at[i]].val
		}
		if e, ok := r.cm.Find(key); ok {
			r.visit(e, vals, fn)
		}
		i := len(at) - 1
		for ; i >= 0; i-- {
			if at[i]++; at[i] < len(parts[i]) {
				break
			}
			at[i] = 0
		}
		if i < 0 {
			return
		}
	}
}

// ErrCMNotApplicable is the error of a caller that was told to probe a
// CM whose columns the query does not predicate (ProbeCM's ok false).
var ErrCMNotApplicable = errors.New("exec: query predicates none of the CM's columns")

// cmBuckets returns the sorted distinct clustered buckets of the entries
// the query's predicates select. ok is false, and nothing is resolved,
// when the query predicates none of the CM's columns.
func cmBuckets(cm *core.CM, q Query) (buckets []int32, ok bool, err error) {
	r, ok := newCMResolver(cm, q)
	if !ok {
		return nil, false, nil
	}
	err = r.each(func(e core.Entry, _ []value.Value, _ bool) {
		buckets = append(buckets, e.Buckets...)
	})
	return sortedDistinct(buckets), true, err
}

// bucketPages resolves sorted clustered bucket IDs to the sorted distinct
// heap pages that hold their tuples, from the table's memory-resident
// page directory: no index page is read and no RID is materialised.
func bucketPages(t *table.Table, buckets []int32) []int64 {
	dir := t.PageDir()
	pages := make([]int64, 0, 4*len(buckets))
	for _, b := range buckets {
		pages = dir.AppendPages(pages, b)
	}
	// Adjacent buckets share their boundary page, and a bucket's tail
	// versions sit past the next bucket's pages.
	return sortedDistinct(pages)
}

// Probe is one resolved probe of a memory-resident access structure: the
// sorted distinct heap pages of the clustered buckets the query's
// predicates map to, through a correlation map (ProbeCM) or, with CM
// nil, through the clustered bucket bounds (ProbeClustered). The bounds,
// the CM and the page directory are all memory-resident, so a probe
// reads no page — an absent key included — and builds no set; it holds
// for as long as the table latch (or writer gate) it was taken under is
// held.
type Probe struct {
	CM    *core.CM
	Pages []int64
}

// ProbeCM probes the CM with the query's predicates and resolves the
// matching clustered buckets to heap pages through the page directory —
// the whole of a CM scan up to its sweep, and what the planner prices
// the scan from. ok is false when the query predicates none of the CM's
// columns: the CM does not apply, which costs no error value (the
// planner asks every CM of the table on every plan).
func ProbeCM(t *table.Table, cm *core.CM, q Query) (p Probe, ok bool, err error) {
	buckets, ok, err := cmBuckets(cm, q)
	if !ok || err != nil {
		return Probe{}, ok, err
	}
	return Probe{CM: cm, Pages: bucketPages(t, buckets)}, true, nil
}

// ProbeClustered resolves the query's predicates on the leading
// clustering column to the clustered buckets their key ranges span and
// those to heap pages through the page directory — the whole of a
// clustered-index scan up to its sweep, and what the planner prices it
// from. ok is false when the leading clustering column is not
// predicated: the clustered index does not apply.
func ProbeClustered(t *table.Table, q Query) (p Probe, ok bool) {
	buckets, ok := clusteredBuckets(t, q)
	if !ok {
		return Probe{}, false
	}
	return Probe{Pages: bucketPages(t, buckets)}, true
}

// SweepObs returns the observer the heap sweep of a scan this CM probe
// drives tallies into, and the function to call when the sweep ends: it
// folds the sweep's counts into obs and into the CM's own health gauges
// — page visits, and how many of them held no matching tuple (the CM's
// false-positive pages). Without an observer nothing is counted and the
// sweep pays nothing.
func (p Probe) SweepObs(obs *ScanObs) (sweep *ScanObs, done func()) {
	if obs == nil {
		return nil, func() {}
	}
	sweep = &ScanObs{}
	return sweep, func() {
		obs.AddFrom(sweep)
		p.CM.NoteSweep(sweep.Pages.Load(), sweep.EmptyPages.Load())
	}
}
