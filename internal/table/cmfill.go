package table

import (
	"bytes"
	"encoding/binary"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/value"
)

// fillCM adds every live row to cm in its clustered bucket in bounds
// (Algorithm 1's scan; a load passes the bounds it has not installed
// yet), reading what it needs straight from each tuple's bytes. The
// heap is in clustered order, so a row's clustering key is mostly its
// predecessor's, and so is its bucket; and its pair — CM key and bucket —
// is mostly its predecessor's too. Each run of rows of one pair is folded
// into the CM with one call (core.CM.AddRun), which leaves what adding
// each row would. Only a CM whose columns are bucketed decodes them, for
// its bucketers. (No key is empty, so the first row locates its own
// bucket and starts its own run.)
func (t *Table) fillCM(cm *core.CM, bounds *core.ClusteredBuckets) error {
	sch, ccols := t.cfg.Schema, t.cfg.ClusteredCols
	spec := cm.Spec()
	run := newCMRun(cm, sch)
	bucketed := false
	for _, b := range spec.Bucketers {
		bucketed = bucketed || b != core.Bucketer(core.Identity{})
	}
	var row value.Row
	if bucketed {
		row = make(value.Row, len(sch.Cols))
	}
	cFields, uFields := sch.keyFields(ccols), sch.keyFields(spec.UCols)
	var ckey, prevC, key []byte
	var cb int32
	err := t.scanTuples(func(_ heap.RID, tuple []byte) bool {
		ckey = cFields.appendKey(ckey[:0], tuple)
		if !bytes.Equal(ckey, prevC) {
			cb, prevC = bounds.Locate(ckey), append(prevC[:0], ckey...)
		}
		if bucketed {
			_ = sch.decodeCols(row, tuple, spec.UCols, true) // a checked tuple decodes
			key = cm.AppendKeyForRow(key[:0], row)
		} else {
			key = uFields.appendKey(key[:0], tuple)
		}
		run.add(key, cb, tuple)
		return true
	})
	if err != nil {
		return err
	}
	run.flush()
	return nil
}

// cmRun is the run of rows of one pair that fillCM is folding: the
// pair's key and bucket, its rows and, per stat column of the CM, what
// they hold (core.StatRun).
type cmRun struct {
	cm   *core.CM
	sch  Schema
	key  []byte
	cb   int32
	n    int64
	cols []runCol
	runs []core.StatRun
}

// runCol is one stat column's place in the tuple and, for a string
// column, copies of the run's extremes: a run outlives the pages its
// rows lie on.
type runCol struct {
	col      int
	off      int // the column's constant offset, or -1
	min, max []byte
}

func newCMRun(cm *core.CM, sch Schema) *cmRun {
	l := sch.layout()
	stat := cm.Spec().StatCols
	r := &cmRun{cm: cm, sch: sch, cols: make([]runCol, len(stat)), runs: make([]core.StatRun, len(stat))}
	for i, c := range stat {
		r.cols[i] = runCol{col: c, off: l.off[c]}
		r.runs[i].Kind = sch.Cols[c].Kind
	}
	return r
}

// add folds one row — its CM key, clustered bucket and checked tuple —
// into the run, after flushing the run when the row's pair is another.
func (r *cmRun) add(key []byte, cb int32, tuple []byte) {
	if r.n > 0 && (cb != r.cb || !bytes.Equal(key, r.key)) {
		r.flush()
	}
	first := r.n == 0
	if first {
		r.key, r.cb = append(r.key[:0], key...), cb
	}
	r.n++
	for i := range r.cols {
		c, st := &r.cols[i], &r.runs[i]
		off := c.off
		if off < 0 {
			off, _ = r.sch.fieldStart(tuple, c.col) // a checked tuple has every field
		}
		switch st.Kind {
		case value.Int:
			v := int64(binary.LittleEndian.Uint64(tuple[off:]))
			if first {
				st.SumI, st.MinI, st.MaxI = v, v, v
				continue
			}
			st.SumI += v
			st.MinI, st.MaxI = min(st.MinI, v), max(st.MaxI, v)
		case value.Float:
			st.F = append(st.F, floatFromBits(binary.LittleEndian.Uint64(tuple[off:])))
		default:
			n := int(binary.LittleEndian.Uint16(tuple[off:]))
			b := tuple[off+2 : off+2+n]
			if first {
				c.min, c.max = append(c.min[:0], b...), append(c.max[:0], b...)
			} else if cmp := bytes.Compare(b, c.min); cmp < 0 {
				c.min = append(c.min[:0], b...)
			} else if cmp > 0 && bytes.Compare(b, c.max) > 0 {
				c.max = append(c.max[:0], b...)
			}
		}
	}
}

// flush folds the run into the CM and empties it.
func (r *cmRun) flush() {
	if r.n == 0 {
		return
	}
	for i := range r.runs {
		if st := &r.runs[i]; st.Kind == value.String {
			st.MinS, st.MaxS = viewString(r.cols[i].min), viewString(r.cols[i].max)
		}
	}
	r.cm.AddRun(r.key, r.cb, r.n, r.runs)
	for i := range r.runs {
		r.runs[i].F = r.runs[i].F[:0]
	}
	r.n = 0
}
