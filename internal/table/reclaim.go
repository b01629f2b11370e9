package table

import (
	"slices"
	"sync"

	"repro/internal/heap"
)

// This file bounds the heap: it decides when a statement's outgoing row
// versions are dead, and where a statement's new versions go.
//
// A version ended by a published statement at timestamp ts is invisible
// to every snapshot taken at or after ts. Facade readers take their
// snapshot inside a shared latch hold and keep it only that long, and
// Publish runs under the exclusive latch, so once Publish returns only a
// pinned snapshot (PinSnapshot) older than ts can still read the version.
// Its CM pairs and page-directory reference left at Publish; retirement
// deletes its index entries and marks it dead in the heap, at once
// without such a pin, else once an exclusive hold finds the pin gone. A
// version an UPDATE replaced in place has only the slot's pre-image, and
// the same rule drops that. An aborted statement's versions, which no
// snapshot reads, retire at once (see WriteTxn.rollback). A step that
// reads a page can fail; its statement then stays queued with its
// progress for the next writer. The same step freezes the pages the
// statement wrote or ended (heap.File.Freeze), so only pages written
// since the oldest snapshot that can still be taken keep per-slot
// versions.

// placement is one clustered bucket's share of the running statement:
// the versions it still has to place and their heap.TupleCosts, and the
// page they are filling.
type placement struct {
	cost, tuples int
	page         int64
	open         bool // page is set
}

// retiredStmt is a finished statement's outgoing versions — a published
// one's old versions, an aborted one's new versions and replaced slots —
// with its other versions, whose pages refold with theirs (touched). The
// page steps of the first done are complete, and ixs index deletes of
// the next.
type retiredStmt struct {
	ts        uint64
	aborted   bool
	versions  []rowVersion
	touched   []rowVersion
	done, ixs int
}

// PinSnapshot pins the published clock as a snapshot that stays readable
// across latch releases: no version that snapshot can see is reclaimed
// until release runs (once; later calls do nothing). It is for callers
// that keep a snapshot longer than one shared latch hold; a statement
// run through the facade needs none. Call it without holding the latch.
func (t *Table) PinSnapshot() (snap uint64, release func()) {
	t.pinMu.Lock()
	// Publish stores its clock before it reads the pins, so either this
	// pin is registered before that read, or it reads the new clock.
	snap = t.clock.Load()
	t.pins = append(t.pins, snap)
	t.pinMu.Unlock()
	var once sync.Once
	return snap, func() {
		once.Do(func() {
			t.pinMu.Lock()
			i := slices.Index(t.pins, snap)
			t.pins = slices.Delete(t.pins, i, i+1)
			t.pinMu.Unlock()
		})
	}
}

// horizon returns the oldest snapshot that exists or can still be
// taken: the oldest pin, else the published clock.
func (t *Table) horizon() uint64 {
	t.pinMu.Lock()
	defer t.pinMu.Unlock()
	if len(t.pins) == 0 {
		return t.clock.Load()
	}
	return slices.Min(t.pins)
}

// retire queues statement s, published or aborted at s.ts, for
// reclamation and drains the queue. Caller holds the latch exclusively,
// after storing the clock.
func (t *Table) retire(s retiredStmt) error {
	t.retired = append(t.retired, s)
	return t.drain()
}

// drain works through the queue, oldest first: each statement's page
// steps, then, once no pin can read its versions (at once for an aborted
// statement), their reclamation. It stops at the first page step that
// fails and returns its error. Caller holds the latch exclusively.
func (t *Table) drain() error {
	if len(t.retired) == 0 {
		return nil
	}
	horizon := t.horizon()
	kept := t.retired[:0]
	var err error
	for i := range t.retired {
		s := t.retired[i]
		if err == nil {
			err = t.pageSteps(&s)
		}
		if err == nil && (s.aborted || s.ts <= horizon) {
			t.reclaim(s, horizon)
			continue
		}
		kept = append(kept, s)
	}
	clear(t.retired[len(kept):])
	t.retired = kept
	return err
}

// pageSteps does what of s's removal reads pages, from where it stopped:
// the index entries of each version that leaves its slot, and, for an
// aborted statement, the pre-image copied back into each slot it replaced
// in place (heap.File.RestoreAt).
func (t *Table) pageSteps(s *retiredStmt) error {
	for ; s.done < len(s.versions); s.done, s.ixs = s.done+1, 0 {
		v := s.versions[s.done]
		if v.inPlace {
			if s.aborted {
				if err := t.heapf.RestoreAt(v.rid); err != nil {
					return err
				}
			}
			continue
		}
		for ; s.ixs < len(t.secondary); s.ixs++ {
			if _, err := t.secondary[s.ixs].Delete(v.row, v.rid); err != nil {
				return err
			}
		}
	}
	return nil
}

// reclaim hands statement s's versions — slots, or a published
// statement's pre-images — back to the heap, and freezes the pages s
// wrote or ended against horizon, the oldest snapshot that exists or can
// still be taken.
func (t *Table) reclaim(s retiredStmt, horizon uint64) {
	for _, v := range s.versions {
		// The versions are invisible to every snapshot left; a failure (a
		// bug) can only leave the slot unreclaimed, never make a row wrong.
		switch {
		case !v.inPlace:
			_ = t.heapf.MarkDead(v.rid, int(v.size))
		case !s.aborted:
			_ = t.heapf.DropPreImage(v.rid)
		}
		t.heapf.Freeze(v.rid.Page, horizon)
	}
	for _, v := range s.touched {
		t.heapf.Freeze(v.rid.Page, horizon)
	}
}

// reserve adds a new version of n encoded bytes to clustered bucket cb's
// need, so the bucket's first placement can pick one page for all of its
// versions; a row that stays in its slot reserves nothing. It runs under
// the writer gate, outside the latch.
func (tx *WriteTxn) reserve(cb int32, n int) {
	p := tx.t.placing[cb]
	p.cost += heap.TupleCost(n)
	p.tuples++
	tx.t.placing[cb] = p
}

// place stores one new version of bucket cb: on the page the bucket is
// filling while it fits, else on the page pickPage chooses for the
// bucket's remaining versions. Caller holds the latch exclusively.
func (tx *WriteTxn) place(enc []byte, cb int32) (heap.RID, error) {
	t := tx.t
	cost := heap.TupleCost(len(enc))
	p := t.placing[cb]
	if !p.open || !t.heapf.Fits(p.page, cost, 1) {
		p.page, p.open = t.pickPage(cb, max(p.cost, cost), max(p.tuples, 1), cost), true
	}
	rid, err := t.heapf.PutAt(p.page, enc, tx.ts)
	if err != nil {
		return rid, err
	}
	p.cost, p.tuples = p.cost-cost, p.tuples-1
	t.placing[cb] = p
	return rid, nil
}

// pickPage chooses the page for the remaining tuples of bucket cb, whose
// TupleCosts sum to cost (at most a page's worth is asked for), the next
// of them costing next: the bucket's own page with the least room that
// fits them, else the reclaimed page that fits them most tightly, else
// the tail page if next fits, else a new page. Every choice is made from
// memory, reading no page.
func (t *Table) pickPage(cb int32, cost, tuples, next int) int64 {
	h := t.heapf
	cost = min(cost, h.EmptyRoom())
	fits := func(page int64) bool { return h.Fits(page, cost, tuples) && h.Fits(page, next, 1) }
	best, bestRoom := int64(-1), 0
	roomiest, most := int64(-1), 0
	for _, ref := range t.pageDir.refsOf(cb) {
		page := refPage(ref)
		room := h.Room(page)
		if fits(page) && (best < 0 || room < bestRoom) {
			best, bestRoom = page, room
		}
		if h.Fits(page, next, 1) && room > most {
			roomiest, most = page, room
		}
	}
	if best >= 0 {
		return best
	}
	if page, ok := h.BestFit(cost, tuples); ok && h.Fits(page, next, 1) {
		return page
	}
	if roomiest >= 0 {
		return roomiest
	}
	if n := h.NumPages(); h.Fits(n-1, next, 1) {
		return n - 1
	}
	return h.NumPages()
}

// DeadVersions returns how many versions await reclamation: dead in the
// heap and not yet pruned or overwritten, plus those queued behind a pin
// or a failed cleanup step. Caller holds the latch (shared suffices).
func (t *Table) DeadVersions() int64 {
	n := t.heapf.DeadVersions()
	for _, r := range t.retired {
		n += int64(len(r.versions))
	}
	return n
}

// OldestPinAge returns how many commits the oldest pinned snapshot lags
// the published clock; 0 without pins.
func (t *Table) OldestPinAge() int64 {
	return int64(t.clock.Load() - t.horizon())
}
