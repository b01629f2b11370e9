package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

func newLog() (*Log, *sim.Disk) {
	d := sim.NewDisk(sim.Config{PageSize: 128})
	return NewLog(d), d
}

// TestAppendReplayRoundTrip replays what was appended, including a
// record with the longest target the frame's u16 length holds; one byte
// more is refused and leaves the log as it was.
func TestAppendReplayRoundTrip(t *testing.T) {
	l, _ := newLog()
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{
			Type:    RecInsert,
			Target:  fmt.Sprintf("table%d", i%3),
			Payload: bytes.Repeat([]byte{byte(i)}, i%40),
		}
		if i == 20 {
			r.Target = strings.Repeat("t", 0xFFFF)
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	length := l.Len()
	if err := l.Append(Record{Type: RecInsert, Target: strings.Repeat("t", 0x10000)}); err == nil || l.Len() != length {
		t.Fatalf("Append of a 65,536-byte target: %v, length %d, want an error and %d", err, l.Len(), length)
	}
	l.Flush()
	var got []Record
	if err := l.Replay(func(r Record) bool {
		got = append(got, r)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].Target != want[i].Target ||
			!bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestRecordsSpanPages(t *testing.T) {
	l, d := newLog()
	// One record much larger than a 128-byte page.
	big := bytes.Repeat([]byte{7}, 500)
	if err := l.Append(Record{Type: RecCheckpoint, Target: "cm", Payload: big}); err != nil {
		t.Fatal(err)
	}
	l.Flush()
	if d.NumPages(l.file) < 4 {
		t.Errorf("pages = %d, record should span several", d.NumPages(l.file))
	}
	n := 0
	if err := l.Replay(func(r Record) bool {
		n++
		if !bytes.Equal(r.Payload, big) {
			t.Error("payload corrupted across pages")
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Errorf("replayed %d records", n)
	}
}

func TestFlushCostsSync(t *testing.T) {
	l, d := newLog()
	if err := l.Append(Record{Type: RecCommit, Target: "t"}); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Syncs
	l.Flush()
	if d.Stats().Syncs != before+1 {
		t.Error("flush should fsync")
	}
	if l.Flushes() != 1 {
		t.Errorf("flushes = %d", l.Flushes())
	}
}

func TestSequentialWritePattern(t *testing.T) {
	l, d := newLog()
	payload := bytes.Repeat([]byte{1}, 100)
	for i := 0; i < 20; i++ {
		if err := l.Append(Record{Type: RecInsert, Target: "t", Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	st := d.Stats()
	// Log writes must be overwhelmingly sequential.
	if st.SeqWrites < st.RandWrites {
		t.Errorf("log writes not sequential: seq=%d rand=%d", st.SeqWrites, st.RandWrites)
	}
}

func TestReplayEarlyStop(t *testing.T) {
	l, _ := newLog()
	for i := 0; i < 10; i++ {
		if err := l.Append(Record{Type: RecInsert, Target: "t"}); err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	if err := l.Replay(func(Record) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("visited %d records after stop", n)
	}
}

func TestEmptyLogReplay(t *testing.T) {
	l, _ := newLog()
	if err := l.Replay(func(Record) bool {
		t.Error("unexpected record")
		return true
	}); err != nil {
		t.Fatal(err)
	}
}

func TestAppendsCounter(t *testing.T) {
	l, _ := newLog()
	for i := 0; i < 5; i++ {
		if err := l.Append(Record{Type: RecDelete, Target: "x"}); err != nil {
			t.Fatal(err)
		}
	}
	if l.Appends() != 5 {
		t.Errorf("appends = %d", l.Appends())
	}
	if l.Len() == 0 {
		t.Error("length should grow")
	}
}

func TestReplayFrom(t *testing.T) {
	l, _ := newLog()
	var lsns []int64
	for i := 0; i < 10; i++ {
		lsns = append(lsns, l.Len())
		if err := l.Append(Record{Type: RecInsert, Target: "t", Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	l.Flush()
	// Replay from the 6th record's boundary: exactly 5 records follow.
	var got []byte
	if err := l.ReplayFrom(lsns[5], func(r Record) bool {
		got = append(got, r.Payload[0])
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("replayed %d records from LSN, want 5", len(got))
	}
	for i, b := range got {
		if int(b) != i+5 {
			t.Fatalf("record %d payload = %d", i, b)
		}
	}
	// From the end: nothing.
	n := 0
	if err := l.ReplayFrom(l.Len(), func(Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("replay from end yielded %d records", n)
	}
	// Out of range LSNs fail.
	if err := l.ReplayFrom(-1, func(Record) bool { return true }); err == nil {
		t.Error("negative LSN accepted")
	}
	if err := l.ReplayFrom(l.Len()+1, func(Record) bool { return true }); err == nil {
		t.Error("past-end LSN accepted")
	}
}

// TestAppendOfManyRecordsIsAtomic: a page write that fails part way
// through one Append of many records — after an earlier page of them
// reached disk — leaves none of them in the log: its length, its append
// count, its file's pages and what Replay returns are as before the
// call, the rollback reads nothing back, and the next Append continues
// from there.
func TestAppendOfManyRecordsIsAtomic(t *testing.T) {
	l, d := newLog()
	rec := func(i int) Record {
		return Record{Type: RecInsert, Target: "t", Payload: bytes.Repeat([]byte{byte(i)}, 30)}
	}
	var kept []Record
	for i := 0; i < 3; i++ {
		kept = append(kept, rec(i))
	}
	if err := l.Append(kept...); err != nil {
		t.Fatal(err)
	}
	length, appends := l.Len(), l.Appends()
	pages, reads := d.NumPages(l.file), d.Stats().Reads
	var batch []Record
	for i := 3; i < 13; i++ {
		batch = append(batch, rec(i))
	}
	// The batch fills the 128-byte tail page and the one after it: the
	// second page write fails once the first has gone to disk.
	d.SetFaultPlan(&sim.FaultPlan{FailWriteN: 2})
	err := l.Append(batch...)
	d.SetFaultPlan(nil)
	if !errors.Is(err, sim.ErrInjected) || !strings.HasPrefix(err.Error(), "wal: append: ") {
		t.Fatalf("Append through a failed page write returned %v", err)
	}
	if l.Len() != length || l.Appends() != appends {
		t.Fatalf("after the failed Append: length %d, %d appends; want %d, %d", l.Len(), l.Appends(), length, appends)
	}
	if n, r := d.NumPages(l.file), d.Stats().Reads; n != pages || r != reads {
		t.Fatalf("after the failed Append: %d pages, %d reads; want %d pages and no read (%d)", n, r, pages, reads)
	}
	replayed := func() []Record {
		t.Helper()
		var got []Record
		if err := l.Replay(func(r Record) bool {
			r.Payload = bytes.Clone(r.Payload)
			got = append(got, r)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		return got
	}
	same := func(got, want []Record) bool {
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Type != want[i].Type || got[i].Target != want[i].Target || !bytes.Equal(got[i].Payload, want[i].Payload) {
				return false
			}
		}
		return true
	}
	if got := replayed(); !same(got, kept) {
		t.Fatalf("replay after the failed Append returned %d records, want the %d before it", len(got), len(kept))
	}
	if err := l.Append(batch[:2]...); err != nil {
		t.Fatal(err)
	}
	if got, want := replayed(), append(kept, batch[:2]...); !same(got, want) {
		t.Fatalf("replay after the next Append returned %d records, want %d", len(got), len(want))
	}
}

// TestAppendFailsWhereverThePageFills fails the write of the page an
// Append fills, with the page's end inside each piece of the frame in
// turn — type and target length, target, payload length, payload — and
// on a fresh log whose first page the record overflows. Each Append
// returns the fault and leaves the log's length and pages as they were.
func TestAppendFailsWhereverThePageFills(t *testing.T) {
	rec := Record{Type: RecInsert, Target: "ab", Payload: []byte{1, 2, 3, 4}} // a 13-byte frame
	for room := 1; room <= 14; room++ {
		l, d := newLog()
		if room < 14 {
			// An empty-target filler leaves room bytes of the 128-byte page.
			if err := l.Append(Record{Type: RecInsert, Payload: make([]byte, 121-room)}); err != nil {
				t.Fatal(err)
			}
		} else {
			rec.Payload = make([]byte, 200)
		}
		length, pages := l.Len(), d.NumPages(l.file)
		d.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
		err := l.Append(rec)
		d.SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) {
			t.Fatalf("room %d: Append through a failed page write returned %v", room, err)
		}
		if l.Len() != length || d.NumPages(l.file) != pages {
			t.Fatalf("room %d: length %d over %d pages after the failed Append, want %d over %d", room, l.Len(), d.NumPages(l.file), length, pages)
		}
	}
}

// TestTailWrites counts the page writes of Flush and ReplayFrom: each
// writes the tail page when it holds appended bytes not yet written,
// the first page of a fresh log too, and a tail that a record filled
// exactly (written by the Append itself) is not written again.
func TestTailWrites(t *testing.T) {
	for _, c := range []struct {
		name    string
		payload int // of an empty-target record; a frame is 7 bytes more
		writes  uint64
	}{
		{"one record on the first page", 10, 1},
		{"a record that fills the first page", 121, 0},
		{"a record one byte past the first page", 122, 1},
	} {
		for _, op := range []string{"Flush", "ReplayFrom"} {
			l, d := newLog()
			if err := l.Append(Record{Type: RecInsert, Payload: make([]byte, c.payload)}); err != nil {
				t.Fatal(err)
			}
			before := d.Stats().Writes
			var err error
			if op == "Flush" {
				err = l.Flush()
			} else {
				err = l.ReplayFrom(0, func(Record) bool { return true })
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := d.Stats().Writes - before; got != c.writes {
				t.Errorf("%s: %s wrote %d pages, want %d", c.name, op, got, c.writes)
			}
			// Either made the tail durable: a Flush now writes nothing.
			before = d.Stats().Writes
			if err := l.Flush(); err != nil || d.Stats().Writes != before {
				t.Errorf("%s: a Flush after %s: %v, %d page writes", c.name, op, err, d.Stats().Writes-before)
			}
		}
	}
	l, d := newLog()
	if err := l.Append(Record{Type: RecInsert}); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	before := d.Stats().Writes
	if err := l.Flush(); err != nil || d.Stats().Writes != before {
		t.Errorf("a second Flush with nothing appended: %v, %d page writes", err, d.Stats().Writes-before)
	}
}

// TestReplayFaults: a ReplayFrom whose write of the tail or read of a
// page fails returns the fault and no record.
func TestReplayFaults(t *testing.T) {
	for _, fp := range []sim.FaultPlan{{FailWriteN: 1}, {FailReadN: 1}, {FailReadN: 2}} {
		l, d := newLog()
		for i := 0; i < 5; i++ {
			if err := l.Append(Record{Type: RecInsert, Target: "t", Payload: make([]byte, 50)}); err != nil {
				t.Fatal(err)
			}
		}
		d.SetFaultPlan(&fp)
		n := 0
		err := l.ReplayFrom(0, func(Record) bool { n++; return true })
		d.SetFaultPlan(nil)
		if !errors.Is(err, sim.ErrInjected) || n != 0 {
			t.Errorf("%+v: ReplayFrom returned %v after %d records", fp, err, n)
		}
	}
}

// TestReplayFromMidRecord replays from an LSN inside a record's payload,
// which holds a frame's bytes, or a cut-off frame: a frame that ends
// exactly at the log's end is a record, and one a byte short is
// reported as truncated in the piece it is short of.
func TestReplayFromMidRecord(t *testing.T) {
	frame := func(target string, plen uint32, payload int) []byte {
		b := []byte{byte(RecDelete), byte(len(target)), byte(len(target) >> 8)}
		b = append(b, target...)
		b = append(b, byte(plen), byte(plen>>8), byte(plen>>16), byte(plen>>24))
		return append(b, make([]byte, payload)...)
	}
	for _, c := range []struct {
		tail []byte
		want string // the error, or "" for one record
	}{
		{frame("", 0, 0), ""},
		{frame("", 0, 0)[:6], "truncated record header"},
		{frame("ab", 0, 0), ""},
		{frame("ab", 0, 0)[:8], "truncated record target"},
		{frame("ab", 3, 3), ""},
		{frame("ab", 3, 2), "truncated record payload"},
	} {
		l, _ := newLog()
		if err := l.Append(Record{Type: RecInsert, Target: "t", Payload: c.tail}); err != nil {
			t.Fatal(err)
		}
		n := 0
		err := l.ReplayFrom(l.Len()-int64(len(c.tail)), func(r Record) bool {
			n++
			if r.Type != RecDelete || len(r.Target) != int(c.tail[1]) {
				t.Errorf("tail %v: replayed %+v", c.tail, r)
			}
			return true
		})
		switch {
		case c.want == "" && (err != nil || n != 1):
			t.Errorf("tail %v: %d records, %v; want one record", c.tail, n, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("tail %v: %v, want %q", c.tail, err, c.want)
		}
	}
}

// TestFlushHistogram: a wired histogram records each successful Flush's
// wall time, and not a failed one.
func TestFlushHistogram(t *testing.T) {
	l, d := newLog()
	h := metrics.NewHistogram([]int64{int64(time.Millisecond)})
	l.SetFlushHistogram(h)
	for i := 0; i < 2; i++ {
		if err := l.Append(Record{Type: RecCommit, Target: "t"}); err != nil {
			t.Fatal(err)
		}
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Append(Record{Type: RecCommit, Target: "t"}); err != nil {
		t.Fatal(err)
	}
	d.SetFaultPlan(&sim.FaultPlan{FailWriteN: 1})
	err := l.Flush()
	d.SetFaultPlan(nil)
	if err == nil {
		t.Fatal("Flush succeeded through a failed tail write")
	}
	if s := h.Snapshot(); s.Count != 2 || s.Max > int64(time.Minute) {
		t.Fatalf("histogram after two Flushes and a failed one: %d observations, max %v", s.Count, time.Duration(s.Max))
	}
}

// TestLogPaysItsWaits: with real waits on, each of Append, Flush and
// ReplayFrom pays the waits it charged before it returns, once: the
// disk's slept time trails its virtual time, divided by the scale, by
// less than the disk's 2 ms pay-out chunk.
func TestLogPaysItsWaits(t *testing.T) {
	d := sim.NewDisk(sim.Config{PageSize: 128, SeekCost: 3 * time.Millisecond, SeqPageCost: time.Millisecond, RealWaitScale: 1})
	l := NewLog(d)
	check := func(step string) {
		t.Helper()
		s := d.Stats()
		if s.IOWait > s.Elapsed || s.Elapsed-s.IOWait >= 2*time.Millisecond {
			t.Fatalf("after %s: slept %v of %v charged", step, s.IOWait, s.Elapsed)
		}
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: RecInsert, Target: "t", Payload: make([]byte, 300)}); err != nil {
			t.Fatal(err)
		}
		check("Append")
		if err := l.Flush(); err != nil {
			t.Fatal(err)
		}
		check("Flush")
	}
	if err := l.ReplayFrom(0, func(Record) bool { return true }); err != nil {
		t.Fatal(err)
	}
	check("ReplayFrom")
}
