package wal

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/sim"
)

func newLog() (*Log, *sim.Disk) {
	d := sim.NewDisk(sim.Config{PageSize: 128})
	return NewLog(d), d
}

func TestAppendReplayRoundTrip(t *testing.T) {
	l, _ := newLog()
	var want []Record
	for i := 0; i < 50; i++ {
		r := Record{
			Type:    RecInsert,
			Target:  fmt.Sprintf("table%d", i%3),
			Payload: bytes.Repeat([]byte{byte(i)}, i%40),
		}
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
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
	if err == nil {
		t.Fatal("Append succeeded through a failed page write")
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
