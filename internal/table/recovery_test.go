package table

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/value"
)

// TestRecoverCMFromCheckpointAndLog reproduces the prototype's recovery
// story (Section 7.1): a CM is checkpointed, more logged changes arrive,
// the in-memory CM is "lost", and recovery reconstructs it from the
// checkpoint plus the WAL suffix.
func TestRecoverCMFromCheckpointAndLog(t *testing.T) {
	tbl, _ := newPeople(t)
	cm, err := tbl.CreateCM(core.Spec{Name: "city", UCols: []int{1}})
	if err != nil {
		t.Fatal(err)
	}

	// Some maintenance before the checkpoint.
	if _, err := insertRows(tbl, value.Row{
		value.NewString("OH"), value.NewString("boston"), value.NewInt(1),
	}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}

	var checkpoint bytes.Buffer
	lsn, err := tbl.CheckpointCM(cm, &checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	if lsn <= 0 {
		t.Fatal("checkpoint LSN not positive")
	}

	// Post-checkpoint maintenance: an insert and a delete, each the
	// records its statement's Publish logged.
	if _, err := insertRows(tbl, value.Row{
		value.NewString("MN"), value.NewString("boston"), value.NewInt(2),
	}); err != nil {
		t.Fatal(err)
	}
	var target heap.RID
	if err := tbl.Scan(nil, func(rid heap.RID, row value.Row) bool {
		if row[0].S == "NH" && row[1].S == "boston" {
			target = rid
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := deleteRows(tbl, target); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}

	// "Crash": recover a fresh CM from checkpoint + log suffix.
	recovered, err := tbl.RecoverCM(cm.Spec(), &checkpoint, lsn)
	if err != nil {
		t.Fatal(err)
	}
	if recovered.Keys() != cm.Keys() || recovered.Pairs() != cm.Pairs() ||
		recovered.SizeBytes() != cm.SizeBytes() {
		t.Fatalf("recovered CM differs: keys %d/%d pairs %d/%d size %d/%d",
			recovered.Keys(), cm.Keys(), recovered.Pairs(), cm.Pairs(),
			recovered.SizeBytes(), cm.SizeBytes())
	}
	// Identical lookup results, including the post-checkpoint changes:
	// boston gained MN and OH, lost NH.
	want := cm.Lookup(value.NewString("boston"))
	got := recovered.Lookup(value.NewString("boston"))
	if len(want) != len(got) {
		t.Fatalf("lookup %v vs %v", got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("lookup %v vs %v", got, want)
		}
	}
}

// TestRecoverCMFullLogWithoutCheckpoint replays from LSN 0 into an empty
// CM: only the logged (post-load) changes are reconstructed.
func TestRecoverCMFullLogWithoutCheckpoint(t *testing.T) {
	tbl, _ := newPeople(t)
	var rows []value.Row
	for i := 0; i < 5; i++ {
		rows = append(rows, value.Row{
			value.NewString("WY"), value.NewString("newtown"), value.NewInt(int64(i)),
		})
	}
	if _, err := insertRows(tbl, rows...); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Commit(); err != nil {
		t.Fatal(err)
	}
	cm, err := tbl.RecoverCM(core.Spec{Name: "city", UCols: []int{1}}, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Only the five logged inserts exist in the recovered CM.
	if cm.Keys() != 1 {
		t.Errorf("recovered keys = %d, want 1 (newtown)", cm.Keys())
	}
	got := cm.Lookup(value.NewString("newtown"))
	if len(got) != 1 {
		t.Errorf("newtown buckets = %v", got)
	}
	// Count survives: five removals empty the CM.
	for i := 0; i < 5; i++ {
		if err := cm.RemoveRow(value.Row{
			value.NewString("WY"), value.NewString("newtown"), value.NewInt(int64(i)),
		}, got[0]); err != nil {
			t.Fatal(err)
		}
	}
	if cm.Keys() != 0 {
		t.Error("co-occurrence counts not recovered correctly")
	}
}

func TestRecoverCMWithoutWALFails(t *testing.T) {
	d := simDiskForTest()
	tbl, err := New(poolForTest(d, 64), nil, Config{
		Name:          "t",
		Schema:        peopleSchema(),
		ClusteredCols: []int{0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.RecoverCM(core.Spec{Name: "c", UCols: []int{1}}, nil, 0); err == nil {
		t.Error("recovery without WAL should fail")
	}
}
