package repro

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// TestFuzzAccessMethodEquivalence drives randomized tables, maintenance
// streams and queries through all five access paths and requires
// identical result sets everywhere. This is the end-to-end guarantee the
// paper's design rests on: the CM is a lossy structure whose false
// positives the executor filters, so it must never change query results.
func TestFuzzAccessMethodEquivalence(t *testing.T) {
	for trial := 0; trial < 8; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + trial)))
			db := Open(Config{})
			tbl, err := db.CreateTable(TableSpec{
				Name: "t",
				Columns: []Column{
					{Name: "c", Kind: Int},
					{Name: "u", Kind: Int},
					{Name: "w", Kind: Float},
					{Name: "s", Kind: String},
				},
				ClusteredBy:  []string{"c"},
				BucketTuples: 1 + rng.Intn(40),
			})
			if err != nil {
				t.Fatal(err)
			}
			domain := int64(50 + rng.Intn(500))
			corrNoise := int64(1 + rng.Intn(4))
			makeRow := func(i int) Row {
				c := rng.Int63n(domain)
				u := c/7 + rng.Int63n(corrNoise)
				return Row{
					IntVal(c),
					IntVal(u),
					FloatVal(float64(c) + rng.Float64()),
					StringVal(fmt.Sprintf("s%02d", c%37)),
				}
			}
			n := 1500 + rng.Intn(2000)
			rows := make([]Row, n)
			for i := range rows {
				rows[i] = makeRow(i)
			}
			if err := tbl.Load(rows); err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateIndex("u_ix", "u"); err != nil {
				t.Fatal(err)
			}
			level := rng.Intn(5)
			if err := tbl.CreateCM("u_cm", CMColumn{Name: "u", Level: level}); err != nil {
				t.Fatal(err)
			}
			if err := tbl.CreateCM("s_cm", CMColumn{Name: "s"}); err != nil {
				t.Fatal(err)
			}

			// A maintenance stream: inserts and deletes.
			for i := 0; i < 150; i++ {
				if err := tbl.Insert(makeRow(n + i)); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := db.DeleteCtx(context.Background(), tbl.Name(), Eq("u", IntVal(rng.Int63n(domain/7+1)))); err != nil {
				t.Fatal(err)
			}
			if err := tbl.Commit(); err != nil {
				t.Fatal(err)
			}

			// Random queries over u (indexed + CM'd) or over the
			// clustering column c (clustered-index scan: the inserted
			// rows sit at the heap tail, outside their clustered
			// buckets' page ranges, and must still be found), with
			// extra preds.
			for qi := 0; qi < 8; qi++ {
				var preds []Pred
				methods := []AccessMethod{SortedIndexScan, PipelinedIndexScan, CMScan, Auto}
				switch rng.Intn(7) {
				case 0:
					preds = append(preds, Eq("u", IntVal(rng.Int63n(domain/7+2))))
				case 1:
					lo := rng.Int63n(domain / 7)
					preds = append(preds, Between("u", IntVal(lo), IntVal(lo+3)))
				case 2:
					preds = append(preds, In("u",
						IntVal(rng.Int63n(domain/7+2)),
						IntVal(rng.Int63n(domain/7+2)),
						IntVal(rng.Int63n(domain/7+2))))
				case 3:
					methods = []AccessMethod{ClusteredIndexScan, Auto}
					preds = append(preds, Eq("c", IntVal(rng.Int63n(domain))))
				case 4:
					methods = []AccessMethod{ClusteredIndexScan, Auto}
					preds = append(preds, In("c", IntVal(rng.Int63n(domain)),
						IntVal(rng.Int63n(domain)), IntVal(rng.Int63n(domain))))
				case 5:
					methods = []AccessMethod{ClusteredIndexScan, Auto}
					lo := rng.Int63n(domain)
					preds = append(preds, Between("c", IntVal(lo), IntVal(lo+domain/5)))
				case 6:
					methods = []AccessMethod{ClusteredIndexScan, Auto}
					preds = append(preds, Gt("c", IntVal(rng.Int63n(domain))))
				}
				if rng.Intn(2) == 0 {
					preds = append(preds, Le("w", FloatVal(float64(domain)*0.7)))
				}
				if rng.Intn(3) == 0 {
					preds = append(preds, Eq("s", StringVal(fmt.Sprintf("s%02d", rng.Intn(37)))))
				}

				collect := func(m AccessMethod) []string {
					var got []string
					if err := db.SelectSpec(context.Background(), QuerySpec{Table: tbl.Name(), Via: m, Preds: preds}, func(r Row) bool {
						got = append(got, fmt.Sprintf("%v|%v|%v|%v", r[0], r[1], r[2], r[3]))
						return true
					}); err != nil {
						t.Fatalf("trial %d query %d method %v: %v", trial, qi, m, err)
					}
					sort.Strings(got)
					return got
				}
				want := collect(TableScan)
				for _, m := range methods {
					got := collect(m)
					if len(got) != len(want) {
						t.Fatalf("trial %d query %d: %v returned %d rows, scan %d",
							trial, qi, m, len(got), len(want))
					}
					for i := range got {
						if got[i] != want[i] {
							t.Fatalf("trial %d query %d: %v row %d differs", trial, qi, m, i)
						}
					}
				}
			}
		})
	}
}

// TestCMSizeInvariant checks the headline size property across scales:
// CM size grows with distinct pairs, not with row count, while the dense
// index grows linearly with rows.
func TestCMSizeInvariant(t *testing.T) {
	sizes := map[int][2]int64{}
	for _, n := range []int{2000, 8000} {
		db := Open(Config{})
		tbl, err := db.CreateTable(TableSpec{
			Name: "t",
			Columns: []Column{
				{Name: "c", Kind: Int},
				{Name: "u", Kind: Int},
			},
			ClusteredBy: []string{"c"},
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(7))
		rows := make([]Row, n)
		for i := range rows {
			c := rng.Int63n(200) // fixed domain: pairs don't grow with n
			rows[i] = Row{IntVal(c), IntVal(c / 5)}
		}
		if err := tbl.Load(rows); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateIndex("u_ix", "u"); err != nil {
			t.Fatal(err)
		}
		if err := tbl.CreateCM("u_cm", CMColumn{Name: "u"}); err != nil {
			t.Fatal(err)
		}
		sizes[n] = [2]int64{tbl.CMs()[0].SizeBytes, tbl.Indexes()[0].SizeBytes}
	}
	small, large := sizes[2000], sizes[8000]
	if large[0] != small[0] {
		t.Errorf("CM size changed with row count: %d -> %d (domain fixed)", small[0], large[0])
	}
	if large[1] < 3*small[1] {
		t.Errorf("dense index should grow ~linearly: %d -> %d", small[1], large[1])
	}
}
