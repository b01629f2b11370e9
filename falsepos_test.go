// False-positive test: how much a CM point probe over-reads on the
// Figure 6 fixture, pinned from the engine's own counts.
package repro

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/datagen"
	"repro/internal/heap"
	"repro/internal/value"
)

// TestFigure6FalsePositivePages answers, for the fixture every bench/
// workload runs (60,000 items clustered on cat in buckets of one page's
// worth of tuples, a CM on subcat), how many of the heap pages a CM
// point probe sweeps hold no match. The clustered buckets average 52.3
// tuples against a page's 45: the builder (core.Builder) closes a bucket
// only at the first key change after its target, so a bucket's rows end
// past the page they fill and most buckets straddle a page boundary —
// 2.136 directory pages per bucket. A probe on one subcat reads the
// pages of every bucket its eight cats fall in: 4.482 pages per subcat,
// the mean over all 500, of which 3.638 hold a match, so 18.8 % of the
// pages swept are false positives. The pages counted from the directory
// and the heap are the ones the probes' sweeps report (the
// cm.subcat_cm.pages_swept and .false_positive_pages counters).
func TestFigure6FalsePositivePages(t *testing.T) {
	db, tbl := itemsFixture(t, 1)
	in := tbl.inner
	in.RLock()
	nb, pages := in.Buckets().NumBuckets(), in.Heap().NumPages()
	refs := 0
	for b := range int32(nb) {
		p, _ := in.PageDir().Refs(b)
		refs += len(p)
	}
	// The pages a probe on each subcat sweeps, from the CM and the
	// directory, and those that hold one of its rows, from the heap.
	cm := cmOn(in, 1)
	swept, matching := 0, 0
	for k := range int64(datagen.CorrelatedSubcats) {
		seen := map[int64]bool{}
		for _, b := range cm.Lookup(value.NewInt(k)) {
			for _, p := range in.PageDir().AppendPages(nil, b) {
				seen[p] = true
			}
		}
		swept += len(seen)
	}
	holds := map[[2]int64]bool{}
	if err := in.Scan([]int{1}, func(rid heap.RID, row value.Row) bool {
		holds[[2]int64{row[1].I, rid.Page}] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	matching = len(holds)
	in.RUnlock()

	probes := float64(datagen.CorrelatedSubcats)
	got := fmt.Sprintf("%d buckets over %d pages, %.3f directory pages per bucket; a probe sweeps %.3f pages, %.3f hold a match",
		nb, pages, float64(refs)/float64(nb), float64(swept)/probes, float64(matching)/probes)
	t.Log(got)
	const want = "1147 buckets over 1334 pages, 2.136 directory pages per bucket; a probe sweeps 4.482 pages, 3.638 hold a match"
	if got != want {
		t.Errorf("got  %s\nwant %s", got, want)
	}

	// The engine's sweeps read exactly those pages.
	before, beforeFP := metricValue(t, db, "cm.subcat_cm.pages_swept"), metricValue(t, db, "cm.subcat_cm.false_positive_pages")
	for k := range int64(datagen.CorrelatedSubcats) {
		spec := QuerySpec{Table: "items", Via: CMScan, CM: "subcat_cm", Preds: []Pred{Eq("subcat", IntVal(k))}}
		if err := db.SelectSpec(context.Background(), spec, func(Row) bool { return true }); err != nil {
			t.Fatal(err)
		}
	}
	sweptBy, fpBy := metricValue(t, db, "cm.subcat_cm.pages_swept")-before, metricValue(t, db, "cm.subcat_cm.false_positive_pages")-beforeFP
	if sweptBy != int64(swept) || sweptBy-fpBy != int64(matching) {
		t.Errorf("the probes swept %d pages, %d of them false positives; the directory and heap say %d and %d",
			sweptBy, fpBy, swept, swept-matching)
	}
}
