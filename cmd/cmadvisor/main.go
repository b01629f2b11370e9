// Command cmadvisor demonstrates the CM Advisor on the synthetic SDSS
// catalog: it loads PhotoTag, runs the SX6-style training query through
// the advisor and prints the recommended correlation-map designs with
// size and performance estimates, then materializes the best one and
// verifies it against a table scan.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/advisor"
	"repro/internal/buffer"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/exec"
	"repro/internal/heap"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/wal"
)

func main() {
	rowsScale := flag.Int("scale", 1, "dataset scale multiplier")
	slowdown := flag.Float64("target", 10, "max slowdown vs B+Tree, percent")
	flag.Parse()
	if err := run(*rowsScale, *slowdown); err != nil {
		fmt.Fprintln(os.Stderr, "cmadvisor:", err)
		os.Exit(1)
	}
}

func run(scale int, slowdownPct float64) error {
	disk := sim.NewDisk(sim.Config{})
	pool := buffer.NewPool(disk, 4096)
	log := wal.NewLog(disk)
	tbl, err := table.New(pool, log, table.Config{
		Name:          "phototag",
		Schema:        datagen.SDSSSchema(),
		ClusteredCols: []int{datagen.SDSSObjID},
	})
	if err != nil {
		return err
	}
	rows := datagen.PhotoTag(datagen.SDSSConfig{
		Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 100 * scale,
	})
	if err := tbl.Load(rows); err != nil {
		return err
	}
	fmt.Printf("loaded phototag: %d rows, %d pages\n", tbl.Stats().TotalTups, tbl.Stats().Pages)

	adv, err := advisor.New(tbl, advisor.Config{})
	if err != nil {
		return err
	}

	q := exec.NewQuery(
		exec.In(datagen.SDSSFieldID, value.NewInt(110), value.NewInt(150)),
		exec.Eq(datagen.SDSSMode, value.NewInt(1)),
		exec.Eq(datagen.SDSSType, value.NewInt(6)),
		exec.Le(datagen.SDSSPsfMagG, value.NewFloat(20)),
	)
	fmt.Printf("training query: %s\n\n", q)

	cands, err := adv.Recommend(q, slowdownPct)
	if err != nil {
		return err
	}
	if len(cands) == 0 {
		fmt.Println("no design meets the performance target")
		return nil
	}
	sch := tbl.Schema()
	fmt.Printf("%d designs within +%.0f%% of the B+Tree baseline (smallest first):\n",
		len(cands), slowdownPct)
	limit := 10
	if len(cands) < limit {
		limit = len(cands)
	}
	for i, c := range cands[:limit] {
		fmt.Printf("%2d. %-40s size %8.1f KB  est %8.2f ms  slowdown %+6.1f%%\n",
			i+1, c.Describe(sch), float64(c.EstSize)/1024,
			float64(c.EstRuntime.Microseconds())/1000, c.SlowdownPct)
	}

	best := cands[0]
	cm, err := tbl.CreateCM(core.Spec{
		Name:      "advised",
		UCols:     best.Cols,
		Bucketers: best.Bucketers,
	})
	if err != nil {
		return err
	}
	fmt.Printf("\nmaterialized %s: actual size %.1f KB, %d keys, c_per_u %.2f\n",
		best.Describe(sch), float64(cm.SizeBytes())/1024, cm.Keys(), cm.CPerU())

	// Verify the CM answers the training query exactly.
	var viaCM, viaScan int
	if err := exec.CMScan(tbl, cm, q, 1, func(heap.RID, value.Row) bool { viaCM++; return true }); err != nil {
		return err
	}
	if err := exec.TableScan(tbl, q, 1, func(heap.RID, value.Row) bool { viaScan++; return true }); err != nil {
		return err
	}
	fmt.Printf("verification: CM scan %d rows, table scan %d rows — %s\n",
		viaCM, viaScan, map[bool]string{true: "MATCH", false: "MISMATCH"}[viaCM == viaScan])

	fds := adv.DiscoverFDs([]int{
		datagen.SDSSFieldID, datagen.SDSSRun, datagen.SDSSMjd,
		datagen.SDSSPsfMagG, datagen.SDSSPetroMagG, datagen.SDSSRowc,
	}, 0.8, false)
	fmt.Printf("\nstrongest discovered soft FDs (threshold 0.8):\n")
	for i, fd := range fds {
		if i >= 8 {
			break
		}
		det := ""
		for j, d := range fd.Determinant {
			if j > 0 {
				det += ","
			}
			det += sch.Cols[d].Name
		}
		fmt.Printf("  %-24s -> %-14s strength %.3f\n", det, sch.Cols[fd.Dependent].Name, fd.Strength)
	}
	return nil
}
