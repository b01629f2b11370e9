// Command cmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	cmbench -exp figure3            # one experiment
//	cmbench -exp all                # everything (default)
//	cmbench -exp figure8 -scale 4   # scale row counts up
//
// Output is printed in the paper's table/series layout; elapsed values
// are virtual disk-bound times from the simulated disk (see
// ARCHITECTURE.md §7). The experiments and their paper-scale
// configurations are the table experiments.Paper; this command only
// selects from it and prints.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment: "+experiments.Names())
	scale := flag.Int("scale", 1, "row-count multiplier over the bench defaults")
	flag.Parse()

	if err := run(os.Stdout, *exp, *scale); err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

func run(out io.Writer, exp string, scale int) error {
	if scale < 1 {
		scale = 1
	}
	selected, err := experiments.Select(exp)
	if err != nil {
		return err
	}
	for _, e := range selected {
		fmt.Fprintf(out, "\n===== %s =====\n", e.Heading())
		res, err := e.Run(scale)
		if err != nil {
			return err
		}
		res.Print(out)
	}
	return nil
}
