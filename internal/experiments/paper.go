package experiments

import (
	"fmt"
	"io"
	"slices"
	"strings"

	"repro/internal/datagen"
)

// Result is what every experiment returns: a value that prints itself in
// the paper's table/series layout.
type Result interface{ Print(io.Writer) }

// Experiment is one entry of Paper: a named, paper-scale configuration
// of one of the Run* functions.
type Experiment struct {
	Name    string   // the name cmbench -exp selects it by
	Title   string   // section heading when it differs from Name
	Aliases []string // other names selecting the same experiment
	// Run builds the fixture at scale times the paper-scale row counts
	// and runs the experiment on it.
	Run func(scale int) (Result, error)
}

// Heading is the section title cmbench prints above the result.
func (e Experiment) Heading() string {
	if e.Title != "" {
		return e.Title
	}
	return e.Name
}

// Paper is the paper's evaluation in the paper's order — Figures 1–3,
// Tables 3–5, Figures 6–10, Table 6 — at the row counts whose page-count
// ratios reproduce each result's shape. It is the one place those
// configurations are written down.
var Paper = []Experiment{
	{Name: "figure1", Run: configured(RunFigure1, func(scale int) Figure1Config {
		return Figure1Config{TPCH: datagen.TPCHConfig{Orders: 6000 * scale, Suppliers: 500 * scale}}
	})},
	{Name: "figure2", Run: configured(RunFigure2, func(scale int) Figure2Config {
		return Figure2Config{SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 400 * scale}}
	})},
	{Name: "figure3", Run: configured(RunFigure3, func(scale int) Figure3Config {
		return Figure3Config{Orders: 20000 * scale}
	})},
	{Name: "table3", Run: configured(RunTable3, func(scale int) Table3Config {
		return Table3Config{SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200 * scale}}
	})},
	{Name: "tables45", Title: "tables 4 and 5", Aliases: []string{"table4", "table5"},
		Run: configured(RunAdvisorTables, func(scale int) AdvisorTablesConfig {
			return AdvisorTablesConfig{SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 120 * scale}}
		})},
	{Name: "figure6", Run: configured(RunFigure6, func(scale int) Figure6Config {
		return Figure6Config{EBay: datagen.EBayConfig{Categories: 600 * scale}}
	})},
	{Name: "figure7", Run: configured(RunFigure7, func(scale int) Figure7Config {
		return Figure7Config{EBay: datagen.EBayConfig{Categories: 600 * scale}}
	})},
	{Name: "figure8", Run: configured(RunFigure8, func(scale int) Figure8Config {
		return Figure8Config{EBay: datagen.EBayConfig{Categories: 300 * scale}, InsertRows: 50000 * scale, BatchSize: 5000}
	})},
	{Name: "figure9", Run: configured(RunFigure9, func(scale int) Figure9Config {
		return Figure9Config{EBay: datagen.EBayConfig{Categories: 300 * scale}}
	})},
	{Name: "figure10", Run: configured(RunFigure10, func(scale int) Figure10Config {
		return Figure10Config{EBay: datagen.EBayConfig{Categories: 600 * scale}}
	})},
	{Name: "table6", Run: configured(RunTable6, func(scale int) Table6Config {
		return Table6Config{SDSS: datagen.SDSSConfig{Stripes: 10, FieldsPerStripe: 25, ObjsPerField: 200 * scale}}
	})},
}

// configured binds one Run* function to its paper-scale configuration.
func configured[C any, R Result](run func(C) (R, error), at func(scale int) C) func(int) (Result, error) {
	return func(scale int) (Result, error) {
		res, err := run(at(scale))
		if err != nil {
			return nil, err
		}
		return res, nil
	}
}

// Names lists what Select accepts, as "a|b|…|all".
func Names() string {
	names := make([]string, 0, len(Paper)+1)
	for _, e := range Paper {
		names = append(names, e.Name)
	}
	return strings.Join(append(names, "all"), "|")
}

// Select returns the experiments name stands for: all of Paper for
// "all", otherwise the one entry with that name or alias.
func Select(name string) ([]Experiment, error) {
	if name == "all" {
		return Paper, nil
	}
	for i, e := range Paper {
		if e.Name == name || slices.Contains(e.Aliases, name) {
			return Paper[i : i+1], nil
		}
	}
	return nil, fmt.Errorf("unknown experiment %q (try %s)", name, Names())
}
