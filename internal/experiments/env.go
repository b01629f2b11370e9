// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7 plus the motivating experiments of Section 3.4).
// Each experiment returns a structured result and can print itself in the
// paper's format. Paper (paper.go) is the one table of the paper-scale
// configurations; cmd/cmbench selects from it and prints.
//
// Times reported as "elapsed" are virtual, disk-bound milliseconds from
// the simulated disk (paper constants: 5.5 ms seek, 0.078 ms/page) — the
// same methodology the paper itself uses for Table 3. Scales are reduced
// from the paper's multi-gigabyte tables but chosen so the page-count
// ratios that produce each result's shape are preserved; ARCHITECTURE.md
// §7 describes the method, and experiments_test.go asserts the shapes.
package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/buffer"
	"repro/internal/exec"
	"repro/internal/plan"
	"repro/internal/sim"
	"repro/internal/table"
	"repro/internal/value"
	"repro/internal/wal"
)

// Env is a fresh database environment: one simulated disk, buffer pool
// and WAL.
type Env struct {
	Disk *sim.Disk
	Pool *buffer.Pool
	Log  *wal.Log
}

// NewEnv creates an environment with the given buffer pool capacity in
// pages (the paper's machine has 1 GB RAM against multi-GB tables;
// experiments pick pool sizes preserving that pool-to-data ratio).
func NewEnv(poolPages int) *Env {
	d := sim.NewDisk(sim.Config{})
	return &Env{
		Disk: d,
		Pool: buffer.NewPool(d, poolPages),
		Log:  wal.NewLog(d),
	}
}

// Cold runs fn against a cold cache — the paper drops OS caches and
// restarts PostgreSQL between runs — and returns the virtual elapsed time
// and I/O statistics of fn alone.
func (e *Env) Cold(fn func() error) (time.Duration, sim.Stats, error) {
	if err := e.Pool.FlushAll(); err != nil {
		return 0, sim.Stats{}, err
	}
	e.Pool.Invalidate()
	e.Disk.ResetStats()
	err := fn()
	return e.Disk.Elapsed(), e.Disk.Stats(), err
}

// Warm runs fn without invalidating caches, still isolating its I/O
// statistics. The mixed-workload experiment uses this mode, where buffer
// pool contention is the effect under study.
func (e *Env) Warm(fn func() error) (time.Duration, sim.Stats, error) {
	e.Disk.ResetStats()
	err := fn()
	return e.Disk.Elapsed(), e.Disk.Stats(), err
}

// LoadTable creates and loads a clustered table in the environment.
func (e *Env) LoadTable(cfg table.Config, rows []value.Row) (*table.Table, error) {
	t, err := table.New(e.Pool, e.Log, cfg)
	if err != nil {
		return nil, err
	}
	if err := t.Load(rows); err != nil {
		return nil, err
	}
	return t, nil
}

// runForced runs q the way a user's statement with a forced access path
// runs (QuerySpec.Via): a one-conjunction plan.Spec with method m,
// compiled and run on one worker under the table's shared latch, each
// result row handed to fn. uses names the structure the figure measures:
// the CM a CM scan goes through, the index a sorted or pipelined scan
// must resolve to (the first index the query applies to), "" for a table
// scan. A forced method reads no statistics, and runForced fails when the
// plan reads anything but uses, so a figure cannot silently time another
// index or CM.
func runForced(tbl *table.Table, m exec.Method, uses string, q exec.Query, fn plan.RowSink) error {
	spec := plan.Spec{Disjuncts: []exec.Query{q}, Method: m}
	if m == exec.MethodCM {
		spec.CM = uses
	}
	tbl.RLock()
	defer tbl.RUnlock()
	tr, err := plan.Compile(tbl, spec, nil)
	if err != nil {
		return err
	}
	if got := tr.Explain().Uses; got != uses {
		return fmt.Errorf("experiments: forced %v reads %q, want %q", m, got, uses)
	}
	return tr.Run(1, plan.Sink{Row: fn})
}

// ms formats a duration as milliseconds with two decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// sec formats a duration as seconds with three decimals.
func sec(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// mb formats a byte count in megabytes.
func mb(n int64) string {
	return fmt.Sprintf("%.3f", float64(n)/(1<<20))
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
