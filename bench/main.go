// Command bench is the engine's one benchmark: four wire workloads, the
// end-to-end metrics of BENCHMARK.json measured untraced, and a separate
// traced pass that says layer by layer where the time went. See
// README.md in this directory for the metric dictionary.
//
//	go run .                                  all workloads, both passes, writes out/result.json
//	go run . -selfcheck                       the same twice, compared against each metric's bound
//	go run . -workload point_cold -trace 0    one workload, end-to-end metrics, result as the last line
//	go run . -workload point_cold -trace 1    one workload, per-layer metrics from the traced pass
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"

	"repro/internal/datagen"
)

type options struct {
	workload  string
	seed      int64
	seconds   float64 // measured seconds per workload, split over the rounds
	rounds    int     // each on a fixture of its own, so also the number of set-ups
	trace     int     // 0 untraced only, 1 traced only, -1 both
	out       string
	selfcheck bool

	warmup  float64 // per round
	rows    int     // fixture size
	maxStmt int     // caps the traced and cold samples; 0 = the workload's own size
}

// sample caps a workload's sample size (the smoke test shrinks it).
func (o *options) sample(n int) int {
	if o.maxStmt > 0 {
		return min(n, o.maxStmt)
	}
	return n
}

// workloadResult is one workload's section of the result document.
type workloadResult struct {
	Name          string             `json:"name"`
	Why           string             `json:"why"`
	EndToEnd      map[string]stat    `json:"end_to_end,omitempty"`
	ClassP50Ms    map[string]stat    `json:"class_p50_ms,omitempty"`
	SlowestClass  string             `json:"slowest_class,omitempty"`
	CPUMsPerReq   stat               `json:"cpu_ms_per_req"`
	ReadP99Ms     stat               `json:"read_p99_ms"`
	PerLayer      map[string]float64 `json:"per_layer,omitempty"`
	SpecEntry     map[string]string  `json:"spec_entry,omitempty"`
	PeelViolation string             `json:"peel_violation,omitempty"`
	Attempted     int64              `json:"attempted"`
	Failed        int64              `json:"failed"`
	Notes         []string           `json:"notes,omitempty"`
}

type environment struct {
	NProc      int     `json:"nproc"`
	GoMaxProcs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	WindowS    float64 `json:"window_s"`
	Conns      int     `json:"conns"`
}

type document struct {
	Env       environment       `json:"env"`
	Oracle    string            `json:"oracle"`
	EndToEnd  []metricDef       `json:"end_to_end_metrics"`
	PerLayer  []metricDef       `json:"per_layer_metrics"`
	Workloads []*workloadResult `json:"workloads"`
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	// One P and one closed-loop connection: on the shared 2-core sandbox a
	// goroutine hand-off between two virtual CPUs costs 0.1-0.3 ms and
	// wanders with the host (the same point probe measures 0.14-0.29 ms
	// on two Ps and 0.131 +- 0.004 ms on one), so every request runs
	// start to finish on one thread. What is measured is the work per
	// request along the whole wire path, not contention between requests.
	runtime.GOMAXPROCS(1)
	opt := &options{}
	var quick bool
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opt.workload, "workload", "", "run only this workload (default: all four)")
	fs.Int64Var(&opt.seed, "seed", 1, "statement stream seed")
	fs.Float64Var(&opt.seconds, "seconds", 25, "measured seconds per workload")
	fs.IntVar(&opt.rounds, "rounds", 5, "rounds the measured seconds are split into, each on a fresh fixture")
	fs.IntVar(&opt.trace, "trace", -1, "0: end-to-end metrics only, 1: traced pass only, -1: both")
	fs.StringVar(&opt.out, "out", "out", "directory for result.json and the span files")
	fs.BoolVar(&opt.selfcheck, "selfcheck", false, "run everything twice and compare the medians against each metric's bound")
	fs.BoolVar(&quick, "quick", false, "smoke-test sizes: a 6000-row fixture, 0.1 s warm-up, 50-statement samples")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.warmup, opt.rows = 0.5, fixtureRows
	if quick {
		opt.warmup, opt.rows, opt.maxStmt = 0.1, fixtureRows/10, 50
	}
	ws := workloads
	if opt.workload != "" {
		w := workloadByName(opt.workload)
		if w == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", opt.workload)
			return 2
		}
		ws = []*workload{w}
	}
	if opt.rounds < 1 || opt.seconds <= 0 || opt.trace < -1 || opt.trace > 1 {
		fmt.Fprintln(stderr, "bench: -rounds and -seconds must be positive, -trace one of -1, 0, 1")
		return 2
	}

	doc, err := measure(ws, opt)
	if err != nil {
		// A wrong answer or a broken run prints no metrics.
		fmt.Fprintf(stderr, "bench: FAILED: %v\n", err)
		return 1
	}
	report(stdout, doc)
	code := 0
	if opt.selfcheck {
		again, err := measure(ws, opt)
		if err != nil {
			fmt.Fprintf(stderr, "bench: FAILED on the second run: %v\n", err)
			return 1
		}
		if !compare(stdout, doc, again) {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(opt.out, "result.json"), doc); err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	if len(ws) == 1 && opt.trace >= 0 {
		fmt.Fprintln(stdout, contractLine(doc.Workloads[0], opt.trace))
	}
	return code
}

// measure runs the untraced rounds and the traced pass as opt selects.
func measure(ws []*workload, opt *options) (*document, error) {
	items := datagen.CorrelatedItems(opt.rows)
	doc := &document{
		Env: environment{
			NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Commit: commit(),
			Seed: opt.seed, Rounds: opt.rounds, WindowS: opt.seconds / float64(opt.rounds), Conns: 1,
		},
		EndToEnd: endToEnd, PerLayer: perLayer,
	}
	if opt.trace != 1 {
		var err error
		if doc.Workloads, err = runUntraced(ws, opt, items); err != nil {
			return nil, err
		}
	} else {
		for _, w := range ws {
			doc.Workloads = append(doc.Workloads, &workloadResult{Name: w.name, Why: w.why})
		}
	}
	if opt.trace != 0 {
		for i, w := range ws {
			if err := runTraced(w, opt, items, doc.Workloads[i]); err != nil {
				return nil, fmt.Errorf("%s: traced pass: %w", w.name, err)
			}
		}
	}
	// Every reply was checked on the way and the first wrong one ends the
	// run with an error, so reaching this point is the oracle's verdict.
	doc.Oracle = "pass"
	return doc, nil
}

// report prints every metric by name with its unit and bound.
func report(w io.Writer, doc *document) {
	e := doc.Env
	fmt.Fprintf(w, "env: nproc=%d gomaxprocs=%d %s commit=%s seed=%d rounds=%d window=%.2fs conns=%d\n",
		e.NProc, e.GoMaxProcs, e.GoVersion, e.Commit, e.Seed, e.Rounds, e.WindowS, e.Conns)
	fmt.Fprintf(w, "oracle: %s (every reply checked against the naive model)\n", doc.Oracle)
	for _, r := range doc.Workloads {
		fmt.Fprintf(w, "\n== %s — %s\n", r.Name, r.Why)
		if len(r.EndToEnd) > 0 {
			fmt.Fprintf(w, "   attempted=%d failed=%d\n", r.Attempted, r.Failed)
			fmt.Fprintf(w, "   %-24s %14s %-7s %-7s %6s  %s\n", "end-to-end metric", "median", "unit", "better", "bound", "[min .. max] n")
			for _, d := range endToEnd {
				s := r.EndToEnd[d.Name]
				fmt.Fprintf(w, "   %-24s %14.6g %-7s %-7s %5.0f%%  [%.6g .. %.6g] n=%d\n", d.Name, s.Value, d.Unit, d.Better, d.Bound*100, s.Min, s.Max, s.N)
			}
			classes := make([]string, 0, len(r.ClassP50Ms))
			for name := range r.ClassP50Ms {
				classes = append(classes, name)
			}
			sort.Strings(classes)
			for _, name := range classes {
				s := r.ClassP50Ms[name]
				fmt.Fprintf(w, "   class %-18s %14.6g ms p50 [%.6g .. %.6g]\n", name, s.Value, s.Min, s.Max)
			}
			fmt.Fprintf(w, "   slowest class: %s\n", r.SlowestClass)
			fmt.Fprintf(w, "   process CPU per request  %14.6g ms [%.6g .. %.6g] (not gated)\n", r.CPUMsPerReq.Value, r.CPUMsPerReq.Min, r.CPUMsPerReq.Max)
			fmt.Fprintf(w, "   read p99 of a round      %14.6g ms [%.6g .. %.6g] (not gated)\n", r.ReadP99Ms.Value, r.ReadP99Ms.Min, r.ReadP99Ms.Max)
		}
		if len(r.PerLayer) > 0 {
			fmt.Fprintf(w, "   %-34s %14s %s\n", "per-layer metric (traced pass)", "value", "unit")
			for _, d := range perLayer {
				fmt.Fprintf(w, "   %-34s %14.6g %s\n", d.Name, r.PerLayer[d.Name], d.Unit)
			}
			if r.PeelViolation == "" {
				fmt.Fprintln(w, "   peel check: parse+bind+plan+run <= facade.exec per statement (median); spec-level rows equal the facade's")
			} else {
				fmt.Fprintf(w, "   peel check FAILED: %s\n", r.PeelViolation)
			}
		}
		for _, n := range r.Notes {
			fmt.Fprintf(w, "   note: %s\n", n)
		}
	}
}

// compare prints, per (metric, workload), both runs' medians, their
// ratio and PASS/FAIL against the metric's bound. It reports whether
// every pair passed.
func compare(w io.Writer, a, b *document) bool {
	ok := true
	fmt.Fprintf(w, "\nselfcheck: two runs of the same binary\n%-18s %-24s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "ratio", "")
	for i, ra := range a.Workloads {
		rb := b.Workloads[i]
		for _, d := range endToEnd {
			x, y := ra.EndToEnd[d.Name].Value, rb.EndToEnd[d.Name].Value
			if x == 0 {
				continue
			}
			ratio := y / x
			worse := ratio - 1
			if d.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "PASS"
			if worse > d.Bound {
				verdict, ok = "FAIL", false
			}
			fmt.Fprintf(w, "%-18s %-24s %14.6g %14.6g %8.4f %6s\n", ra.Name, d.Name, x, y, ratio, verdict)
		}
	}
	return ok
}

// contractLine renders the one-line result the driver reads: exactly the
// keys correct, attempted, failed and metrics.
func contractLine(r *workloadResult, trace int) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if trace == 0 {
		for _, d := range endToEnd {
			metrics[d.Name] = value{r.EndToEnd[d.Name].Value, d.Unit}
		}
	} else {
		for _, d := range perLayer {
			metrics[d.Name] = value{r.PerLayer[d.Name], d.Unit}
		}
	}
	b, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.Attempted, r.Failed, metrics})
	return string(b)
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
