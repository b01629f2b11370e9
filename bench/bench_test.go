package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestSmoke runs the whole benchmark at smoke-test sizes (a 6000-row
// fixture, one round of 300 ms, a 600-request mixed_rw round,
// 50-statement samples) and asserts the schema of what it emits, so that
// `go test` in this directory keeps the harness compiling and honest as
// the engine changes.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-rounds", "1", "-seconds", "0.3", "-quick", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstderr:\n%s", code, stderr.String())
	}
	raw, err := os.ReadFile(filepath.Join(out, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("result.json: %v", err)
	}
	if doc.Oracle != "pass" {
		t.Errorf("oracle verdict %q, want pass", doc.Oracle)
	}
	if len(doc.Workloads) != 4 {
		t.Fatalf("%d workloads, want 4", len(doc.Workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(doc.EndToEnd) > 16 || len(doc.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, limits are 16 and 128", len(doc.EndToEnd), len(doc.PerLayer))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), doc.EndToEnd...), doc.PerLayer...) {
		if !name.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if d.Unit == "" || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	hasSetup := false
	for _, d := range doc.EndToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower"
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range doc.Workloads {
		if !name.MatchString(w.Name) || w.Attempted < 1 || w.Failed != 0 {
			t.Errorf("workload %q: attempted %d, failed %d", w.Name, w.Attempted, w.Failed)
		}
		for _, d := range doc.EndToEnd {
			if s, ok := w.EndToEnd[d.Name]; !ok || s.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v (present %v); it must be positive on every workload", w.Name, d.Name, s.Value, ok)
			}
		}
		for _, d := range doc.PerLayer {
			if _, ok := w.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", w.Name, d.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(out, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", w.Name, err)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json at the root of the repository
// in step with the metric dictionary and the workload list. The driver
// gates a subset of the workloads (README.md, "Noise"), so every listed
// workload must be one of the harness's, not the other way round.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bm struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if len(bm.Workloads) < 2 {
		t.Fatalf("%d workloads listed, the contract wants at least 2", len(bm.Workloads))
	}
	for _, listed := range bm.Workloads {
		w := workloadByName(listed.Name)
		if w == nil || listed.Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %q: not in the harness, or its why differs or exceeds 200 characters", listed.Name)
		}
	}
	same := func(kind string, listed []metric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Fatalf("%d %s metrics listed, the dictionary has %d", len(listed), kind, len(defs))
		}
		for i, d := range defs {
			m := listed[i]
			if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: listed %+v, dictionary %+v", kind, i, m, d)
			}
			if bounded != (m.Bound != nil) || bounded && *m.Bound != d.Bound {
				t.Errorf("%s metric %s: bound does not match the dictionary's %v", kind, d.Name, d.Bound)
			}
		}
	}
	same("end-to-end", bm.EndToEnd, endToEnd, true)
	same("per-layer", bm.PerLayer, perLayer, false)
}
