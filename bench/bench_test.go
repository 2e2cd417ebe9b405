package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload at tiny sizes for a fraction of a
// second: each must emit exactly the metrics BENCHMARK.json names, in
// its units, with no failed op; the count metrics must repeat exactly;
// a second seed must work; and a traced run must write a span file
// whose ops are almost entirely covered by their child spans.
func TestSmoke(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloadOrder) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(sp.Workloads), len(workloadOrder))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloadOrder[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, w.Name, workloadOrder[i])
		}
	}
	for _, ms := range append(append([]metricSpec{}, sp.EndToEnd...), sp.PerLayer...) {
		if !metricNameRE.MatchString(ms.Name) {
			t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", ms.Name)
		}
		if ms.Unit == "" {
			t.Errorf("metric %s has no unit", ms.Name)
		}
	}
	for _, name := range workloadOrder {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{workload: name, seed: 1, seconds: 0.1, sz: tinySizes, setUps: 1}
			run := func() *runResult {
				t.Helper()
				res, err := runWorkload(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 || res.attempted == 0 {
					t.Fatalf("%d of %d ops failed: %v", res.failed, res.attempted, res.firstErr)
				}
				return res
			}
			a, b := run(), run()
			if err := a.matches(sp.EndToEnd, a.e2e); err != nil {
				t.Error(err)
			}
			if got := a.extra["error_rate"].Value; got != 0 {
				t.Errorf("error_rate = %v", got)
			}
			for _, ms := range sp.EndToEnd {
				if v := a.e2e[ms.Name].Value; v == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %v: end-to-end metrics are never 0", ms.Name, v)
				}
				if ms.Unit == "count" && a.e2e[ms.Name].Value != b.e2e[ms.Name].Value {
					t.Errorf("count metric %s differs between two runs of seed 1: %v, %v",
						ms.Name, a.e2e[ms.Name].Value, b.e2e[ms.Name].Value)
				}
			}

			cfg.seed, cfg.traced = 2, true
			cfg.spans = filepath.Join(t.TempDir(), "spans.json")
			c := run()
			if err := c.matches(sp.PerLayer, c.layer); err != nil {
				t.Error(err)
			}
			if self := c.layer["share.root_self_pct"].Value; self > 10 {
				t.Errorf("child spans leave %.1f%% of op time unaccounted for, want ≤ 10%%", self)
			}
			if name == "proof_fanout" {
				if got := c.layer["proofcache.hit_ratio"].Value; got != 15.0/16 {
					t.Errorf("proofcache.hit_ratio = %v, want exactly 15/16", got)
				}
			}
			raw, err := os.ReadFile(cfg.spans)
			if err != nil {
				t.Fatal(err)
			}
			var file spanFile
			if err := json.Unmarshal(raw, &file); err != nil {
				t.Fatal(err)
			}
			roots := 0
			for _, s := range file.Spans {
				if s.Parent == 0 && s.Name == "op" {
					roots++
				}
				if s.End < s.Start {
					t.Fatalf("span %d (%s) ends before it starts", s.ID, s.Name)
				}
			}
			if roots == 0 {
				t.Error("span file has no root op span")
			}
		})
	}
}

// TestCompare checks the verdicts of bench -compare and its quartiles
// against Python's statistics.quantiles(xs, n=4).
func TestCompare(t *testing.T) {
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
	sp := &spec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: "verified_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1},
			{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.1},
		},
	}
	dir := t.TempDir()
	write := func(name string, vals map[string][]float64) string {
		var file resultFile
		for metric, xs := range vals {
			for _, x := range xs {
				file.Rows = append(file.Rows, row{Name: metric, Workload: "w", Value: x})
			}
		}
		b, err := json.Marshal(file)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", map[string][]float64{
		"op_ms_p50": {10, 10.1, 9.9, 10}, "verified_ops_per_s": {100, 101, 99, 100}, "setup_s": {1, 1.5, 0.5, 1},
	})
	slower := write("new.json", map[string][]float64{
		"op_ms_p50": {12, 12.1, 11.9, 12}, "verified_ops_per_s": {120, 121, 119, 120}, "setup_s": {1, 1, 1, 1},
	})
	var out bytes.Buffer
	if err := compareFiles(&out, sp, old, slower); err == nil {
		t.Error("a 20% slower op_ms_p50 did not fail the comparison")
	}
	for _, want := range []string{"worse", "better", "unresolved"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks a %q row:\n%s", want, out.String())
		}
	}
	out.Reset()
	if err := compareFiles(&out, sp, old, old); err != nil {
		t.Errorf("a file compared with itself: %v", err)
	}
}
