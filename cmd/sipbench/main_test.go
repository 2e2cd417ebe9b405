package main

import (
	"bytes"
	"errors"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func smallBench(out *bytes.Buffer) *bench {
	b := newBench(out)
	b.maxLogU, b.maxLogUOne, b.span, b.seed, b.workers = 12, 10, 1000, 1, 1
	return b
}

// headers is the first line each experiment prints under its banner.
var headers = map[string]string{
	"fig2a":     "Figure 2(a)",
	"fig2b":     "Figure 2(b)",
	"fig2c":     "Figure 2(c)",
	"fig3a":     "Figure 3(a)",
	"fig3b":     "Figure 3(b)",
	"tamper":    "Tamper suite",
	"branching": "Branching-factor ablation",
	"gkr":       "GKR ablation",
	"freq":      "Frequency-based functions",
	"ipv6":      "IPv6 extrapolation",
}

// TestAll runs every experiment in one process, as -experiment all does:
// each prints its banner and header, the tamper suite rejects every row,
// and no (protocol, u) point is measured more than once although three
// Figure 2 views, two Figure 3 views and the IPv6 estimate share them.
func TestAll(t *testing.T) {
	var out bytes.Buffer
	b := smallBench(&out)
	if err := b.run("all"); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, e := range experiments {
		h, ok := headers[e.name]
		if !ok {
			t.Fatalf("experiment %s has no header in this test's table", e.name)
		}
		if !strings.Contains(got, "== "+e.name+" ==\n"+h) {
			t.Errorf("%s: banner and header %q not printed", e.name, h)
		}
	}

	if !strings.Contains(got, "all tampering attempts rejected") || strings.Contains(got, "ACCEPTED") {
		t.Errorf("tamper suite did not reject every row:\n%s", got)
	}
	if n := strings.Count(got, "REJECTED (correct)"); n < 8 {
		t.Errorf("tamper suite printed %d rejected rows, want at least 8", n)
	}

	want := map[point]int{
		{"multi-round", 10}: 1, {"multi-round", 12}: 1, {"multi-round", 20}: 1,
		{"one-round", 10}:  1,
		{"sub-vector", 10}: 1, {"sub-vector", 12}: 1,
	}
	if !reflect.DeepEqual(b.runs, want) {
		t.Errorf("harness runs per point = %v, want %v", b.runs, want)
	}
	// The views print from the shared rows: each sweep point appears once
	// per view.
	if n := strings.Count(got, "\nmulti-round "); n != 3*2 {
		t.Errorf("%d multi-round lines over three Figure 2 views, want 6", n)
	}
}

func TestOneExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := smallBench(&out).run("fig2c"); err != nil {
		t.Fatal(err)
	}
	if got := out.String(); strings.Count(got, "== ") != 1 || !strings.HasPrefix(got, "== fig2c ==\n") {
		t.Errorf("-experiment fig2c printed:\n%s", got)
	}
}

// TestUnknownExperiment: a typo is a usage error naming the valid
// experiments (main exits 2 on it), not a silent success.
func TestUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := smallBench(&out).run("nosuch")
	if !errors.Is(err, errUnknownExperiment) {
		t.Fatalf("run(nosuch) = %v, want a usage error", err)
	}
	if !strings.Contains(err.Error(), experimentNames()) {
		t.Errorf("usage error %q does not list %q", err, experimentNames())
	}
	if out.Len() != 0 {
		t.Errorf("an unknown experiment printed %q", out.String())
	}
}

// TestUsageMatchesTable keeps the package doc's usage block in step with
// the experiment table the command is driven from.
func TestUsageMatchesTable(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var doc []string
	for _, m := range regexp.MustCompile(`(?m)^//\tsipbench -experiment (\S+)`).FindAllSubmatch(src, -1) {
		doc = append(doc, string(m[1]))
	}
	if got := strings.Join(doc, " "); got != experimentNames() {
		t.Errorf("usage block lists %q, the table %q", got, experimentNames())
	}
}
