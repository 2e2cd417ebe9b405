package main

import (
	"bytes"
	"net"
	"regexp"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/shard"
	"repro/internal/wire"
)

// startServer runs one in-process wire.Server on loopback.
func startServer(t *testing.T) string {
	t.Helper()
	srv := &wire.Server{F: field.Mersenne(), Workers: 1}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	return ln.Addr().String()
}

// startSplitRouter fronts two fresh servers with a router that splits
// dataset S = 2 across them.
func startSplitRouter(t *testing.T, dataset string) string {
	t.Helper()
	tbl := &shard.Table{
		Shards: []shard.ShardInfo{{Name: "s1", Addr: startServer(t)}, {Name: "s2", Addr: startServer(t)}},
		Splits: map[string]*shard.SplitSpec{dataset: {Slices: 2, Owners: []string{"s1", "s2"}}},
	}
	r, err := shard.NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()
	t.Cleanup(func() { _ = r.Close() })
	return ln.Addr().String()
}

var shaRE = regexp.MustCompile(`sha256 ([0-9a-f]{64})`)

// runBattery runs the client and returns its verdict lines (every line
// naming a query) and, in -cached mode, the proof digests they carry.
func runBattery(t *testing.T, args ...string) (verdicts, digests []string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-logu", "10", "-n", "1024", "-seed", "7"}, args...), &out); err != nil {
		t.Fatalf("run %v: %v\n%s", args, err, out.String())
	}
	for _, line := range strings.Split(out.String(), "\n") {
		if !strings.Contains(line, "ACCEPTED") && !strings.Contains(line, "REJECTED") &&
			!strings.Contains(line, "REFUSED") && !strings.Contains(line, "error") {
			continue
		}
		verdicts = append(verdicts, line)
		if m := shaRE.FindStringSubmatch(line); m != nil {
			digests = append(digests, m[1])
		}
	}
	return verdicts, digests
}

// TestBatteries drives every battery × mode against a live server: each
// query must be ACCEPTED, and -queries repeats the battery.
func TestBatteries(t *testing.T) {
	addr := startServer(t)
	for _, tc := range []struct {
		name string
		args []string
		want int // verdict lines
	}{
		{"all", []string{"-kinds", "all", "-circuit", "F2"}, 4},
		{"all-cached", []string{"-kinds", "all", "-circuit", "F2", "-cached"}, 4},
		{"seam", []string{"-kinds", "seam", "-queries", "2", "-concurrency", "2"}, 6},
		{"seam-cached", []string{"-kinds", "seam", "-cached"}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			verdicts, digests := runBattery(t, append([]string{"-addr", addr}, tc.args...)...)
			if len(verdicts) != tc.want {
				t.Fatalf("%d verdict lines, want %d: %q", len(verdicts), tc.want, verdicts)
			}
			cached := strings.HasSuffix(tc.name, "-cached")
			for _, v := range verdicts {
				if !strings.Contains(v, ": ACCEPTED") || cached != strings.Contains(v, "ACCEPTED offline") {
					t.Errorf("verdict %q", v)
				}
			}
			if cached && len(digests) != tc.want {
				t.Errorf("%d proof digests on %d lines", len(digests), tc.want)
			}
		})
	}
}

// TestCachedDigestsMatchThroughSplitRouter is the bit-identity check
// the -cached sha256 exists for: the same (name, stream) fetched from a
// single engine and through a router splitting the dataset S = 2 prints
// the same digests.
func TestCachedDigestsMatchThroughSplitRouter(t *testing.T) {
	args := []string{"-dataset", "big", "-kinds", "seam", "-cached"}
	_, direct := runBattery(t, append([]string{"-addr", startServer(t)}, args...)...)
	_, routed := runBattery(t, append([]string{"-addr", startSplitRouter(t, "big")}, args...)...)
	if len(direct) != 3 || strings.Join(direct, " ") != strings.Join(routed, " ") {
		t.Fatalf("proof digests differ:\n direct %v\n routed %v", direct, routed)
	}
}

// TestRunRefusals: bad flag combinations are errors, not exits.
func TestRunRefusals(t *testing.T) {
	for _, args := range [][]string{
		{"-kinds", "nosuch"},
		{"-kinds", "seam", "-circuit", "F2"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err == nil {
			t.Errorf("run %v succeeded", args)
		}
	}
}
