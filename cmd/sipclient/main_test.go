package main

import (
	"bytes"
	"fmt"
	"net"
	"regexp"
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/shard"
	"repro/internal/stream"
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
// interactive query must be ACCEPTED, and -queries repeats the battery.
// In -cached mode SELF-JOIN SIZE, the one posted kind, is ACCEPTED
// offline with its proof digest, and every other kind is REFUSED as a
// refusal, not a transport failure (run returns no error).
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
				switch {
				case cached && strings.HasPrefix(v, "SELF-JOIN SIZE"):
					if !strings.Contains(v, ": ACCEPTED offline") {
						t.Errorf("verdict %q", v)
					}
				case cached:
					if !strings.Contains(v, ": REFUSED — no posted proof for this kind; run without -cached") {
						t.Errorf("verdict %q", v)
					}
				case !strings.Contains(v, ": ACCEPTED") || strings.Contains(v, "offline"):
					t.Errorf("verdict %q", v)
				}
			}
			want := 0
			if cached {
				want = 1
			}
			if len(digests) != want {
				t.Errorf("%d proof digests, want %d", len(digests), want)
			}
		})
	}
}

// TestCachedDigestsMatchThroughSplitRouter is the bit-identity check
// the -cached sha256 exists for: the same (name, stream) fetched from a
// single engine and through a router splitting the dataset S = 2 prints
// the same SELF-JOIN SIZE digest, the seam battery's one posted kind.
func TestCachedDigestsMatchThroughSplitRouter(t *testing.T) {
	args := []string{"-dataset", "big", "-kinds", "seam", "-cached"}
	_, direct := runBattery(t, append([]string{"-addr", startServer(t)}, args...)...)
	_, routed := runBattery(t, append([]string{"-addr", startSplitRouter(t, "big")}, args...)...)
	if len(direct) != 1 || strings.Join(direct, " ") != strings.Join(routed, " ") {
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

// TestInteractiveOnePass: -queries 4 with the four-query battery holds
// 16 verifiers, and the client's one upload pass feeds all of them —
// every conversation is then accepted with no replay of the stream.
func TestInteractiveOnePass(t *testing.T) {
	var out bytes.Buffer
	args := []string{"-addr", startServer(t), "-logu", "10", "-n", "1024", "-queries", "4", "-circuit", "F2"}
	if err := run(args, &out); err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "one pass fed them to 16 held verifiers") {
		t.Fatalf("no one-pass line for 16 verifiers:\n%s", out.String())
	}
	if got := strings.Count(out.String(), ": ACCEPTED"); got != 16 {
		t.Fatalf("%d accepted conversations, want 16:\n%s", got, out.String())
	}
}

// recorder logs every update it observes under its own id.
type recorder struct {
	id  int
	log *[]string
}

func (r recorder) Observe(up stream.Update) error {
	*r.log = append(*r.log, fmt.Sprintf("%d:%d", r.id, up.Index))
	return nil
}

// TestUploadFeedsUpdateMajor: upload reads each update once and hands it
// to every sink before the next — sink after sink per update, not stream
// after stream per sink — across several ingest batches.
func TestUploadFeedsUpdateMajor(t *testing.T) {
	const u, n, sinks = 1 << 12, 9000, 3
	c, err := wire.Dial(startServer(t))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDataset("one-pass", u); err != nil {
		t.Fatal(err)
	}
	ups := stream.UnitIncrements(u, n, field.NewSplitMix64(3))
	var got, want []string
	var obs []observer
	for i := 0; i < sinks; i++ {
		obs = append(obs, recorder{i, &got})
	}
	for _, up := range ups {
		for i := 0; i < sinks; i++ {
			want = append(want, fmt.Sprintf("%d:%d", i, up.Index))
		}
	}
	if err := upload(c, ups, obs); err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatal("upload did not feed the sinks update by update in one pass")
	}
	if count, err := c.Ingest(nil); err != nil || count != n {
		t.Fatalf("server holds %d updates (%v), want %d", count, err, n)
	}
}
