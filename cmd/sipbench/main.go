// Command sipbench regenerates the experimental series of Cormode, Thaler
// & Yi (VLDB 2011), §5 — one experiment per figure plus the in-text
// claims — printing rows that correspond to the paper's plots. It times
// the protocols only; the service around them (engine, wire, router,
// proof cache) is measured by `go run ./bench`.
//
// Usage:
//
//	sipbench -experiment fig2a          # verifier stream time vs n
//	sipbench -experiment fig2b          # prover time vs u
//	sipbench -experiment fig2c          # space & communication vs u
//	sipbench -experiment fig3a          # SUB-VECTOR prover/verifier time
//	sipbench -experiment fig3b          # SUB-VECTOR space & communication
//	sipbench -experiment tamper         # §5 robustness: all tampering rejected
//	sipbench -experiment branching      # §3.1 footnote-1 ℓ/d ablation
//	sipbench -experiment gkr            # §3 remark: GKR vs native F2
//	sipbench -experiment freq           # §6.2 frequency-based functions
//	sipbench -experiment ipv6           # §5 closing extrapolation
//	sipbench -experiment all
//
// An unknown experiment name lists the valid ones and exits 2.
//
// -maxlogu bounds the sweeps (default 20 multi-round, 16 one-round; the
// one-round prover is Θ(u^{3/2}) and dominates quickly, exactly as in
// Figure 2(b)). Each (protocol, u) point is measured once per process:
// with -experiment all, the three Figure 2 views print the same rows.
//
// -workers sets the prover's worker-pool size (default: all cores; 1 runs
// the serial prover). Transcripts, space, and communication are identical
// for every value — only prover wall-clock time changes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"repro/internal/field"
	"repro/internal/harness"
)

// experiments is the one ordered table main, the -experiment help
// string and the usage block above are driven from.
var experiments = []struct {
	name string
	run  func(*bench) error
}{
	{"fig2a", (*bench).fig2a},
	{"fig2b", (*bench).fig2b},
	{"fig2c", (*bench).fig2c},
	{"fig3a", (*bench).fig3a},
	{"fig3b", (*bench).fig3b},
	{"tamper", (*bench).tamper},
	{"branching", (*bench).branching},
	{"gkr", (*bench).gkr},
	{"freq", (*bench).freq},
	{"ipv6", (*bench).ipv6},
}

func experimentNames() string {
	names := make([]string, 0, len(experiments)+1)
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(append(names, "all"), " ")
}

// errUnknownExperiment is a failure of the command line (exit 2), not of
// an experiment (exit 1).
var errUnknownExperiment = errors.New("unknown experiment")

func main() {
	b := newBench(os.Stdout)
	experiment := flag.String("experiment", "all", "which experiment to run ("+experimentNames()+")")
	flag.IntVar(&b.maxLogU, "maxlogu", 20, "largest log2(u) for multi-round sweeps")
	flag.IntVar(&b.maxLogUOne, "maxlogu1", 16, "largest log2(u) for one-round sweeps (prover is Θ(u^{3/2}))")
	flag.Uint64Var(&b.span, "span", 1000, "SUB-VECTOR query span (the paper uses 1000)")
	flag.Uint64Var(&b.seed, "seed", 1, "workload seed")
	flag.IntVar(&b.workers, "workers", runtime.NumCPU(), "prover worker-pool size (1 = serial; transcripts are identical for every value)")
	flag.Parse()

	if err := b.run(*experiment); err != nil {
		fmt.Fprintln(os.Stderr, "sipbench:", err)
		if errors.Is(err, errUnknownExperiment) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// point is one measured (protocol, universe) pair.
type point struct {
	protocol string
	logU     int
}

// bench holds the options and the rows measured so far: every
// (protocol, u) is run through the harness once and each figure that
// needs it prints from the same row, so one figure's stream-time and the
// next figure's prove-time come from the same run.
type bench struct {
	f                   field.Field
	maxLogU, maxLogUOne int
	span, seed          uint64
	workers             int
	out                 io.Writer

	f2   map[point]harness.F2Row
	sub  map[point]harness.SubVectorRow
	runs map[point]int
}

func newBench(out io.Writer) *bench {
	return &bench{
		f: field.Mersenne(), out: out,
		f2: map[point]harness.F2Row{}, sub: map[point]harness.SubVectorRow{}, runs: map[point]int{},
	}
}

// run runs the named experiment, or every one in table order for "all".
func (b *bench) run(name string) error {
	ran := false
	for _, e := range experiments {
		if name != "all" && name != e.name {
			continue
		}
		ran = true
		fmt.Fprintf(b.out, "== %s ==\n", e.name)
		if err := e.run(b); err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		fmt.Fprintln(b.out)
	}
	if !ran {
		return fmt.Errorf("%w %q; valid: %s", errUnknownExperiment, name, experimentNames())
	}
	return nil
}

func logRange(lo, hi int) []int {
	var out []int
	for l := lo; l <= hi; l += 2 {
		out = append(out, l)
	}
	return out
}

// measured returns pt's cached row, or runs fn and caches its row. runs
// counts the calls to fn: main_test.go asserts no point is measured twice.
func measured[R any](b *bench, cache map[point]R, pt point, fn func() (R, error)) (R, error) {
	if row, ok := cache[pt]; ok {
		return row, nil
	}
	b.runs[pt]++
	row, err := fn()
	if err == nil {
		cache[pt] = row
	}
	return row, err
}

// f2Row is one Figure 2 point.
func (b *bench) f2Row(pt point) (harness.F2Row, error) {
	return measured(b, b.f2, pt, func() (harness.F2Row, error) {
		run := harness.F2MultiRound
		if pt.protocol == "one-round" {
			run = harness.F2OneRound
		}
		return run(b.f, 1<<pt.logU, 1000, b.seed, b.workers)
	})
}

// fig2 prints one view of the Figure 2 sweep: the multi-round rows up to
// -maxlogu, then the one-round rows up to -maxlogu1.
func (b *bench) fig2(print func(harness.F2Row)) error {
	for _, sweep := range []struct {
		protocol string
		max      int
	}{{"multi-round", b.maxLogU}, {"one-round", b.maxLogUOne}} {
		for _, lg := range logRange(10, sweep.max) {
			row, err := b.f2Row(point{sweep.protocol, lg})
			if err != nil {
				return err
			}
			print(row)
		}
	}
	return nil
}

// fig2a: verifier stream-processing time vs input size n (Figure 2(a)).
func (b *bench) fig2a() error {
	fmt.Fprintln(b.out, "Figure 2(a): verifier's time to process the stream (u = n)")
	fmt.Fprintf(b.out, "%-12s %12s %14s %16s %14s\n", "protocol", "n", "stream-time", "updates/sec", "check-time")
	return b.fig2(func(row harness.F2Row) {
		fmt.Fprintf(b.out, "%-12s %12d %14s %16.0f %14s\n", row.Protocol, row.N, row.StreamTime, row.UpdatesPerSec, row.CheckTime)
	})
}

// fig2b: prover's proof-generation time vs universe size (Figure 2(b)).
func (b *bench) fig2b() error {
	fmt.Fprintln(b.out, "Figure 2(b): prover's time to generate the proof")
	fmt.Fprintf(b.out, "%-12s %12s %14s %16s\n", "protocol", "u", "prove-time", "updates/sec")
	return b.fig2(func(row harness.F2Row) {
		fmt.Fprintf(b.out, "%-12s %12d %14s %16.0f\n", row.Protocol, row.U, row.ProveTime, float64(row.N)/row.ProveTime.Seconds())
	})
}

// fig2c: verifier space and communication vs universe size (Figure 2(c)).
func (b *bench) fig2c() error {
	fmt.Fprintln(b.out, "Figure 2(c): size of communication and working space")
	fmt.Fprintf(b.out, "%-12s %12s %14s %14s\n", "protocol", "u", "space-bytes", "comm-bytes")
	return b.fig2(func(row harness.F2Row) {
		fmt.Fprintf(b.out, "%-12s %12d %14d %14d\n", row.Protocol, row.U, row.SpaceBytes, row.CommBytes)
	})
}

// fig3 prints one view of the SUB-VECTOR sweep (Figure 3), measuring each
// u once.
func (b *bench) fig3(print func(harness.SubVectorRow)) error {
	for _, lg := range logRange(10, b.maxLogU) {
		row, err := measured(b, b.sub, point{"sub-vector", lg}, func() (harness.SubVectorRow, error) {
			return harness.SubVectorRun(b.f, 1<<lg, b.span, 1000, b.seed, b.workers)
		})
		if err != nil {
			return err
		}
		print(row)
	}
	return nil
}

// fig3a: SUB-VECTOR verifier and prover time — Figure 3(a).
func (b *bench) fig3a() error {
	fmt.Fprintf(b.out, "Figure 3(a): SUB-VECTOR verifier and prover time (span %d)\n", b.span)
	fmt.Fprintf(b.out, "%12s %14s %14s %14s\n", "u", "stream-time", "prove-time", "check-time")
	return b.fig3(func(row harness.SubVectorRow) {
		fmt.Fprintf(b.out, "%12d %14s %14s %14s\n", row.U, row.StreamTime, row.ProveTime, row.CheckTime)
	})
}

// fig3b: SUB-VECTOR space and communication — Figure 3(b).
func (b *bench) fig3b() error {
	fmt.Fprintf(b.out, "Figure 3(b): SUB-VECTOR space and communication (span %d)\n", b.span)
	fmt.Fprintf(b.out, "%12s %8s %14s %14s %18s\n", "u", "k", "space-bytes", "comm-bytes", "comm-minus-answer")
	return b.fig3(func(row harness.SubVectorRow) {
		fmt.Fprintf(b.out, "%12d %8d %14d %14d %18d\n", row.U, row.K, row.SpaceBytes, row.CommBytes, row.CommBytes-16*row.K)
	})
}

// tamper: §5 in-text robustness experiment.
func (b *bench) tamper() error {
	fmt.Fprintln(b.out, "Tamper suite (§5): every dishonest prover must be rejected")
	outcomes, err := harness.TamperSuite(b.f, 1<<10, b.seed)
	if err != nil {
		return err
	}
	allRejected := true
	for _, o := range outcomes {
		verdict := "REJECTED (correct)"
		if !o.Rejected {
			verdict = "ACCEPTED (soundness failure!)"
			allRejected = false
		}
		fmt.Fprintf(b.out, "%-16s %-24s %s\n", o.Query, o.Mode, verdict)
	}
	if !allRejected {
		return fmt.Errorf("a dishonest prover was accepted")
	}
	fmt.Fprintln(b.out, "all tampering attempts rejected — matches the paper")
	return nil
}

// branching: §3.1 footnote 1 ℓ/d ablation.
func (b *bench) branching() error {
	fmt.Fprintln(b.out, "Branching-factor ablation (§3.1 fn. 1): F2 over u = 2^12")
	rows, err := harness.BranchingSweep(b.f, 1<<12, []int{2, 4, 8, 16, 64}, b.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(b.out, "%6s %6s %10s %12s %14s %14s\n", "ell", "d", "rounds", "comm-words", "space-bytes", "prove-time")
	for _, r := range rows {
		fmt.Fprintf(b.out, "%6d %6d %10d %12d %14d %14s\n", r.Ell, r.D, r.Rounds, r.CommWords, r.SpaceBytes, r.ProveTime)
	}
	return nil
}

// gkr: §3 remark — the specialized F2 protocol vs the Theorem-3 (GKR)
// circuit protocol on the same stream.
func (b *bench) gkr() error {
	fmt.Fprintln(b.out, "GKR ablation (§3 remark): native F2 vs Muggles circuit protocol")
	fmt.Fprintf(b.out, "%8s %12s | %14s %14s | %14s %14s\n",
		"u", "protocol", "comm-words", "rounds", "prove-time", "check-time")
	for _, lg := range []int{4, 6, 8, 10} {
		native, gkrRow, err := harness.CompareF2(b.f, uint64(1)<<lg, b.seed)
		if err != nil {
			return err
		}
		for _, row := range []harness.CompareRow{native, gkrRow} {
			fmt.Fprintf(b.out, "%8d %12s | %14d %14d | %14s %14s\n",
				uint64(1)<<lg, row.Protocol, row.CommWords, row.Rounds, row.ProveTime, row.CheckTime)
		}
	}
	return nil
}

// freq: §6.2 frequency-based functions.
func (b *bench) freq() error {
	fmt.Fprintln(b.out, "Frequency-based functions (§6.2): F0 at φ = u^{-1/2}")
	fmt.Fprintf(b.out, "%10s %10s %12s %14s %14s\n", "u", "F0", "comm-words", "prove-time", "check-time")
	for _, lg := range []int{8, 10, 12} {
		row, err := harness.F0Run(b.f, uint64(1)<<lg, b.seed, b.workers)
		if err != nil {
			return err
		}
		fmt.Fprintf(b.out, "%10d %10d %12d %14s %14s\n", row.U, row.F0, row.CommWords, row.ProveTime, row.CheckTime)
	}
	return nil
}

// ipv6: §5 closing extrapolation to 1TB of IPv6 addresses, from the
// u = 2^20 multi-round point (shared with Figure 2 when the sweep reaches
// it).
func (b *bench) ipv6() error {
	row, err := b.f2Row(point{"multi-round", 20})
	if err != nil {
		return err
	}
	proveRate := float64(row.N) / row.ProveTime.Seconds()
	est := harness.IPv6Extrapolate(row.U, proveRate)
	fmt.Fprintln(b.out, "IPv6 extrapolation (§5): 1TB ≈ 6×10^10 addresses, log u = 128")
	fmt.Fprintf(b.out, "measured prover rate at u=2^%d: %.1f M updates/s\n", est.MeasuredLogU, est.MeasuredRate/1e6)
	fmt.Fprintf(b.out, "estimated prover time for 1TB IPv6: %.0f seconds (%.0f minutes)\n",
		est.EstimatedSeconds, est.EstimatedSeconds/60)
	fmt.Fprintln(b.out, "(the paper, on 2011 hardware at 20M upd/s, estimated ~12,000s / 200 min)")
	return nil
}
