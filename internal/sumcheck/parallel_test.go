package sumcheck

import (
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
)

// transcriptFor runs the full conversation (every round message, every
// fold) for the given worker count and returns everything the prover
// emitted.
func transcriptFor(t *testing.T, cfg Config, tables [][]field.Elem, challenges []field.Elem) []field.Elem {
	t.Helper()
	p, err := newScanned(cfg, tables...)
	if err != nil {
		t.Fatal(err)
	}
	var out []field.Elem
	for j := 0; j < cfg.Params.D; j++ {
		msg, err := p.RoundMessage()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, msg...)
		if j < cfg.Params.D-1 {
			if err := p.Fold(challenges[j]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return out
}

// TestParallelProverBitIdentical: for every combiner shape and branching
// factor, the parallel prover's full transcript must match the serial
// (Workers=0) transcript bit for bit, and workers=1 must equal serial.
func TestParallelProverBitIdentical(t *testing.T) {
	f := field.Mersenne()
	rng := field.NewSplitMix64(31)
	cases := []struct {
		name     string
		ell, d   int
		combiner Combiner
	}{
		{"F2/ell=2", 2, 13, Power{K: 2}},
		{"F5/ell=2", 2, 12, Power{K: 5}},
		{"F2/ell=4", 4, 7, Power{K: 2}},
		{"product/ell=2", 2, 13, Product{}},
		{"product/ell=3", 3, 8, Product{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params, err := lde.NewParams(tc.ell, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			tables := make([][]field.Elem, tc.combiner.Arity())
			for i := range tables {
				tables[i] = f.RandVec(rng, int(params.U))
			}
			challenges := f.RandVec(rng, params.D)
			serial := transcriptFor(t, Config{Field: f, Params: params, Combiner: tc.combiner}, tables, challenges)
			for _, workers := range []int{1, 2, 3, 8, -1} {
				cfg := Config{Field: f, Params: params, Combiner: tc.combiner, Workers: workers}
				got := transcriptFor(t, cfg, tables, challenges)
				if len(got) != len(serial) {
					t.Fatalf("workers=%d: transcript has %d words, want %d", workers, len(got), len(serial))
				}
				for i := range got {
					if got[i] != serial[i] {
						t.Fatalf("workers=%d: transcript word %d = %d, serial = %d", workers, i, got[i], serial[i])
					}
				}
			}
		})
	}
}

// TestParallelProverAccepted: a parallel prover must convince a standard
// verifier end to end.
func TestParallelProverAccepted(t *testing.T) {
	f := field.Mersenne()
	rng := field.NewSplitMix64(32)
	params, err := lde.NewParams(2, 14)
	if err != nil {
		t.Fatal(err)
	}
	table := f.RandVec(rng, int(params.U))
	for _, workers := range []int{0, 4, -1} {
		cfg := Config{Field: f, Params: params, Combiner: Power{K: 2}, Workers: workers}
		pt := lde.RandomPoint(f, params, rng)
		val, err := lde.EvalDense(pt, table)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newScanned(cfg, table)
		if err != nil {
			t.Fatal(err)
		}
		v, err := NewVerifier(cfg, pt.R, refTotal(cfg, table), f.Mul(val, val))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, v, nil); err != nil {
			t.Fatalf("workers=%d: honest parallel prover rejected: %v", workers, err)
		}
		if !accepted(v) {
			t.Fatalf("workers=%d: verifier did not accept", workers)
		}
	}
}

// TestParallelProverLargeRound smoke-checks a round big enough that the
// pool actually forks (size beyond the parallel grain) for several arities.
func TestParallelProverLargeRound(t *testing.T) {
	if testing.Short() {
		t.Skip("large table")
	}
	f := field.Mersenne()
	rng := field.NewSplitMix64(33)
	params, err := lde.NewParams(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	a := f.RandVec(rng, int(params.U))
	b := f.RandVec(rng, int(params.U))
	serialCfg := Config{Field: f, Params: params, Combiner: Product{}}
	parCfg := serialCfg
	parCfg.Workers = -1
	ps, err := newScanned(serialCfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	pp, err := newScanned(parCfg, a, b)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := ps.RoundMessage()
	if err != nil {
		t.Fatal(err)
	}
	mp, err := pp.RoundMessage()
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(ms) != fmt.Sprint(mp) {
		t.Fatalf("round 1 differs: serial %v parallel %v", ms, mp)
	}
}
