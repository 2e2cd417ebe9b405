package sumcheck

import (
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
// The sparse row holds 6 000 live pairs of 2^15, under MaxSparseLive's
// 8 192, so its rounds gather and fold the live pairs alone, in chunks
// of at least MinGrain pairs: two at Workers 2.
func TestParallelProverBitIdentical(t *testing.T) {
	f := field.Mersenne()
	rng := field.NewSplitMix64(31)
	cases := []struct {
		name     string
		ell, d   int
		combiner Combiner
		live     int // live pairs, spread evenly; 0 = every entry random
	}{
		{"F2/ell=2", 2, 13, Power{K: 2}, 0},
		{"F5/ell=2", 2, 12, Power{K: 5}, 0},
		{"F2/ell=4", 4, 7, Power{K: 2}, 0},
		{"product/ell=2", 2, 13, Product{}, 0},
		{"product/ell=3", 3, 8, Product{}, 0},
		{"F2/ell=2/sparse", 2, 16, Power{K: 2}, 6000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			params, err := lde.NewParams(tc.ell, tc.d)
			if err != nil {
				t.Fatal(err)
			}
			tables := make([][]field.Elem, tc.combiner.Arity())
			for i := range tables {
				if tc.live == 0 {
					tables[i] = f.RandVec(rng, int(params.U))
					continue
				}
				tables[i] = make([]field.Elem, params.U)
				for k, stride := 0, int(params.U)/2/tc.live; k < tc.live; k++ {
					tables[i][2*k*stride+k%2] = f.Rand(rng)
				}
				if live := ScanLivePairs(tc.ell, 2, flats(tables[i:i+1])...); !live.Sparse() {
					t.Fatalf("%d live pairs of %d held dense", tc.live, params.U/2)
				}
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
