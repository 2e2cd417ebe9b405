package lde

import (
	"testing"

	"repro/internal/field"
)

// TestChiTablesMatchesAllChi: the batched builder must agree with the
// one-point builder at nodes and non-nodes alike.
func TestChiTablesMatchesAllChi(t *testing.T) {
	f := field.Mersenne()
	for _, ell := range []int{2, 3, 5, 16} {
		w := BasisWeights(f, ell)
		xs := []field.Elem{0, 1, field.Elem(ell - 1), field.Elem(ell), 12345, f.Reduce(^uint64(0))}
		tables := ChiTables(f, w, xs)
		if len(tables) != len(xs) {
			t.Fatalf("ell=%d: %d tables for %d points", ell, len(tables), len(xs))
		}
		for i, x := range xs {
			want := AllChi(f, w, x)
			for k := range want {
				if tables[i][k] != want[k] {
					t.Fatalf("ell=%d x=%d: ChiTables[%d][%d] = %d, want %d", ell, x, i, k, tables[i][k], want[k])
				}
			}
		}
		// Rows must be independent storage: writing one must not leak.
		if len(tables) >= 2 {
			tables[0][0] = 99
			want := AllChi(f, w, xs[1])
			if tables[1][0] != want[0] {
				t.Fatalf("ell=%d: ChiTables rows alias each other", ell)
			}
		}
	}
}

// TestEvalDenseWorkersMatchesSerial: every worker count must produce the
// bit-identical evaluation, for ℓ=2 and a generic branching factor.
func TestEvalDenseWorkersMatchesSerial(t *testing.T) {
	f := field.Mersenne()
	rng := field.NewSplitMix64(77)
	for _, cfg := range []struct{ ell, d int }{{2, 12}, {4, 6}, {3, 7}} {
		params, err := NewParams(cfg.ell, cfg.d)
		if err != nil {
			t.Fatal(err)
		}
		pt := RandomPoint(f, params, rng)
		table := f.RandVec(rng, int(params.U))
		want, err := EvalDenseWorkers(pt, table, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4, 16, -1} {
			got, err := EvalDenseWorkers(pt, table, workers)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("ell=%d d=%d workers=%d: EvalDenseWorkers = %d, want %d", cfg.ell, cfg.d, workers, got, want)
			}
		}
	}
}
