// Partial-prover seam: the distributed form of the chunk-ordered
// reduction every table scan in this package already performs
// in-process.
//
// With ℓ=2 the fold is least-significant-bit-first:
//
//	next[w] = T[2w] + r·(T[2w+1] − T[2w])
//
// so a contiguous, power-of-two-aligned slice [lo, hi) of width
// W = 2^h stays pair-aligned for the first h rounds: round j's message
// over the whole table is the elementwise sum of the per-slice messages
// (field addition is exact, so the combined message is bit-identical to
// the single-table prover's), and folding each slice by the broadcast
// challenge is exactly what the global fold would do to that index
// range. After h folds a slice is a single entry per table — its
// *leaves* — and the global folded table of size S = U/W is precisely
// the slice leaves in slice order, so a fresh prover over those
// S-entry tables (the *tail prover*) serves the remaining rounds,
// again bit-identically.
//
// The seam therefore needs no new prover: a partial prover is an
// ordinary Prover over the slice's parameterization (and the slice
// tables' own live-pair scan), plus two helpers — SliceParams to
// derive that parameterization, Leaves to read out the fully folded
// entries. The tail prover is NewPairsProver over the S-entry tables
// the leaves make, every pair listed. While the slices' tables are
// sparse, the seam can skip the head rounds altogether: a slice
// prover's Pairs are its live pairs, and NewPairsProver over their
// union, in slice order, is the whole-universe prover with no gather.
// Summing the per-slice messages in slice order, and assembling the
// tail and the union, is core.SplitProver's, which also refuses an
// owner's non-canonical element.
package sumcheck

import (
	"fmt"
	"math/bits"

	"repro/internal/field"
	"repro/internal/lde"
)

// SliceParams derives the parameterization of a partial prover owning
// the contiguous universe slice [lo, hi) of the global parameterization
// global. The slice must be non-empty, a power-of-two width of at least
// 2 (so at least one fold happens before the leaves), aligned to its
// own width, and contained in the global universe; the protocol
// requires ℓ=2, the branching factor under which folds are
// pair-aligned.
func SliceParams(global lde.Params, lo, hi uint64) (lde.Params, error) {
	if global.Ell != 2 {
		return lde.Params{}, fmt.Errorf("sumcheck: partial provers require ℓ=2, have ℓ=%d", global.Ell)
	}
	if lo >= hi || hi > global.U {
		return lde.Params{}, fmt.Errorf("sumcheck: slice [%d,%d) outside universe %d", lo, hi, global.U)
	}
	width := hi - lo
	if width < 2 || width&(width-1) != 0 {
		return lde.Params{}, fmt.Errorf("sumcheck: slice width %d is not a power of two ≥ 2", width)
	}
	if lo%width != 0 {
		return lde.Params{}, fmt.Errorf("sumcheck: slice [%d,%d) is not aligned to its width", lo, hi)
	}
	return lde.Params{Ell: 2, D: bits.TrailingZeros64(width), U: width}, nil
}

// NewPartialProver builds the prover for the universe slice [lo, hi) of
// cfg.Params. Each table holds only the slice's hi−lo entries (the
// caller indexes globally at i ∈ [lo, hi) and stores at i−lo), held in
// chunks as NewProver takes them, and live is their ScanLivePairs. The
// returned prover plays the first
// d−log₂(U/(hi−lo)) global rounds: its RoundMessage is this slice's
// exact partial of the global round message, and Fold applies the
// broadcast challenge. After its final fold, Leaves reads out the single
// remaining entry per table.
func NewPartialProver[T field.Entry](cfg Config, lo, hi uint64, live LivePairs, tables ...Table[T]) (*Prover, error) {
	sp, err := SliceParams(cfg.Params, lo, hi)
	if err != nil {
		return nil, err
	}
	scfg := cfg
	scfg.Params = sp
	return NewProver(scfg, live, tables...)
}

// Leaves returns the single remaining entry of each table once every
// round has been folded — the slice's contribution to the tail
// prover's tables. It fails if any fold is still pending.
func (p *Prover) Leaves() ([]field.Elem, error) {
	if p.round != p.cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: leaves requested at round %d of %d", p.round, p.cfg.Params.D)
	}
	out := make([]field.Elem, len(p.tables))
	for t, tab := range p.tables {
		if tab.Len() != 1 {
			return nil, fmt.Errorf("sumcheck: table %d folded to %d entries, want 1", t, tab.Len())
		}
		out[t] = tab.Chunks[0][0]
	}
	return out, nil
}
