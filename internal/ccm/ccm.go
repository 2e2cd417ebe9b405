// Package ccm implements the single-round (√u, √u) annotation protocol of
// Chakrabarti, Cormode & McGregor ("Annotations in data streams", ICALP
// 2009) for SELF-JOIN SIZE — the baseline the paper's experimental study
// (§5) compares against. In the paper's framing it is the multi-round
// protocol instantiated with d = 2 and ℓ = √u:
//
//   - while streaming, the verifier maintains the √u values
//     sketch[x₂] = f_a(r₁, x₂) for x₂ ∈ [ℓ] — a lookup table of
//     χ_{v₁}(r₁) makes this O(1) amortized per update after O(√u) setup
//     (this is why Figure 2(a) shows the one-round verifier slightly
//     faster than the multi-round one);
//   - the prover sends a single polynomial g(x₁) = Σ_{x₂} f_a²(x₁,x₂) of
//     degree 2(ℓ-1), i.e. ~2√u words;
//   - the verifier checks g(r₁) = Σ_{x₂} sketch[x₂]² and reads off
//     F2 = Σ_{x₁∈[ℓ]} g(x₁).
//
// Verifier space and communication are both Θ(√u); the honest prover
// evaluates g at 2ℓ-1 points at O(u) each — the Θ(u^{3/2}) cost whose
// "steeper line" dominates Figure 2(b).
package ccm

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// ErrRejected is returned when the proof fails either check.
var ErrRejected = errors.New("ccm: proof rejected")

// Protocol fixes the two-dimensional decomposition u = ℓ².
type Protocol struct {
	F   field.Field
	Ell int    // ℓ = √u
	U   uint64 // ℓ²
}

// New returns the protocol for a universe of size ≥ u, rounding ℓ up.
func New(f field.Field, u uint64) (*Protocol, error) {
	if !f.Valid() {
		return nil, errors.New("ccm: invalid field")
	}
	if u == 0 {
		return nil, errors.New("ccm: empty universe")
	}
	ell := 1
	for uint64(ell)*uint64(ell) < u {
		ell++
		if ell > 1<<20 {
			return nil, fmt.Errorf("ccm: universe %d too large", u)
		}
	}
	if ell < 2 {
		ell = 2
	}
	return &Protocol{F: f, Ell: ell, U: uint64(ell) * uint64(ell)}, nil
}

// Verifier holds the Θ(√u) sketch.
type Verifier struct {
	proto  *Protocol
	r1     field.Elem
	chiR1  []field.Elem // lookup table χ_k(r₁), k ∈ [ℓ]
	sketch []field.Elem // sketch[x₂] = f_a(r₁, x₂)
}

// NewVerifier samples r₁ and builds the χ lookup table (the O(√u)-space
// preprocessing the paper credits for the one-round verifier's speed).
func (p *Protocol) NewVerifier(rng field.RNG) *Verifier {
	r1 := p.F.Rand(rng)
	w := lde.BasisWeights(p.F, p.Ell)
	return &Verifier{
		proto:  p,
		r1:     r1,
		chiR1:  lde.AllChi(p.F, w, r1),
		sketch: make([]field.Elem, p.Ell),
	}
}

// Observe folds one update: index i splits as (v₁, v₂) = (i mod ℓ, i div ℓ)
// and only bucket v₂ is touched.
func (v *Verifier) Observe(i uint64, delta int64) error {
	if i >= v.proto.U {
		return fmt.Errorf("ccm: index %d outside universe [0,%d)", i, v.proto.U)
	}
	f := v.proto.F
	v1 := int(i % uint64(v.proto.Ell))
	v2 := i / uint64(v.proto.Ell)
	v.sketch[v2] = f.Add(v.sketch[v2], f.Mul(f.FromInt64(delta), v.chiR1[v1]))
	return nil
}

// SpaceWords reports the verifier memory: the sketch, the lookup table,
// and r₁ — Θ(√u), the quantity plotted in Figure 2(c).
func (v *Verifier) SpaceWords() int { return 2*v.proto.Ell + 1 }

// Verify checks the single-message proof and returns the verified F2.
func (v *Verifier) Verify(proof []field.Elem) (field.Elem, error) {
	f := v.proto.F
	ell := v.proto.Ell
	if len(proof) != 2*ell-1 {
		return 0, fmt.Errorf("%w: proof has %d evaluations, want %d", ErrRejected, len(proof), 2*ell-1)
	}
	for _, e := range proof {
		if uint64(e) >= f.Modulus() {
			return 0, fmt.Errorf("%w: non-canonical element", ErrRejected)
		}
	}
	// g(r₁) must equal Σ_{x₂} sketch[x₂]².
	var want field.Elem
	for _, s := range v.sketch {
		want = f.Add(want, f.Mul(s, s))
	}
	ev, err := poly.NewConsecutiveEvaluator(f, 2*ell-1)
	if err != nil {
		return 0, err
	}
	got, err := ev.Eval(proof, v.r1)
	if err != nil {
		return 0, err
	}
	if got != want {
		return 0, fmt.Errorf("%w: g(r₁)=%d ≠ Σ sketch² = %d", ErrRejected, got, want)
	}
	answer, err := poly.SumPrefix(f, proof, ell)
	if err != nil {
		return 0, err
	}
	return answer, nil
}

// Prover stores the full frequency vector.
type Prover struct {
	proto *Protocol
	table []field.Elem
}

// NewProver returns a prover ready to observe the stream.
func (p *Protocol) NewProver() *Prover {
	return &Prover{proto: p, table: make([]field.Elem, p.U)}
}

// Observe folds one update into the frequency vector.
func (pr *Prover) Observe(i uint64, delta int64) error {
	if i >= pr.proto.U {
		return fmt.Errorf("ccm: index %d outside universe [0,%d)", i, pr.proto.U)
	}
	f := pr.proto.F
	pr.table[i] = f.Add(pr.table[i], f.FromInt64(delta))
	return nil
}

// proveTile is how many beyond-node evaluation points share one pass over
// the frequency table in Prove. Each table row is read once per tile
// instead of once per point, and a tile's χ rows (proveTile·ℓ words) stay
// cache-resident across the pass.
const proveTile = 8

// Prove produces the single-message proof: the evaluations
// g(0..2ℓ-2) with g(c) = Σ_{x₂} f_a(c, x₂)². Θ(u^{3/2}) field operations,
// the bottleneck of Figure 2(b); the evaluation points are independent,
// so tiles of them fan out across workers goroutines (0 serial, n < 0
// runtime.NumCPU(); each tile is O(u·proveTile) work, grain 1). The proof
// is bit-identical for every value.
func (pr *Prover) Prove(workers int) []field.Elem {
	f := pr.proto.F
	ell := pr.proto.Ell
	w := lde.BasisWeights(f, ell)
	// Batched χ tables for the ℓ-1 beyond-node evaluation points ℓ..2ℓ-2.
	xs := make([]field.Elem, ell-1)
	for i := range xs {
		xs[i] = f.Reduce(uint64(ell + i))
	}
	chis := lde.ChiTables(f, w, xs)
	proof := make([]field.Elem, 2*ell-1)
	// The ℓ node points are direct reads — O(u) in one cache-friendly pass;
	// only the ℓ-1 beyond-node points carry the Θ(u) DotSlices each, so the
	// pool is reserved for them. Points are processed in tiles that share
	// one streaming pass over the table; per point the x₂ accumulation
	// order is unchanged, so the proof is bit-identical to the untiled walk.
	for x2 := 0; x2 < ell; x2++ {
		row := pr.table[x2*ell : (x2+1)*ell]
		for c, v := range row {
			proof[c] = f.Add(proof[c], f.Mul(v, v))
		}
	}
	npts := ell - 1
	ntiles := (npts + proveTile - 1) / proveTile
	parallel.ForGrain(parallel.Workers(workers), ntiles, 1, func(_, lo, hi int) {
		for tb := lo; tb < hi; tb++ {
			i0 := tb * proveTile
			i1 := i0 + proveTile
			if i1 > npts {
				i1 = npts
			}
			var sums [proveTile]field.Elem
			for x2 := 0; x2 < ell; x2++ {
				row := pr.table[x2*ell : (x2+1)*ell]
				for i := i0; i < i1; i++ {
					val := f.DotSlices(chis[i], row)
					sums[i-i0] = f.Add(sums[i-i0], f.Mul(val, val))
				}
			}
			copy(proof[ell+i0:ell+i1], sums[:i1-i0])
		}
	})
	return proof
}
