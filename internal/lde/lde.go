// Package lde implements low-degree extensions of streamed vectors.
//
// Given a vector a of length u = ℓ^d, its low-degree extension (§2 of
// Cormode–Thaler–Yi) is the unique d-variate polynomial f_a over Z_p of
// degree < ℓ in each variable with f_a(v) = a_v for every v ∈ [ℓ]^d
// (indices are mapped to digit vectors in base ℓ, least-significant digit
// first). The central observation of the paper (Theorem 1) is that for a
// fixed point r ∈ [p]^d, f_a(r) is a *linear* function of a, so a verifier
// can maintain it in O(d) words over a stream of (i, δ) updates:
//
//	f_a(r) ← f_a(r) + δ·χ_v(i)(r).
//
// This package provides that streaming evaluator, the Lagrange basis
// χ machinery, dense evaluation (for provers and tests), and the
// O(log² u) evaluation of range-indicator extensions used by RANGE-SUM.
package lde

import (
	"fmt"
	"math/bits"

	"repro/internal/field"
	"repro/internal/parallel"
)

// Params fixes the (ℓ, d) decomposition of a universe: u = ℓ^d.
type Params struct {
	Ell int    // branching factor ℓ ≥ 2
	D   int    // number of dimensions d ≥ 1
	U   uint64 // ℓ^d
}

// NewParams validates and returns an (ℓ, d) parameterization.
func NewParams(ell, d int) (Params, error) {
	if ell < 2 {
		return Params{}, fmt.Errorf("lde: branching factor ℓ=%d < 2", ell)
	}
	if d < 1 {
		return Params{}, fmt.Errorf("lde: dimensions d=%d < 1", d)
	}
	u := uint64(1)
	for i := 0; i < d; i++ {
		hi, lo := bits.Mul64(u, uint64(ell))
		if hi != 0 || lo >= 1<<62 {
			return Params{}, fmt.Errorf("lde: universe ℓ^d = %d^%d overflows supported range", ell, d)
		}
		u = lo
	}
	return Params{Ell: ell, D: d, U: u}, nil
}

// ParamsForUniverse returns the smallest d with ℓ^d ≥ u. The paper's
// default, and the most economical tradeoff (§3.1), is ℓ=2 with
// d = ⌈log2 u⌉.
func ParamsForUniverse(u uint64, ell int) (Params, error) {
	if u == 0 {
		return Params{}, fmt.Errorf("lde: empty universe")
	}
	if ell < 2 {
		return Params{}, fmt.Errorf("lde: branching factor ℓ=%d < 2", ell)
	}
	d := 0
	cap := uint64(1)
	for cap < u {
		hi, lo := bits.Mul64(cap, uint64(ell))
		if hi != 0 || lo >= 1<<62 {
			return Params{}, fmt.Errorf("lde: universe %d too large for ℓ=%d", u, ell)
		}
		cap = lo
		d++
	}
	if d == 0 {
		d = 1
		cap = uint64(ell)
	}
	return Params{Ell: ell, D: d, U: cap}, nil
}

// Digits writes the base-ℓ digits of i (least significant first) into buf,
// which must have length ≥ d, and returns buf[:d].
func (p Params) Digits(i uint64, buf []int) []int {
	ell := uint64(p.Ell)
	for j := 0; j < p.D; j++ {
		buf[j] = int(i % ell)
		i /= ell
	}
	return buf[:p.D]
}

// Index is the inverse of Digits.
func (p Params) Index(digits []int) uint64 {
	var i uint64
	for j := p.D - 1; j >= 0; j-- {
		i = i*uint64(p.Ell) + uint64(digits[j])
	}
	return i
}

// BasisWeights returns w_k = 1 / Π_{j≠k}(k-j) for nodes 0..ℓ-1, the
// normalizing constants of the Lagrange basis χ_k over [ℓ].
func BasisWeights(f field.Field, ell int) []field.Elem {
	fact := make([]field.Elem, ell)
	fact[0] = 1
	for i := 1; i < ell; i++ {
		fact[i] = f.Mul(fact[i-1], f.Reduce(uint64(i)))
	}
	w := make([]field.Elem, ell)
	for k := 0; k < ell; k++ {
		d := f.Mul(fact[k], fact[ell-1-k])
		if (ell-1-k)%2 == 1 {
			d = f.Neg(d)
		}
		w[k] = d
	}
	f.InvSlice(w)
	return w
}

// AllChi evaluates every Lagrange basis polynomial χ_0..χ_{ℓ-1} (over
// nodes 0..ℓ-1, Eq. 2 of the paper) at the point x, in O(ℓ) operations
// given precomputed weights.
func AllChi(f field.Field, weights []field.Elem, x field.Elem) []field.Elem {
	out := make([]field.Elem, len(weights))
	chiInto(f, weights, x, out, make([]field.Elem, len(weights)))
	return out
}

// chiInto is AllChi writing into caller-provided storage: out receives the
// ℓ basis values and scratch (also length ℓ) holds the prefix products.
func chiInto(f field.Field, weights []field.Elem, x field.Elem, out, scratch []field.Elem) {
	ell := len(weights)
	// If x is a node, χ is an indicator.
	if uint64(x) < uint64(ell) {
		for k := range out {
			out[k] = 0
		}
		out[x] = 1
		return
	}
	acc := field.Elem(1)
	for k := 0; k < ell; k++ {
		scratch[k] = acc
		acc = f.Mul(acc, f.Sub(x, f.Reduce(uint64(k))))
	}
	suffix := field.Elem(1)
	for k := ell - 1; k >= 0; k-- {
		out[k] = f.Mul(weights[k], f.Mul(scratch[k], suffix))
		suffix = f.Mul(suffix, f.Sub(x, f.Reduce(uint64(k))))
	}
}

// ChiTables is the batched χ-table builder: it evaluates the full basis at
// every point of xs in one call, sharing one backing allocation, the node
// values k = 0..ℓ-1 as field elements, and the difference/prefix scratch
// buffers across the whole batch — per point the build is 3ℓ multiplies
// and ℓ subtractions with no Reduce calls. ChiTables(f, w, xs)[i][k] =
// χ_k(xs[i]). Both the evaluation-point tables of NewPoint and the
// per-evaluation-node tables of the sum-check prover are built this way.
func ChiTables(f field.Field, weights []field.Elem, xs []field.Elem) [][]field.Elem {
	return rows(chiTable(f, weights, xs), len(weights))
}

// chiTable is ChiTables' flat form: χ_k(xs[i]) at index i·ℓ+k.
func chiTable(f field.Field, weights []field.Elem, xs []field.Elem) []field.Elem {
	ell := len(weights)
	backing := make([]field.Elem, len(xs)*ell)
	nodes := make([]field.Elem, ell)
	for k := range nodes {
		nodes[k] = f.Reduce(uint64(k))
	}
	diffs := make([]field.Elem, ell)
	scratch := make([]field.Elem, ell)
	for i, x := range xs {
		row := backing[i*ell : (i+1)*ell]
		if uint64(x) < uint64(ell) {
			// χ at a node is an indicator.
			row[x] = 1
		} else {
			for k := range diffs {
				diffs[k] = f.Sub(x, nodes[k])
			}
			acc := field.Elem(1)
			for k := 0; k < ell; k++ {
				scratch[k] = acc
				acc = f.Mul(acc, diffs[k])
			}
			suffix := field.Elem(1)
			for k := ell - 1; k >= 0; k-- {
				row[k] = f.Mul(weights[k], f.Mul(scratch[k], suffix))
				suffix = f.Mul(suffix, diffs[k])
			}
		}
	}
	return backing
}

// rows splits a flat table into its ell-wide rows, each capped so an
// append to one cannot write into the next.
func rows(flat []field.Elem, ell int) [][]field.Elem {
	out := make([][]field.Elem, len(flat)/ell)
	for i := range out {
		out[i] = flat[i*ell : (i+1)*ell : (i+1)*ell]
	}
	return out
}

// Point is a fixed evaluation point r ∈ [p]^d together with the
// precomputed per-dimension basis values Chi[j][k] = χ_k(r_j). The tables
// occupy O(dℓ) words; the paper's strictly-logarithmic-space accounting
// charges the verifier d+1 words (r and the running value) and notes that
// a space-frugal verifier "must recompute some values multiple times" —
// precomputation is the time-optimal choice and what their implementation
// measures.
type Point struct {
	F      field.Field
	Params Params
	R      []field.Elem
	Chi    [][]field.Elem

	chi []field.Elem // the rows of Chi back to back: Chi[j][k] = chi[j·ℓ+k]
	lg  uint         // log2 ℓ when ℓ is a power of two, else 0
}

// NewPoint precomputes basis tables for the point r (length d).
func NewPoint(f field.Field, params Params, r []field.Elem) (*Point, error) {
	if len(r) != params.D {
		return nil, fmt.Errorf("lde: point has %d coordinates, want %d", len(r), params.D)
	}
	chi := chiTable(f, BasisWeights(f, params.Ell), r)
	pt := &Point{F: f, Params: params, R: append([]field.Elem(nil), r...), Chi: rows(chi, params.Ell), chi: chi}
	if params.Ell&(params.Ell-1) == 0 {
		pt.lg = uint(bits.TrailingZeros(uint(params.Ell)))
	}
	return pt, nil
}

// RandomPoint samples r uniformly from [p]^d and precomputes its tables.
// The verifier does this once, before observing the stream.
func RandomPoint(f field.Field, params Params, rng field.RNG) *Point {
	r := f.RandVec(rng, params.D)
	pt, err := NewPoint(f, params, r)
	if err != nil {
		// Unreachable: the vector has exactly d coordinates.
		panic(err)
	}
	return pt
}

// ChiOfIndex returns χ_{v(i)}(r) = Π_j χ_{digit_j(i)}(r_j), the weight an
// update to index i contributes to f_a(r). For ℓ a power of two — every
// decomposition the service and the experiments use — the digits are
// shifts and masks and the d factors run as split chains
// (field.DigitProduct); any other ℓ takes the digit-by-division loop.
func (pt *Point) ChiOfIndex(i uint64) field.Elem {
	if pt.lg != 0 {
		return pt.F.DigitProduct(pt.chi, pt.lg, i)
	}
	ell := uint64(pt.Params.Ell)
	out := field.Elem(1)
	for j := 0; j < pt.Params.D; j++ {
		out = pt.F.Mul(out, pt.Chi[j][i%ell])
		i /= ell
	}
	return out
}

// Evaluator maintains f_a(r) over a stream of updates (Theorem 1). The
// zero value is unusable; construct with NewEvaluator.
type Evaluator struct {
	pt  *Point
	acc field.Elem
	n   uint64 // updates processed
}

// NewEvaluator returns a streaming evaluator anchored at pt.
func NewEvaluator(pt *Point) *Evaluator {
	return &Evaluator{pt: pt}
}

// Update folds one stream element into the running evaluation:
// f_a(r) += δ·χ_v(i)(r). Takes O(dℓ) field operations (O(log u) for ℓ=2).
func (e *Evaluator) Update(i uint64, delta int64) error {
	if i >= e.pt.Params.U {
		return fmt.Errorf("lde: index %d outside universe [0,%d)", i, e.pt.Params.U)
	}
	d := e.pt.F.FromInt64(delta)
	e.acc = e.pt.F.Add(e.acc, e.pt.F.Mul(d, e.pt.ChiOfIndex(i)))
	e.n++
	return nil
}

// Value returns the current f_a(r).
func (e *Evaluator) Value() field.Elem { return e.acc }

// Updates returns how many stream elements have been folded in.
func (e *Evaluator) Updates() uint64 { return e.n }

// Point returns the evaluation point the evaluator is anchored at.
func (e *Evaluator) Point() *Point { return e.pt }

// SpaceWords reports the verifier space this evaluator accounts for in
// the paper's units: the d coordinates of r plus the running value.
func (e *Evaluator) SpaceWords() int { return e.pt.Params.D + 1 }

// EvalDense evaluates f_a(r) from an explicit table of all u entries by
// folding one dimension at a time: O(u) field operations total. This is
// the prover-side (and test oracle) counterpart of the streaming
// evaluator.
func EvalDense(pt *Point, table []field.Elem) (field.Elem, error) {
	return EvalDenseWorkers(pt, table, 1)
}

// EvalDenseWorkers is EvalDense with the fold of each dimension fanned out
// across a worker pool (workers ≤ 0 follows the parallel.Workers
// convention). Each worker folds a contiguous block of the output table,
// so the result is bit-identical to the serial evaluation for every worker
// count — field arithmetic is exact and blocks are disjoint.
func EvalDenseWorkers(pt *Point, table []field.Elem, workers int) (field.Elem, error) {
	params := pt.Params
	if uint64(len(table)) != params.U {
		return 0, fmt.Errorf("lde: table has %d entries, want %d", len(table), params.U)
	}
	nw := parallel.Workers(workers)
	ell := params.Ell
	f := pt.F
	if ell == 2 {
		return evalDenseBlocked(pt, table, nw), nil
	}
	cur := append([]field.Elem(nil), table...)
	scratch := make([]field.Elem, len(cur)/ell)
	for j := 0; j < params.D; j++ {
		size := len(cur) / ell
		next := scratch[:size]
		chi := pt.Chi[j]
		// Each index costs ℓ field ops; scale the grain so large-ℓ
		// decompositions with few indices still fan out.
		grain := parallel.MinGrain / ell
		if grain < 1 {
			grain = 1
		}
		parallel.ForGrain(nw, size, grain, func(_, lo, hi int) {
			for w := lo; w < hi; w++ {
				next[w] = f.DotSlices(chi, cur[w*ell:(w+1)*ell])
			}
		})
		// Ping-pong the buffers; cur always has capacity ≥ size/ell.
		cur, scratch = next, cur
	}
	return cur[0], nil
}

// evalDenseLg is the log2 of the cache block used by the ℓ=2 dense
// evaluator: 2^12 elements = 32 KiB, sized to stay resident in L1d while
// a block is folded all the way down.
const evalDenseLg = 12

// evalDenseBlocked is the ℓ=2 dense evaluator. Rather than streaming the
// whole table through memory once per dimension (d passes), it folds up
// to evalDenseLg dimensions per pass: each 2^b-element block collapses to
// a single element entirely in cache, so the full table is read from
// memory only ⌈d/b⌉ times. Every output element is the same expression
// the one-dimension-at-a-time fold computes (FoldPairs over the same
// pairs with the same challenges, merely scheduled block-first), so the
// result is bit-identical for every worker count and block size.
func evalDenseBlocked(pt *Point, table []field.Elem, nw int) field.Elem {
	f := pt.F
	cur := table // read-only view; first pass writes to a fresh slice
	j := 0
	for j < pt.Params.D {
		b := pt.Params.D - j
		if b > evalDenseLg {
			b = evalDenseLg
		}
		size := len(cur) >> uint(b)
		next := make([]field.Elem, size)
		rs := pt.R[j : j+b]
		// One output element costs 2^b fold ops; scale the grain down so
		// the pass still fans out when few blocks remain.
		grain := parallel.MinGrain >> uint(b)
		if grain < 1 {
			grain = 1
		}
		parallel.ForGrain(nw, size, grain, func(_, lo, hi int) {
			buf := make([]field.Elem, 1<<uint(b-1))
			for g := lo; g < hi; g++ {
				blk := cur[g<<uint(b) : (g+1)<<uint(b)]
				half := len(blk) / 2
				f.FoldPairs(buf[:half], blk, rs[0])
				for _, r := range rs[1:] {
					half /= 2
					// In-place: dst aliases the front half of src, which
					// FoldPairs supports.
					f.FoldPairs(buf[:half], buf[:2*half], r)
				}
				next[g] = buf[0]
			}
		})
		cur = next
		j += b
	}
	return cur[0]
}

// EvalRangeIndicator computes f_b(r) where b is the indicator vector of
// the inclusive range [qL, qR] — the verifier-side computation of the
// RANGE-SUM protocol (§3.2). It requires ℓ=2 and runs in O(log² u): the
// range decomposes into O(log u) canonical dyadic intervals, and within
// one interval the free low-order bits sum out to 1 (the paper's telescoped
// product identity), leaving a product of χ values of the fixed high bits.
func EvalRangeIndicator(pt *Point, qL, qR uint64) (field.Elem, error) {
	params := pt.Params
	if params.Ell != 2 {
		return 0, fmt.Errorf("lde: range indicator requires ℓ=2, have ℓ=%d", params.Ell)
	}
	if qL > qR || qR >= params.U {
		return 0, fmt.Errorf("lde: bad range [%d,%d] for universe %d", qL, qR, params.U)
	}
	f := pt.F
	var total field.Elem
	// Walk the implicit segment tree with exclusive upper bound.
	lo, hi := qL, qR+1
	level := 0
	for lo < hi {
		if lo&1 == 1 {
			total = f.Add(total, pt.chiHighBits(lo, level))
			lo++
		}
		if hi&1 == 1 {
			hi--
			total = f.Add(total, pt.chiHighBits(hi, level))
		}
		lo >>= 1
		hi >>= 1
		level++
	}
	return total, nil
}

// chiHighBits returns Π_{j=level..d-1} χ_{bit_{j-level}(idx)}(r_j): the
// contribution of the canonical interval at the given level whose position
// is idx. Requires ℓ=2.
func (pt *Point) chiHighBits(idx uint64, level int) field.Elem {
	return pt.F.DigitProduct(pt.chi[2*level:], 1, idx)
}
