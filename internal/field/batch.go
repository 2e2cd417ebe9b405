package field

import "math/bits"

// Batch (slice-wise) arithmetic: the kernel layer under the parallel
// prover engine. FoldPairs, DotSlices and AddSlices are the
// chunk bodies of the hot paths (sum-check folds and messages, dense LDE
// evaluation, the one-round prover).
//
// No kernel executes a hardware divide: the Mersenne path folds bits and
// the generic path uses the Field's precomputed reducer, with the modulus
// dispatch hoisted out of the per-element loop (one branch per slice
// instead of one per multiply). Generic loops work in the "shifted
// domain": pre-shifting one multiplicand by sh (safe — x < p means
// x<<sh < d fits a word) makes the 128-bit product arrive already
// normalized for remNorm, so the per-element reduction is branch-free
// multiply/add/cmov with a single final >>sh. Reductions are lazy where
// the algebra allows: the multiply-add kernel FoldPairs reduces the
// product+addend once, and the accumulating kernel DotSlices adds
// exactly in 192-bit registers and reduces once per slice. All
// kernels tolerate dst aliasing a source slice and panic on length
// mismatches, mirroring the built-in copy contract.

// AddSlices sets dst[i] = a[i] + b[i] for every i. All three slices must
// have equal length.
func (f Field) AddSlices(dst, a, b []Elem) {
	checkLen(len(dst), len(a), len(b))
	p := f.p
	for i := range dst {
		s := uint64(a[i]) + uint64(b[i])
		if s >= p {
			s -= p
		}
		dst[i] = Elem(s)
	}
}

// MulSlices sets dst[i] = a[i]·b[i] for every i. Both operands vary, so
// the generic path is the pre-shifted reducer. The loop is deliberately
// rolled: each element needs three dependent full-width multiplies, and
// the out-of-order core overlaps iterations on its own — manual unrolling
// only adds register pressure around the MULQ-pinned AX/DX pair.
func (f Field) MulSlices(dst, a, b []Elem) {
	checkLen(len(dst), len(a), len(b))
	if f.p == Mersenne61 {
		for i := range dst {
			dst[i] = Elem(mul61(uint64(a[i]), uint64(b[i])))
		}
		return
	}
	sh, d, v := f.sh&63, f.d, f.v
	for i := range dst {
		hi, lo := bits.Mul64(uint64(a[i]), uint64(b[i])<<sh)
		dst[i] = Elem(remNorm(hi, lo, d, v) >> sh)
	}
}

// FoldPairs sets dst[i] = src[2i] + r·(src[2i+1] − src[2i]) — binding one
// ℓ=2 LDE variable to r across a whole table, the inner loop of both the
// sum-check prover's Fold and dense evaluation. The fold factor r is
// invariant across the slice, so both moduli share one Shoup loop,
// unrolled 4-wide with fully inlined pair bodies so four independent
// multiplies stay in flight. len(src) must be 2·len(dst); dst may alias
// the front half of src (group i writes index i only after reading
// indices 2i and 2i+1 ≥ i, so the in-place fold never reads a clobbered
// slot). Entries are read as Lift reads them.
func FoldPairs[T Entry](f Field, dst []Elem, src []T, r Elem) {
	if len(src) != 2*len(dst) {
		panic("field: FoldPairs length mismatch")
	}
	p := f.p
	rr, rp := uint64(r), f.shoup(r)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		// Subslices of fixed length let the compiler drop per-element
		// bounds checks; all loads precede the (possibly aliasing)
		// stores in program order, preserving the in-place contract.
		s, dd := src[2*i:2*i+8], dst[i:i+4]
		n0 := foldPairShoup(Lift(s[0], p), Lift(s[1], p), rr, rp, p)
		n1 := foldPairShoup(Lift(s[2], p), Lift(s[3], p), rr, rp, p)
		n2 := foldPairShoup(Lift(s[4], p), Lift(s[5], p), rr, rp, p)
		n3 := foldPairShoup(Lift(s[6], p), Lift(s[7], p), rr, rp, p)
		dd[0] = Elem(n0)
		dd[1] = Elem(n1)
		dd[2] = Elem(n2)
		dd[3] = Elem(n3)
	}
	for ; i < len(dst); i++ {
		dst[i] = Elem(foldPairShoup(Lift(src[2*i], p), Lift(src[2*i+1], p), rr, rp, p))
	}
}

// FoldPairs is the element instance of FoldPairs.
func (f Field) FoldPairs(dst, src []Elem, r Elem) { FoldPairs(f, dst, src, r) }

// FromInt64Slice sets dst[i] = xs[i] mod p (negatives wrapping) for every
// i — how a batch of stream deltas enters the field. Deltas already in
// [0, p) — every realistic stream — take the comparison-only fast path.
func (f Field) FromInt64Slice(dst []Elem, xs []int64) {
	checkLen2(len(dst), len(xs))
	p := f.p
	for i := range dst {
		x := xs[i]
		if x >= 0 && uint64(x) < p {
			dst[i] = Elem(x)
		} else {
			dst[i] = f.FromInt64(x)
		}
	}
}

// DotSlices returns Σ_i a[i]·b[i] mod p. Products are accumulated exactly
// in two interleaved 192-bit accumulators (each product contributes at
// most 2^124, so for any representable slice length the top word stays far
// from overflow) and reduced once at the end — no per-element reduction on
// either the Mersenne or the generic path.
func (f Field) DotSlices(a, b []Elem) Elem {
	checkLen2(len(a), len(b))
	var h0, m0, l0, h1, m1, l1 uint64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		aa, bb := a[i:i+4], b[i:i+4]
		var c uint64
		ph, pl := bits.Mul64(uint64(aa[0]), uint64(bb[0]))
		l0, c = bits.Add64(l0, pl, 0)
		m0, c = bits.Add64(m0, ph, c)
		h0 += c
		ph, pl = bits.Mul64(uint64(aa[1]), uint64(bb[1]))
		l1, c = bits.Add64(l1, pl, 0)
		m1, c = bits.Add64(m1, ph, c)
		h1 += c
		ph, pl = bits.Mul64(uint64(aa[2]), uint64(bb[2]))
		l0, c = bits.Add64(l0, pl, 0)
		m0, c = bits.Add64(m0, ph, c)
		h0 += c
		ph, pl = bits.Mul64(uint64(aa[3]), uint64(bb[3]))
		l1, c = bits.Add64(l1, pl, 0)
		m1, c = bits.Add64(m1, ph, c)
		h1 += c
	}
	for ; i < len(a); i++ {
		var c uint64
		ph, pl := bits.Mul64(uint64(a[i]), uint64(b[i]))
		l0, c = bits.Add64(l0, pl, 0)
		m0, c = bits.Add64(m0, ph, c)
		h0 += c
	}
	var c uint64
	l0, c = bits.Add64(l0, l1, 0)
	m0, c = bits.Add64(m0, m1, c)
	h0 += h1 + c
	return f.foldAcc3(h0, m0, l0)
}

func checkLen(a, b, c int) {
	if a != b || a != c {
		panic("field: slice length mismatch")
	}
}

func checkLen2(a, b int) {
	if a != b {
		panic("field: slice length mismatch")
	}
}
