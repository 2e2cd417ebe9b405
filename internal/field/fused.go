package field

import "math/bits"

// Fused sum-check kernels. An ℓ=2 sum-check round does two passes over the
// prover's table: Fold binds a variable (dst[w] = src[2w] + r·(src[2w+1] −
// src[2w])) and the next RoundMessage walks the folded table in pairs
// (n0, n1) = (dst[2q], dst[2q+1]) evaluating the combined polynomial at
// c = 0, 1, 2 — where the pair's line evaluates to n0, n1 and 2n1 − n0.
// The kernels below fuse those passes: the folded values are consumed for
// the message while still in registers, halving memory traffic on the
// dominant table walk. Folds use Shoup multiplication by the invariant
// challenge (see foldPairShoup), which serves both moduli, and the Σ
// accumulators are exact 128/192-bit adds reduced once per call, so
// results are bit-identical to the two-pass computation (field sums are
// order-independent).
//
// Aliasing contract (same as FoldPairs): dst may alias the front half of
// src — each group writes indices 2q, 2q+1 only after reading indices
// 4q..4q+3 ≥ 2q+1, and all later reads are past the written prefix.

// acc192 is an exact 192-bit accumulator for lazy sums of 128-bit terms.
type acc192 struct{ h, m, l uint64 }

func (a *acc192) add(ph, pl uint64) {
	var c uint64
	a.l, c = bits.Add64(a.l, pl, 0)
	a.m, c = bits.Add64(a.m, ph, c)
	a.h += c
}

func (f Field) reduceAcc(a acc192) Elem { return f.foldAcc3(a.h, a.m, a.l) }

// lineAt2 returns the ℓ=2 line through (0, n0), (1, n1) evaluated at
// c = 2: 2n1 − n0 mod p, for canonical inputs.
func lineAt2(n0, n1, p uint64) uint64 {
	df, bw := bits.Sub64(n1, n0, 0)
	df += (0 - bw) & p
	s := n1 + df
	if s >= p {
		s -= p
	}
	return s
}

// Entry is what the round kernels below read: canonical field elements,
// or int64 counts c with |c| < p, each standing for c mod p — a dataset's
// counts, read in place. Each kernel has one body, instantiated for both.
type Entry interface{ Elem | int64 }

// Lift returns the field element entry c stands for, without a branch: an
// element as it is, a count c with |c| < p as c, plus p when c < 0.
func Lift[T Entry](c T, p uint64) uint64 {
	if ^T(0) > 0 { // unsigned: an element, canonical already
		return uint64(c)
	}
	return uint64(c) + uint64(int64(c)>>63)&p
}

// PairsSumSq returns the degree-2 power-combiner round message of a table:
// (Σ_q e0², Σ_q e1², Σ_q e2²) over pairs (src[2q], src[2q+1]), where
// e0, e1, e2 are the pair's line evaluations at c = 0, 1, 2. len(src) must
// be even. This is the round-0 (no pending fold) message kernel.
func PairsSumSq[T Entry](f Field, src []T) (g0, g1, g2 Elem) {
	if len(src)%2 != 0 {
		panic("field: PairsSumSq odd length")
	}
	p := f.p
	var a0, a1, a2 acc192
	for q := 0; q+2 <= len(src); q += 2 {
		s := src[q : q+2]
		e0, e1 := Lift(s[0], p), Lift(s[1], p)
		e2 := lineAt2(e0, e1, p)
		a0.add(bits.Mul64(e0, e0))
		a1.add(bits.Mul64(e1, e1))
		a2.add(bits.Mul64(e2, e2))
	}
	return f.reduceAcc(a0), f.reduceAcc(a1), f.reduceAcc(a2)
}

// PairsSumProd is PairsSumSq for the product combiner over two tables:
// (Σ_q eA0·eB0, Σ_q eA1·eB1, Σ_q eA2·eB2).
func PairsSumProd[T Entry](f Field, srcA, srcB []T) (g0, g1, g2 Elem) {
	checkLen2(len(srcA), len(srcB))
	if len(srcA)%2 != 0 {
		panic("field: PairsSumProd odd length")
	}
	p := f.p
	var a0, a1, a2 acc192
	for q := 0; q+2 <= len(srcA); q += 2 {
		sa, sb := srcA[q:q+2], srcB[q:q+2]
		ea0, ea1 := Lift(sa[0], p), Lift(sa[1], p)
		eb0, eb1 := Lift(sb[0], p), Lift(sb[1], p)
		ea2 := lineAt2(ea0, ea1, p)
		eb2 := lineAt2(eb0, eb1, p)
		a0.add(bits.Mul64(ea0, eb0))
		a1.add(bits.Mul64(ea1, eb1))
		a2.add(bits.Mul64(ea2, eb2))
	}
	return f.reduceAcc(a0), f.reduceAcc(a1), f.reduceAcc(a2)
}

// FoldPairsSumSq fuses a FoldPairs(dst, src, r) with the next round's
// degree-2 power-combiner message over dst: it writes the folded table and
// returns (Σ e0², Σ e1², Σ e2²) over the fresh pairs (dst[2q], dst[2q+1])
// without re-reading dst from memory. len(src) = 2·len(dst), len(dst)
// even; dst may alias the front half of an element src.
func FoldPairsSumSq[T Entry](f Field, dst []Elem, src []T, r Elem) (g0, g1, g2 Elem) {
	if len(src) != 2*len(dst) {
		panic("field: FoldPairsSumSq length mismatch")
	}
	if len(dst)%2 != 0 {
		panic("field: FoldPairsSumSq odd dst length")
	}
	p := f.p
	rr, rp := uint64(r), f.shoup(r)
	var a0, a1, a2 acc192
	for q := 0; q+2 <= len(dst); q += 2 {
		s, dd := src[2*q:2*q+4], dst[q:q+2]
		n0 := foldPairShoup(Lift(s[0], p), Lift(s[1], p), rr, rp, p)
		n1 := foldPairShoup(Lift(s[2], p), Lift(s[3], p), rr, rp, p)
		dd[0] = Elem(n0)
		dd[1] = Elem(n1)
		n2 := lineAt2(n0, n1, p)
		a0.add(bits.Mul64(n0, n0))
		a1.add(bits.Mul64(n1, n1))
		a2.add(bits.Mul64(n2, n2))
	}
	return f.reduceAcc(a0), f.reduceAcc(a1), f.reduceAcc(a2)
}

// FoldPairsSumSq is the element instance of FoldPairsSumSq.
func (f Field) FoldPairsSumSq(dst, src []Elem, r Elem) (g0, g1, g2 Elem) {
	return FoldPairsSumSq(f, dst, src, r)
}

// FoldPairsSumProd fuses two FoldPairs (one per factor table) with the
// next round's product-combiner message over the folded pair of tables.
// Both dsts may alias the front halves of their srcs when those hold
// elements.
func FoldPairsSumProd[T Entry](f Field, dstA, dstB []Elem, srcA, srcB []T, r Elem) (g0, g1, g2 Elem) {
	if len(srcA) != 2*len(dstA) || len(srcB) != 2*len(dstB) {
		panic("field: FoldPairsSumProd length mismatch")
	}
	checkLen2(len(dstA), len(dstB))
	if len(dstA)%2 != 0 {
		panic("field: FoldPairsSumProd odd dst length")
	}
	p := f.p
	rr, rp := uint64(r), f.shoup(r)
	var a0, a1, a2 acc192
	for q := 0; q+2 <= len(dstA); q += 2 {
		sa, da := srcA[2*q:2*q+4], dstA[q:q+2]
		na0 := foldPairShoup(Lift(sa[0], p), Lift(sa[1], p), rr, rp, p)
		na1 := foldPairShoup(Lift(sa[2], p), Lift(sa[3], p), rr, rp, p)
		da[0] = Elem(na0)
		da[1] = Elem(na1)
		sb, db := srcB[2*q:2*q+4], dstB[q:q+2]
		nb0 := foldPairShoup(Lift(sb[0], p), Lift(sb[1], p), rr, rp, p)
		nb1 := foldPairShoup(Lift(sb[2], p), Lift(sb[3], p), rr, rp, p)
		db[0] = Elem(nb0)
		db[1] = Elem(nb1)
		na2 := lineAt2(na0, na1, p)
		nb2 := lineAt2(nb0, nb1, p)
		a0.add(bits.Mul64(na0, nb0))
		a1.add(bits.Mul64(na1, nb1))
		a2.add(bits.Mul64(na2, nb2))
	}
	return f.reduceAcc(a0), f.reduceAcc(a1), f.reduceAcc(a2)
}
