package field

import "testing"

// fusedFields covers the Mersenne fast path, a small generic prime, and a
// generic prime at the top of the supported range.
var fusedFields = []uint64{Mersenne61, 1000003, 4611686018427387847}

// pairsSumSqRef is the unfused reference: walk pairs, evaluate the line at
// 0, 1, 2 and accumulate squares with scalar ops.
func pairsSumSqRef(f Field, src []Elem) (g0, g1, g2 Elem) {
	for q := 0; q+2 <= len(src); q += 2 {
		e0, e1 := src[q], src[q+1]
		e2 := f.Add(e1, f.Sub(e1, e0))
		g0 = f.Add(g0, f.Mul(e0, e0))
		g1 = f.Add(g1, f.Mul(e1, e1))
		g2 = f.Add(g2, f.Mul(e2, e2))
	}
	return
}

func pairsSumProdRef(f Field, srcA, srcB []Elem) (g0, g1, g2 Elem) {
	for q := 0; q+2 <= len(srcA); q += 2 {
		ea0, ea1 := srcA[q], srcA[q+1]
		eb0, eb1 := srcB[q], srcB[q+1]
		ea2 := f.Add(ea1, f.Sub(ea1, ea0))
		eb2 := f.Add(eb1, f.Sub(eb1, eb0))
		g0 = f.Add(g0, f.Mul(ea0, eb0))
		g1 = f.Add(g1, f.Mul(ea1, eb1))
		g2 = f.Add(g2, f.Mul(ea2, eb2))
	}
	return
}

func TestFusedKernelsMatchPlain(t *testing.T) {
	for _, p := range fusedFields {
		f := newField(p)
		rng := NewSplitMix64(p ^ 0xfeed)
		for _, n := range []int{4, 8, 20, 256, 1000} {
			src := f.RandVec(rng, 2*n)
			srcB := f.RandVec(rng, 2*n)
			r := f.Rand(rng)

			// FoldPairsSum = FoldPairs, then the sum.
			wantDst := make([]Elem, n)
			f.FoldPairs(wantDst, src, r)
			wantSum := sumOf(f, wantDst)
			gotDst := make([]Elem, n)
			gotSum := f.FoldPairsSum(gotDst, src, r)
			if gotSum != wantSum {
				t.Fatalf("p=%d n=%d: FoldPairsSum = %d, want %d", p, n, gotSum, wantSum)
			}
			for i := range gotDst {
				if gotDst[i] != wantDst[i] {
					t.Fatalf("p=%d n=%d: FoldPairsSum dst[%d] = %d, want %d", p, n, i, gotDst[i], wantDst[i])
				}
			}

			// PairsSumSq / PairsSumProd against the scalar walk.
			w0, w1, w2 := pairsSumSqRef(f, src)
			g0, g1, g2 := PairsSumSq(f, src)
			if g0 != w0 || g1 != w1 || g2 != w2 {
				t.Fatalf("p=%d n=%d: PairsSumSq = (%d,%d,%d), want (%d,%d,%d)", p, n, g0, g1, g2, w0, w1, w2)
			}
			w0, w1, w2 = pairsSumProdRef(f, src, srcB)
			g0, g1, g2 = PairsSumProd(f, src, srcB)
			if g0 != w0 || g1 != w1 || g2 != w2 {
				t.Fatalf("p=%d n=%d: PairsSumProd = (%d,%d,%d), want (%d,%d,%d)", p, n, g0, g1, g2, w0, w1, w2)
			}

			// FoldPairsSumSq = FoldPairs + PairsSumSq over the fold.
			w0, w1, w2 = pairsSumSqRef(f, wantDst)
			gotDst = make([]Elem, n)
			g0, g1, g2 = f.FoldPairsSumSq(gotDst, src, r)
			if g0 != w0 || g1 != w1 || g2 != w2 {
				t.Fatalf("p=%d n=%d: FoldPairsSumSq = (%d,%d,%d), want (%d,%d,%d)", p, n, g0, g1, g2, w0, w1, w2)
			}
			for i := range gotDst {
				if gotDst[i] != wantDst[i] {
					t.Fatalf("p=%d n=%d: FoldPairsSumSq dst[%d] = %d, want %d", p, n, i, gotDst[i], wantDst[i])
				}
			}

			// FoldPairsSumProd = two FoldPairs + PairsSumProd over the folds.
			wantDstB := make([]Elem, n)
			f.FoldPairs(wantDstB, srcB, r)
			w0, w1, w2 = pairsSumProdRef(f, wantDst, wantDstB)
			gotDst = make([]Elem, n)
			gotDstB := make([]Elem, n)
			g0, g1, g2 = FoldPairsSumProd(f, gotDst, gotDstB, src, srcB, r)
			if g0 != w0 || g1 != w1 || g2 != w2 {
				t.Fatalf("p=%d n=%d: FoldPairsSumProd = (%d,%d,%d), want (%d,%d,%d)", p, n, g0, g1, g2, w0, w1, w2)
			}
			for i := range gotDst {
				if gotDst[i] != wantDst[i] || gotDstB[i] != wantDstB[i] {
					t.Fatalf("p=%d n=%d: FoldPairsSumProd dst mismatch at %d", p, n, i)
				}
			}
		}
	}
}

// TestFusedKernelsInPlace exercises the documented aliasing contract: dst
// may be the front half of src.
func TestFusedKernelsInPlace(t *testing.T) {
	for _, p := range fusedFields {
		f := newField(p)
		rng := NewSplitMix64(p ^ 0xa11a5)
		const n = 64
		src := f.RandVec(rng, 2*n)
		r := f.Rand(rng)

		want := make([]Elem, n)
		f.FoldPairs(want, src, r)
		wantSum := sumOf(f, want)

		buf := append([]Elem(nil), src...)
		if got := f.FoldPairsSum(buf[:n], buf, r); got != wantSum {
			t.Fatalf("p=%d: in-place FoldPairsSum = %d, want %d", p, got, wantSum)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("p=%d: in-place FoldPairsSum dst[%d] = %d, want %d", p, i, buf[i], want[i])
			}
		}

		w0, w1, w2 := pairsSumSqRef(f, want)
		buf = append(buf[:0], src...)
		g0, g1, g2 := f.FoldPairsSumSq(buf[:n], buf, r)
		if g0 != w0 || g1 != w1 || g2 != w2 {
			t.Fatalf("p=%d: in-place FoldPairsSumSq = (%d,%d,%d), want (%d,%d,%d)", p, g0, g1, g2, w0, w1, w2)
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("p=%d: in-place FoldPairsSumSq dst[%d] = %d, want %d", p, i, buf[i], want[i])
			}
		}
	}
}

func TestFusedKernelsPanicOnBadLengths(t *testing.T) {
	f := Mersenne()
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	src := make([]Elem, 8)
	mustPanic("FoldPairsSum", func() { f.FoldPairsSum(make([]Elem, 3), src, 1) })
	mustPanic("PairsSumSq", func() { PairsSumSq(f, make([]Elem, 3)) })
	mustPanic("PairsSumProd len", func() { PairsSumProd(f, make([]Elem, 4), make([]Elem, 6)) })
	mustPanic("PairsSumProd odd", func() { PairsSumProd(f, make([]Elem, 3), make([]Elem, 3)) })
	mustPanic("FoldPairsSumSq len", func() { f.FoldPairsSumSq(make([]Elem, 3), src, 1) })
	mustPanic("FoldPairsSumSq odd", func() { f.FoldPairsSumSq(make([]Elem, 3), make([]Elem, 6), 1) })
	mustPanic("FoldPairsSumProd", func() {
		FoldPairsSumProd(f, make([]Elem, 4), make([]Elem, 2), src, src, 1)
	})
}

// sumOf returns Σ xs mod p, one Add at a time.
func sumOf(f Field, xs []Elem) Elem {
	var s Elem
	for _, x := range xs {
		s = f.Add(s, x)
	}
	return s
}
