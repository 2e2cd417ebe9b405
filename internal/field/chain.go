package field

import "math/bits"

// Product kernels of the streaming verifiers. Every summary a verifier
// keeps over the stream folds an update (i, δ) in by a product of one
// factor per level, each read from a small per-level table at a digit of
// i: the χ weight of a low-degree-extension point (Theorem 1), the root
// weight of a hash-tree leaf (Eq. 8), the GKR verifier's input weight.
// Written as one loop, the d factors are a chain of d dependent
// multiplies, and the verifier runs at the multiplier's latency rather
// than its throughput. These kernels split the chain into independent
// chains over interleaved levels and combine them at the end, so several
// multiplies are in flight at once. A plain product also halves its
// chain: DigitWindows pairs adjacent levels into one table entry, so a
// two-bit digit selects both factors at once. Every rearrangement is
// exact over Z_p, so every value is bit-identical to the one-loop
// product. Digits are read by shift and mask (no divide), a digit
// selects its factor by index (no branch on the digit), and the generic
// modulus reduces with the precomputed reducer in the pre-shifted domain
// (no Div64; see batch.go).

// mulNorm returns a·b mod p for canonical a, b through the pre-shifted
// reducer: b<<sh makes the 128-bit product arrive normalized for remNorm.
func mulNorm(a, b uint64, sh uint, d, v uint64) uint64 {
	hi, lo := bits.Mul64(a, b<<(sh&63))
	return remNorm(hi, lo, d, v) >> (sh & 63)
}

// DigitProduct returns Π_{j<n} t[j·w + digit_j(i)], where w = 2^lg
// (lg < 64), n = len(t)/w and digit_j(i) = ⌊i/w^j⌋ mod w: one entry from
// each w-wide row of t, selected by the base-w digits of i, least
// significant first. len(t) must be a whole number of rows. The n factors
// run as four chains, over the levels j ≡ 0, 1, 2, 3 (mod 4).
func (f Field) DigitProduct(t []Elem, lg uint, i uint64) Elem {
	lg &= 63
	w := uint64(1) << lg
	if uint64(len(t))&(w-1) != 0 {
		panic("field: DigitProduct table is not a whole number of rows")
	}
	n := len(t) >> lg
	mask := w - 1
	a0, a1, a2, a3 := uint64(1), uint64(1), uint64(1), uint64(1)
	j := 0
	if f.p == Mersenne61 {
		for ; j+4 <= n; j += 4 {
			row := t[j<<lg : (j+4)<<lg]
			k0 := i & mask
			i >>= lg
			k1 := w + i&mask
			i >>= lg
			k2 := 2*w + i&mask
			i >>= lg
			k3 := 3*w + i&mask
			i >>= lg
			a0 = mul61(a0, uint64(row[k0]))
			a1 = mul61(a1, uint64(row[k1]))
			a2 = mul61(a2, uint64(row[k2]))
			a3 = mul61(a3, uint64(row[k3]))
		}
		for ; j < n; j++ {
			a0 = mul61(a0, uint64(t[uint64(j)<<lg+i&mask]))
			i >>= lg
		}
		return Elem(mul61(mul61(a0, a1), mul61(a2, a3)))
	}
	sh, d, v := f.sh, f.d, f.v
	for ; j+4 <= n; j += 4 {
		row := t[j<<lg : (j+4)<<lg]
		k0 := i & mask
		i >>= lg
		k1 := w + i&mask
		i >>= lg
		k2 := 2*w + i&mask
		i >>= lg
		k3 := 3*w + i&mask
		i >>= lg
		a0 = mulNorm(a0, uint64(row[k0]), sh, d, v)
		a1 = mulNorm(a1, uint64(row[k1]), sh, d, v)
		a2 = mulNorm(a2, uint64(row[k2]), sh, d, v)
		a3 = mulNorm(a3, uint64(row[k3]), sh, d, v)
	}
	for ; j < n; j++ {
		a0 = mulNorm(a0, uint64(t[uint64(j)<<lg+i&mask]), sh, d, v)
		i >>= lg
	}
	return Elem(mulNorm(mulNorm(a0, a1, sh, d, v), mulNorm(a2, a3, sh, d, v), sh, d, v))
}

// DigitWindows returns the two-bit window table of a per-level factor
// table t (two entries per level, len(t) = 2n): window m holds the four
// products of levels 2m and 2m+1, entry 4m + b₀ + 2b₁ =
// t[2(2m) + b₀]·t[2(2m+1) + b₁], so DigitProduct(windows, 2, i) equals
// DigitProduct(t, 1, i) for every i < 2^n at ⌈n/2⌉ multiplies instead of
// n. For odd n the last window has no upper level: its entries with
// b₁ = 1 are selected only by an index ≥ 2^n and are zero. The table holds
// 4·⌈n/2⌉ entries, two more than t for odd n and as many for even n.
func (f Field) DigitWindows(t []Elem) []Elem {
	if len(t)&1 != 0 {
		panic("field: DigitWindows needs two table entries per level")
	}
	n := len(t) / 2
	out := make([]Elem, 4*((n+1)/2))
	for m := 0; 2*m < n; m++ {
		lo, win := t[4*m:4*m+2], out[4*m:4*m+4]
		if 2*m+1 == n {
			win[0], win[1] = lo[0], lo[1]
			break
		}
		hi := t[4*m+2 : 4*m+4]
		win[0], win[1] = f.Mul(lo[0], hi[0]), f.Mul(lo[1], hi[0])
		win[2], win[3] = f.Mul(lo[0], hi[1]), f.Mul(lo[1], hi[1])
	}
	return out
}

// BitHorner returns x_n of the recurrence x_0 = 1,
// x_{j+1} = x_j·t[2j + b_j] + q[j], where n = len(q), len(t) = 2n and b_j
// is bit j of i: the weight with which a leaf enters the root of a
// count-augmented hash tree, each level multiplying by the factor of the
// child's side and adding its count coefficient. The n multiply-adds run
// as the composition of the recurrence's two halves: with m = ⌊n/2⌋,
// x_n = A·x_m + B, where A = Π_{j≥m} t[2j + b_j] and B is the upper half
// started at 0 — x_m, A and B are three independent chains.
func (f Field) BitHorner(t, q []Elem, i uint64) Elem {
	n := len(q)
	if len(t) != 2*n {
		panic("field: BitHorner needs two table entries per level")
	}
	m := n / 2
	lo, up := t[:2*m], t[2*m:]
	qlo, qup := q[:m], q[m:]
	hi := i >> (uint(m) & 63)
	if m >= 64 {
		hi = 0
	}
	x, a, b := uint64(1), uint64(1), uint64(0)
	if f.p == Mersenne61 {
		for k := 0; k < m; k++ {
			wk := uint64(up[2*k+int(hi&1)])
			x = add61(mul61(x, uint64(lo[2*k+int(i&1)])), uint64(qlo[k]))
			a = mul61(a, wk)
			b = add61(mul61(b, wk), uint64(qup[k]))
			i >>= 1
			hi >>= 1
		}
		if len(qup) > m { // n odd: the upper half has one level more
			wk := uint64(up[2*m+int(hi&1)])
			a = mul61(a, wk)
			b = add61(mul61(b, wk), uint64(qup[m]))
		}
		return Elem(add61(mul61(a, x), b))
	}
	sh, d, v := f.sh, f.d, f.v
	for k := 0; k < m; k++ {
		wk := uint64(up[2*k+int(hi&1)])
		x = uint64(f.Add(Elem(mulNorm(x, uint64(lo[2*k+int(i&1)]), sh, d, v)), qlo[k]))
		a = mulNorm(a, wk, sh, d, v)
		b = uint64(f.Add(Elem(mulNorm(b, wk, sh, d, v)), qup[k]))
		i >>= 1
		hi >>= 1
	}
	if len(qup) > m {
		wk := uint64(up[2*m+int(hi&1)])
		a = mulNorm(a, wk, sh, d, v)
		b = uint64(f.Add(Elem(mulNorm(b, wk, sh, d, v)), qup[m]))
	}
	return f.Add(Elem(mulNorm(a, x, sh, d, v)), Elem(b))
}
