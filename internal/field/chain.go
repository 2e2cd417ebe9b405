package field

import "math/bits"

// Product kernels of the streaming verifiers. Every summary a verifier
// keeps over the stream folds an update (i, δ) in by δ times a product of
// one factor per level, each read from a small per-level table at a digit
// of i: the χ weight of a low-degree-extension point (Theorem 1), the
// root weight of a hash-tree leaf (Eq. 8), the GKR verifier's input
// weight. Written as one loop, the d factors are a chain of d dependent
// multiplies, and the verifier runs at the multiplier's latency rather
// than its throughput. These kernels split the chain into independent
// chains over interleaved levels and combine them at the end, so several
// multiplies are in flight at once. Each chain starts from its first
// factor rather than from 1 (given four levels or more), and the scale
// δ joins the chain with the fewest factors, so the product with δ costs
// one multiply per factor and no multiply trails it. A plain product
// also halves its chain: DigitWindows pairs adjacent levels into one
// table entry, so a two-bit digit selects both factors at once. Every
// rearrangement is exact over Z_p, so every value is bit-identical to the
// one-loop product. Digits are read by shift and mask (no divide), and a
// digit selects its factor by index (no branch on the digit). The
// Mersenne modulus reduces lazily (mul61Lazy: operands stay below
// 2^62 + 2, and one reduction finishes the product); the generic modulus
// reduces every multiply with the precomputed reducer in the pre-shifted
// domain (no Div64; see batch.go).

// mulNorm returns a·b mod p for canonical a, b through the pre-shifted
// reducer: b<<sh makes the 128-bit product arrive normalized for remNorm.
func mulNorm(a, b uint64, sh uint, d, v uint64) uint64 {
	hi, lo := bits.Mul64(a, b<<(sh&63))
	return remNorm(hi, lo, d, v) >> (sh & 63)
}

// mul61Lazy returns a value ≡ a·b (mod 2^61 − 1) in [0, 2^61 + 3] for
// a, b ≤ 2^62 + 1: mul61's two folds without its conditional subtract.
// The high word is at most 2^60, so the first fold r stays below
// 2^63 + 2^61 + 7, and the second leaves (r mod 2^61) + ⌊r/2^61⌋: at most
// 2^61 − 1 + 4, or at most 6 + 5 when ⌊r/2^61⌋ = 5. A lazy product, or
// one plus a canonical element, is again a valid operand, so a chain of
// them needs one reduction at its end: a conditional subtract for a lazy
// product, red61 for a sum.
func mul61Lazy(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (lo & Mersenne61) + (lo >> 61) + hi<<3
	return (r & Mersenne61) + (r >> 61)
}

// quad returns the offsets, within a block of four w-wide rows, of the
// factors the next four base-w digits of i select (w = 2^lg), and i
// with those digits shifted out.
func quad(i uint64, lg uint, w uint64) (k0, k1, k2, k3, rest uint64) {
	lg &= 63
	mask := w - 1
	k0 = i & mask
	i >>= lg
	k1 = w + i&mask
	i >>= lg
	k2 = 2*w + i&mask
	i >>= lg
	k3 = 3*w + i&mask
	return k0, k1, k2, k3, i >> lg
}

// DigitProduct returns s·Π_{j<n} t[j·w + digit_j(i)], where w = 2^lg
// (lg < 64), n = len(t)/w and digit_j(i) = ⌊i/w^j⌋ mod w: one entry from
// each w-wide row of t, selected by the base-w digits of i, least
// significant first, scaled by s. len(t) must be a whole number of rows.
// The factors run as four chains, over the levels j ≡ 0, 1, 2, 3
// (mod 4), seeded by the first block of four levels; the last n mod 4
// levels join the first chains, and s rides on the fourth, which holds
// the fewest. For n ≥ 4 that is n multiplies, s included, on a critical
// path of ⌊n/4⌋ + 2: s lengthens it only when 4 divides n. Below four
// levels there is no first block, and the chains start from 1 and s.
func (f Field) DigitProduct(t []Elem, lg uint, i uint64, s Elem) Elem {
	lg &= 63
	w := uint64(1) << lg
	if uint64(len(t))&(w-1) != 0 {
		panic("field: DigitProduct table is not a whole number of rows")
	}
	blk := 4 << lg // four rows: one factor of each chain
	var k0, k1, k2, k3 uint64
	a0, a1, a2, a3 := uint64(1), uint64(1), uint64(1), uint64(s)
	if f.p == Mersenne61 {
		if len(t) >= blk { // the first block seeds the chains
			k0, k1, k2, k3, i = quad(i, lg, w)
			a0, a1, a2, a3 = uint64(t[k0]), uint64(t[k1]), uint64(t[k2]), mul61Lazy(a3, uint64(t[k3]))
			t = t[blk:]
		}
		for ; len(t) >= blk; t = t[blk:] {
			k0, k1, k2, k3, i = quad(i, lg, w)
			row := t[:blk]
			a0 = mul61Lazy(a0, uint64(row[k0]))
			a1 = mul61Lazy(a1, uint64(row[k1]))
			a2 = mul61Lazy(a2, uint64(row[k2]))
			a3 = mul61Lazy(a3, uint64(row[k3]))
		}
		k0, k1, k2, _, _ = quad(i, lg, w)
		switch len(t) >> lg { // the last n mod 4 levels join the first chains
		case 3:
			a2 = mul61Lazy(a2, uint64(t[k2]))
			fallthrough
		case 2:
			a1 = mul61Lazy(a1, uint64(t[k1]))
			fallthrough
		case 1:
			a0 = mul61Lazy(a0, uint64(t[k0]))
		}
		r := mul61Lazy(mul61Lazy(a0, a1), mul61Lazy(a2, a3))
		if r >= Mersenne61 {
			r -= Mersenne61
		}
		return Elem(r)
	}
	sh, d, v := f.sh, f.d, f.v
	if len(t) >= blk {
		k0, k1, k2, k3, i = quad(i, lg, w)
		a0, a1, a2, a3 = uint64(t[k0]), uint64(t[k1]), uint64(t[k2]), mulNorm(a3, uint64(t[k3]), sh, d, v)
		t = t[blk:]
	}
	for ; len(t) >= blk; t = t[blk:] {
		k0, k1, k2, k3, i = quad(i, lg, w)
		row := t[:blk]
		a0 = mulNorm(a0, uint64(row[k0]), sh, d, v)
		a1 = mulNorm(a1, uint64(row[k1]), sh, d, v)
		a2 = mulNorm(a2, uint64(row[k2]), sh, d, v)
		a3 = mulNorm(a3, uint64(row[k3]), sh, d, v)
	}
	k0, k1, k2, _, _ = quad(i, lg, w)
	switch len(t) >> lg {
	case 3:
		a2 = mulNorm(a2, uint64(t[k2]), sh, d, v)
		fallthrough
	case 2:
		a1 = mulNorm(a1, uint64(t[k1]), sh, d, v)
		fallthrough
	case 1:
		a0 = mulNorm(a0, uint64(t[k0]), sh, d, v)
	}
	return Elem(mulNorm(mulNorm(a0, a1, sh, d, v), mulNorm(a2, a3, sh, d, v), sh, d, v))
}

// DigitWindows returns the two-bit window table of a per-level factor
// table t (two entries per level, len(t) = 2n): window m holds the four
// products of levels 2m and 2m+1, entry 4m + b₀ + 2b₁ =
// t[2(2m) + b₀]·t[2(2m+1) + b₁], so DigitProduct(windows, 2, i, s)
// equals DigitProduct(t, 1, i, s) for every i < 2^n at ⌈n/2⌉ multiplies
// instead of n. For odd n the last window has no upper level: its
// entries with b₁ = 1 are selected only by an index ≥ 2^n and are zero.
// The table holds 4·⌈n/2⌉ entries, two more than t for odd n and as many
// for even n.
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

// BitHorner returns s·x_n of the recurrence x_0 = 1,
// x_{j+1} = x_j·t[2j + b_j] + q[j], where n = len(q), len(t) = 2n and b_j
// is bit j of i: the weight with which a leaf enters the root of a
// count-augmented hash tree, each level multiplying by the factor of the
// child's side and adding its count coefficient, scaled by the update's
// δ. The n multiply-adds run as the composition of the recurrence's two
// halves: with m = ⌊n/2⌋, s·x_n = (s·A)·x_m + s·B, where
// A = Π_{j≥m} t[2j + b_j] and B is the upper half started at 0 — x_m, A
// and B are three independent chains, each seeded from its half's first
// level (x_1 = t[b_0] + q[0], A and B from level m), and s scales A and B
// off the x chain.
func (f Field) BitHorner(t, q []Elem, i uint64, s Elem) Elem {
	n := len(q)
	if len(t) != 2*n {
		panic("field: BitHorner needs two table entries per level")
	}
	if n == 0 {
		return s
	}
	m := n / 2
	lo, up := t[:2*m], t[2*m:]
	qlo, qup := q[:m], q[m:]
	hi := i >> (uint(m) & 63)
	if m >= 64 {
		hi = 0
	}
	x, a, b := uint64(1), uint64(up[hi&1]), uint64(qup[0])
	if m > 0 {
		x = uint64(f.Add(lo[i&1], qlo[0]))
	}
	i >>= 1
	hi >>= 1
	if f.p == Mersenne61 {
		for k := 1; k < m; k++ {
			wk := uint64(up[2*k+int(hi&1)])
			x = mul61Lazy(x, uint64(lo[2*k+int(i&1)])) + uint64(qlo[k])
			a = mul61Lazy(a, wk)
			b = mul61Lazy(b, wk) + uint64(qup[k])
			i >>= 1
			hi >>= 1
		}
		for k := max(m, 1); k < len(qup); k++ { // n odd: the upper half has one level more
			wk := uint64(up[2*k+int(hi&1)])
			a = mul61Lazy(a, wk)
			b = mul61Lazy(b, wk) + uint64(qup[k])
		}
		a, b = mul61Lazy(a, uint64(s)), mul61Lazy(b, uint64(s))
		return Elem(red61(mul61Lazy(a, x) + b))
	}
	sh, d, v := f.sh, f.d, f.v
	for k := 1; k < m; k++ {
		wk := uint64(up[2*k+int(hi&1)])
		x = uint64(f.Add(Elem(mulNorm(x, uint64(lo[2*k+int(i&1)]), sh, d, v)), qlo[k]))
		a = mulNorm(a, wk, sh, d, v)
		b = uint64(f.Add(Elem(mulNorm(b, wk, sh, d, v)), qup[k]))
		i >>= 1
		hi >>= 1
	}
	for k := max(m, 1); k < len(qup); k++ {
		wk := uint64(up[2*k+int(hi&1)])
		a = mulNorm(a, wk, sh, d, v)
		b = uint64(f.Add(Elem(mulNorm(b, wk, sh, d, v)), qup[k]))
	}
	a, b = mulNorm(a, uint64(s), sh, d, v), mulNorm(b, uint64(s), sh, d, v)
	return f.Add(Elem(mulNorm(a, x, sh, d, v)), Elem(b))
}
