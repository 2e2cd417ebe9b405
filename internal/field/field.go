// Package field implements arithmetic in prime fields Z_p for p < 2^62.
//
// All protocols in this repository perform their checks over Z_p via
// Schwartz–Zippel polynomial identity testing, exactly as in Cormode,
// Thaler & Yi (VLDB 2011). The paper's experiments use the Mersenne prime
// p = 2^61 - 1, for which this package provides a branch-free reduction;
// any other prime below 2^62 uses a precomputed division-free reducer
// (Möller–Granlund division by invariant integers) in every batch kernel,
// so the throughput-bound slice paths never execute a hardware divide
// regardless of the modulus. Scalar Mul keeps the divide on the generic
// path — it is latency-bound and must stay inlinable (see Mul).
package field

import (
	"errors"
	"fmt"
	"math/bits"
)

// Mersenne61 is the Mersenne prime 2^61 - 1 used throughout the paper's
// experimental study (§5). Arithmetic modulo this prime reduces without
// division.
const Mersenne61 = (1 << 61) - 1

// maxModulus bounds the supported moduli. Keeping p below 2^62 guarantees
// that a+b never overflows uint64 and that the specialized reductions stay
// correct.
const maxModulus = 1 << 62

// Elem is an element of Z_p in canonical form (0 ≤ e < p). Elements are
// only meaningful relative to the Field that produced them.
type Elem uint64

// Field is an immutable description of Z_p together with the precomputed
// constants of its reducer. The zero value is invalid; use New or Mersenne.
type Field struct {
	p uint64 // modulus
	// Reducer constants, fixed at construction (Möller–Granlund,
	// "Improved division by invariant integers", IEEE ToC 2011).
	// Exactly four fields total: a struct this size stays SSA-able, so
	// Field values live in registers and per-call copies are free —
	// adding a fifth field would push every scalar op onto the stack.
	sh uint   // normalization shift = LeadingZeros64(p), in [2, 62]
	d  uint64 // normalized divisor p << sh (top bit set)
	v  uint64 // reciprocal ⌊(2^128-1)/d⌋ - 2^64
}

// newField precomputes the reducer for a validated modulus p ∈ [2, 2^62).
func newField(p uint64) Field {
	sh := uint(bits.LeadingZeros64(p))
	d := p << sh
	// ⌊(2^128-1)/d⌋ - 2^64 = ⌊((2^64-1-d)·2^64 + 2^64-1) / d⌋; the high
	// word ^d is < d because d has its top bit set, so Div64 is safe.
	v, _ := bits.Div64(^d, ^uint64(0), d)
	return Field{p: p, sh: sh, d: d, v: v}
}

// resid64 returns 2^64 mod p — the factor that folds the high word of a
// lazy accumulator. Derived (one remNorm) rather than stored to keep the
// Field struct at four fields; callers run once per kernel call, not per
// element.
func (f Field) resid64() uint64 { return f.reduce128(1, 0) }

// New returns the field Z_p. It reports an error unless p is a prime in
// [2, 2^62).
func New(p uint64) (Field, error) {
	if p < 2 || p >= maxModulus {
		return Field{}, fmt.Errorf("field: modulus %d out of range [2, 2^62)", p)
	}
	if !IsPrime(p) {
		return Field{}, fmt.Errorf("field: modulus %d is not prime", p)
	}
	return newField(p), nil
}

var mersenneField = newField(Mersenne61)

// Mersenne returns the field Z_p for p = 2^61 - 1, the paper's default.
func Mersenne() Field { return mersenneField }

// ForUniverse returns the field whose modulus is the smallest prime
// p ≥ max(u, 2), so u ≤ p ≤ 2u (the requirement of §3, guaranteed to
// exist by Bertrand's postulate). There is no floor on p: a small
// universe gives a small field and a failure probability to match.
// Most callers should simply use Mersenne; ForUniverse exists to exercise
// the paper's parameterization and for soundness experiments with small
// fields.
func ForUniverse(u uint64) (Field, error) {
	if u < 2 {
		u = 2
	}
	if u >= maxModulus/2 {
		return Field{}, fmt.Errorf("field: universe %d too large for a 62-bit modulus", u)
	}
	p, err := NextPrimeAtLeast(u)
	if err != nil {
		return Field{}, err
	}
	return newField(p), nil
}

// Modulus returns p.
func (f Field) Modulus() uint64 { return f.p }

// Valid reports whether f was constructed by New or Mersenne.
func (f Field) Valid() bool { return f.p >= 2 }

// remNorm returns the remainder of the 2-word value h·2^64 + l divided by
// the normalized divisor d (top bit set), given the precomputed reciprocal
// v = ⌊(2^128-1)/d⌋ - 2^64. Requires h < d. This is the 2-word division of
// Möller–Granlund specialized to the remainder: one 64×64 multiply
// estimates the quotient, and the corrections compile to conditional
// moves, so the function is branch-free.
func remNorm(h, l, d, v uint64) uint64 {
	qh, ql := bits.Mul64(v, h)
	ql, c := bits.Add64(ql, l, 0)
	qh, _ = bits.Add64(qh, h, c)
	qh++
	r := l - qh*d
	if r > ql {
		r += d
	}
	if r >= d {
		r -= d
	}
	return r
}

// shoup returns ⌊w·2^64/p⌋, the Shoup precomputation for repeated
// multiplication by the invariant factor w (one divide per slice call,
// never on a per-element path).
func (f Field) shoup(w Elem) uint64 {
	q, _ := bits.Div64(uint64(w), 0, f.p)
	return q
}

// shoupMul returns w·t mod p for any t < 2^64 and canonical w, given
// wp = ⌊w·2^64/p⌋. The quotient estimate ⌊wp·t/2^64⌋ is exact or one
// short, so a single conditional subtract (a cmov) lands in [0, p); the
// three multiplies are one high-half and two low-half — no shifts, no
// divisions, and the whole body is small enough to inline.
func shoupMul(t, w, wp, p uint64) uint64 {
	q, _ := bits.Mul64(wp, t)
	r := w*t - q*p
	if r >= p {
		r -= p
	}
	return r
}

// foldPairShoup returns t0 + r·(t1−t0) mod p for canonical inputs, given
// rp = ⌊r·2^64/p⌋. The difference is taken as t1 + p − t0 ∈ (0, 2p) —
// fine for shoupMul, which accepts any 64-bit t — avoiding a borrow
// branch, and the final add needs one conditional subtract.
func foldPairShoup(t0, t1, r, rp, p uint64) uint64 {
	m := shoupMul(t1+p-t0, r, rp, p)
	s := t0 + m
	if s >= p {
		s -= p
	}
	return s
}

// reduce128 returns (hi·2^64 + lo) mod p without division, valid whenever
// hi·2^64 + lo < p·2^64. That precondition covers every product of two
// canonical elements (< p² ≤ p·2^62) and every single word (hi = 0).
// Shifting by sh normalizes the input for remNorm (the high word becomes
// < d). sh ∈ [2, 62] for every supported p, so both shift counts are in
// range; the &63 masks let the compiler drop its variable-shift guards.
func (f Field) reduce128(hi, lo uint64) uint64 {
	sh := f.sh & 63
	h := hi<<sh | lo>>((64-sh)&63)
	l := lo << sh
	return remNorm(h, l, f.d, f.v) >> sh
}

// Reduce maps an arbitrary uint64 into canonical form.
func (f Field) Reduce(x uint64) Elem {
	if x < f.p {
		return Elem(x)
	}
	return Elem(f.reduce128(0, x))
}

// FromUint64 is an alias for Reduce, provided for readable call sites.
func (f Field) FromUint64(x uint64) Elem { return f.Reduce(x) }

// FromInt64 maps a signed integer into Z_p; negative values wrap to p - |v|.
// This is how stream deltas (which the paper allows to be negative) enter
// the field. Deltas smaller than p in magnitude — every realistic stream —
// take the comparison-only fast path.
// The fast path must stay within the inlining budget — this is the
// per-update cost of every streaming Observe — so the wrap/reduce cases
// live in fromInt64Slow.
func (f Field) FromInt64(v int64) Elem {
	if v >= 0 && uint64(v) < f.p {
		return Elem(v)
	}
	return f.fromInt64Slow(v)
}

func (f Field) fromInt64Slow(v int64) Elem {
	if v >= 0 {
		return Elem(f.reduce128(0, uint64(v)))
	}
	// Avoid overflow for MinInt64: -(v+1) is representable.
	mag := uint64(-(v + 1)) + 1
	r := mag
	if r >= f.p {
		r = f.reduce128(0, mag)
	}
	if r == 0 {
		return 0
	}
	return Elem(f.p - r)
}

// Centered lifts e to the signed representative in (-p/2, p/2]. Protocols
// that allow negative deltas (e.g. RANGE-SUM over signed values) use this
// to report answers as integers.
func (f Field) Centered(e Elem) int64 {
	if uint64(e) <= f.p/2 {
		return int64(e)
	}
	return -int64(f.p - uint64(e))
}

// Add returns a + b mod p.
func (f Field) Add(a, b Elem) Elem {
	s := uint64(a) + uint64(b)
	if s >= f.p {
		s -= f.p
	}
	return Elem(s)
}

// Sub returns a - b mod p.
func (f Field) Sub(a, b Elem) Elem {
	if a >= b {
		return a - b
	}
	return Elem(uint64(a) + f.p - uint64(b))
}

// Neg returns -a mod p.
func (f Field) Neg(a Elem) Elem {
	if a == 0 {
		return 0
	}
	return Elem(f.p - uint64(a))
}

// Mul returns a·b mod p. For the Mersenne modulus the reduction is
// branch-free bit folding; any other modulus uses the precomputed
// division-free reducer. No hardware divide on either path.
// Mul must stay within the inlining budget: it is the per-gate cost of
// every circuit evaluation and the per-node cost of every χ product, and
// a non-inlined Mul costs more in call overhead than any reduction
// strategy saves. That budget fits the branch-free Mersenne folding plus
// ONE more reduction; the generic path keeps the hardware divide because
// a scalar multiply is latency-bound — Div64's latency is on par with
// the Barrett chain's three dependent multiplies, while outlining the
// Barrett reducer (it does not fit the budget) measurably loses. The
// division-free reducer pays off in the batch kernels (batch.go,
// fused.go), where its constants are hoisted and throughput dominates.
func (f Field) Mul(a, b Elem) Elem {
	if f.p == Mersenne61 {
		return Elem(mul61(uint64(a), uint64(b)))
	}
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	_, rem := bits.Div64(hi, lo, f.p)
	return Elem(rem)
}

// mul61 multiplies canonical a, b modulo p = 2^61 - 1. Since
// 2^64 ≡ 8 (mod p), the 128-bit product hi·2^64 + lo reduces to
// 8·hi + lo, which is folded at bit 61 twice, and the second fold is
// already canonical. With a, b ≤ p − 1, hi < 2^58, so the first fold
// r = (lo mod 2^61) + (lo >> 61) + 8·hi is at most
// (2^61 − 1) + 7 + (2^61 − 8) < 2^62: r >> 61 is 0 or 1, and the second
// fold (r mod 2^61) + (r >> 61) is at most p. It is ≡ a·b (mod p), so it
// equals p only when a·b ≡ 0, that is when a or b is 0 (p is prime);
// but then hi = lo = 0 and it is 0. So it lies in [0, p − 1]
// (TestMul61Canonical).
func mul61(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	r := (lo & Mersenne61) + (lo >> 61) + hi<<3
	return (r & Mersenne61) + (r >> 61)
}

// red61 reduces an arbitrary uint64 modulo 2^61 - 1 (2^61 ≡ 1, so the word
// folds at bit 61; one fold leaves a value ≤ M+7, one conditional subtract
// finishes).
func red61(x uint64) uint64 {
	r := (x & Mersenne61) + (x >> 61)
	if r >= Mersenne61 {
		r -= Mersenne61
	}
	return r
}

// foldAcc3 reduces a 192-bit lazy accumulator hi·2^128 + mid·2^64 + lo
// (all words arbitrary) to canonical form using the precomputed residues
// of 2^64 and 2^128.
func (f Field) foldAcc3(hi, mid, lo uint64) Elem {
	if f.p == Mersenne61 {
		// 2^64 ≡ 8 and 2^128 ≡ 64 (mod M61).
		r := add61(mul61(red61(hi), 64), mul61(red61(mid), 8))
		return Elem(add61(r, red61(lo)))
	}
	r := f.reduce128(0, lo)
	if mid != 0 || hi != 0 {
		r64 := f.resid64()
		if mid != 0 {
			ph, pl := bits.Mul64(f.reduce128(0, mid), r64)
			r += f.reduce128(ph, pl)
			if r >= f.p {
				r -= f.p
			}
		}
		if hi != 0 {
			r128 := uint64(f.Mul(Elem(r64), Elem(r64))) // 2^128 mod p
			ph, pl := bits.Mul64(f.reduce128(0, hi), r128)
			r += f.reduce128(ph, pl)
			if r >= f.p {
				r -= f.p
			}
		}
	}
	return Elem(r)
}

// add61 adds modulo 2^61 - 1 for canonical inputs.
func add61(a, b uint64) uint64 {
	s := a + b
	if s >= Mersenne61 {
		s -= Mersenne61
	}
	return s
}

// Pow returns a^e mod p by square-and-multiply. Pow(0, 0) = 1.
func (f Field) Pow(a Elem, e uint64) Elem {
	result := Elem(1)
	base := a
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a by the binary extended
// Euclidean algorithm — shift/subtract only, no multiplies, roughly an
// order of magnitude cheaper than the ~2·61 multiplies of Fermat
// exponentiation (which Pow still provides as a test cross-check).
// Inv(0) returns 0; callers that can receive zero must check.
func (f Field) Inv(a Elem) Elem {
	if a == 0 {
		return 0
	}
	// Invariants: x1·a ≡ u and x2·a ≡ v (mod p), with 0 ≤ x1, x2 < p.
	// The halving steps need p odd, which holds whenever the loop runs:
	// for p = 2 the only invertible element is a = 1, so u = 1 already.
	u, v := uint64(a), f.p
	x1, x2 := uint64(1), uint64(0)
	for u != 1 && v != 1 {
		for u&1 == 0 {
			u >>= 1
			if x1&1 == 0 {
				x1 >>= 1
			} else {
				x1 = (x1 + f.p) >> 1
			}
		}
		for v&1 == 0 {
			v >>= 1
			if x2&1 == 0 {
				x2 >>= 1
			} else {
				x2 = (x2 + f.p) >> 1
			}
		}
		if u >= v {
			u -= v
			if x1 >= x2 {
				x1 -= x2
			} else {
				x1 += f.p - x2
			}
		} else {
			v -= u
			if x2 >= x1 {
				x2 -= x1
			} else {
				x2 += f.p - x1
			}
		}
	}
	if u == 1 {
		return Elem(x1)
	}
	return Elem(x2)
}

// InvSlice inverts every element of xs in place using Montgomery's batch
// inversion trick (one Inv plus 3(n-1) multiplications). Zero elements are
// left as zero.
func (f Field) InvSlice(xs []Elem) {
	// prefix[i] holds the product of all nonzero xs[0..i].
	prefix := make([]Elem, len(xs))
	acc := Elem(1)
	for i, x := range xs {
		if x != 0 {
			acc = f.Mul(acc, x)
		}
		prefix[i] = acc
	}
	inv := f.Inv(acc)
	for i := len(xs) - 1; i >= 0; i-- {
		if xs[i] == 0 {
			continue
		}
		before := Elem(1)
		if i > 0 {
			before = prefix[i-1]
		}
		x := xs[i]
		xs[i] = f.Mul(inv, before)
		inv = f.Mul(inv, x)
	}
}

// RNG is the source of randomness used when sampling field elements. Both
// math/rand(/v2) generators and CryptoRNG satisfy it.
type RNG interface {
	Uint64() uint64
}

// randSplit returns the per-candidate bit width k (smallest with 2^k ≥ p)
// and how many k-bit candidates one 64-bit draw yields.
func (f Field) randSplit() (k, perWord uint) {
	k = uint(64 - bits.LeadingZeros64(f.p-1))
	return k, 64 / k
}

// Rand returns a uniformly random field element. Each 64-bit draw is split
// into ⌊64/k⌋ independent k-bit candidates (k the bit width of p-1) which
// are rejection-tested in turn, so the distribution is exactly uniform
// over [0, p) and small moduli no longer burn a full word per candidate.
// For p = 2^61 - 1 (k = 61) this degenerates to one candidate per draw and
// the consumed random stream is identical to earlier releases.
func (f Field) Rand(rng RNG) Elem {
	k, perWord := f.randSplit()
	mask := uint64(1)<<k - 1
	for {
		w := rng.Uint64()
		for j := uint(0); j < perWord; j++ {
			if v := w & mask; v < f.p {
				return Elem(v)
			}
			w >>= k
		}
	}
}

// RandVec returns n independent uniform field elements, sharing the
// word-splitting of Rand across the whole vector.
func (f Field) RandVec(rng RNG, n int) []Elem {
	out := make([]Elem, n)
	f.FillRand(rng, out)
	return out
}

// FillRand fills out with independent uniform field elements.
func (f Field) FillRand(rng RNG, out []Elem) {
	k, perWord := f.randSplit()
	mask := uint64(1)<<k - 1
	i := 0
	for i < len(out) {
		w := rng.Uint64()
		for j := uint(0); j < perWord && i < len(out); j++ {
			if v := w & mask; v < f.p {
				out[i] = Elem(v)
				i++
			}
			w >>= k
		}
	}
}

// ErrNoPrime is returned when a prime search would exceed the supported
// modulus range.
var ErrNoPrime = errors.New("field: no prime in supported range")

// IsPrime reports whether n is prime, using a Miller–Rabin test with a
// witness set that is deterministic for all 64-bit integers.
func IsPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for _, p := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if n%p == 0 {
			return n == p
		}
	}
	// n-1 = d · 2^s with d odd.
	d := n - 1
	s := bits.TrailingZeros64(d)
	d >>= uint(s)
	// These witnesses are sufficient for all n < 2^64 (Sinclair, 2011).
	for _, a := range []uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37} {
		if !millerRabinWitness(n, d, s, a) {
			return false
		}
	}
	return true
}

// millerRabinWitness reports whether n passes a single Miller–Rabin round
// with base a.
func millerRabinWitness(n, d uint64, s int, a uint64) bool {
	x := powMod(a%n, d, n)
	if x == 1 || x == n-1 {
		return true
	}
	for i := 0; i < s-1; i++ {
		x = mulMod(x, x, n)
		if x == n-1 {
			return true
		}
	}
	return false
}

// mulMod and powMod serve primality testing of arbitrary 64-bit candidates
// (no precomputed reducer exists for them); hardware division is fine on
// this cold path.
func mulMod(a, b, m uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	_, rem := bits.Div64(hi, lo, m)
	return rem
}

func powMod(a, e, m uint64) uint64 {
	result := uint64(1 % m)
	base := a % m
	for e > 0 {
		if e&1 == 1 {
			result = mulMod(result, base, m)
		}
		base = mulMod(base, base, m)
		e >>= 1
	}
	return result
}

// NextPrimeAtLeast returns the smallest prime p ≥ n. By Bertrand's
// postulate p ≤ 2n, which is the bound the paper relies on when choosing
// the field for a universe of size u.
func NextPrimeAtLeast(n uint64) (uint64, error) {
	if n <= 2 {
		return 2, nil
	}
	if n%2 == 0 {
		n++
	}
	for c := n; c < maxModulus; c += 2 {
		if IsPrime(c) {
			return c, nil
		}
	}
	return 0, ErrNoPrime
}
