package field

import (
	"math"
	"math/big"
	"math/bits"
	"testing"
)

// adversarialModuli are the reducer's hard cases: the smallest modulus,
// tiny primes, the smallest prime above a power-of-two universe, primes
// within a few units of the 2^62 ceiling, and the Mersenne fast path
// (which must agree with the generic machinery it bypasses).
var adversarialModuli = []uint64{
	2,
	3,
	5,
	1048583,             // smallest prime ≥ 2^20
	2305843009213693951, // 2^61 - 1 (Mersenne fast path)
	2305843009213693967, // smallest prime > 2^61
	4611686018427387847, // largest prime < 2^62
	4611686018427387817, // second-largest prime < 2^62
}

func TestAdversarialModuliAreValid(t *testing.T) {
	for _, p := range adversarialModuli {
		if !IsPrime(p) {
			t.Errorf("modulus %d is not prime", p)
		}
		if _, err := New(p); err != nil {
			t.Errorf("New(%d): %v", p, err)
		}
	}
}

// interestingElems returns boundary elements plus full-range random ones.
func interestingElems(f Field, rng RNG, n int) []Elem {
	xs := []Elem{0, 1}
	p := f.Modulus()
	if p > 2 {
		xs = append(xs, Elem(p-1), Elem(p-2), Elem(p/2), Elem(p/2+1))
	}
	for len(xs) < n {
		xs = append(xs, f.Rand(rng))
	}
	return xs
}

// TestRemNormAgainstDiv64 drives the core 2-word reducer over random
// inputs spanning its whole precondition (h < d) and checks it against the
// hardware divider it replaces.
func TestRemNormAgainstDiv64(t *testing.T) {
	rng := NewSplitMix64(0xbadc0de)
	for _, p := range adversarialModuli {
		f := newField(p)
		for i := 0; i < 2000; i++ {
			h := rng.Uint64() % f.d
			l := rng.Uint64()
			got := remNorm(h, l, f.d, f.v)
			_, want := bits.Div64(h, l, f.d)
			if got != want {
				t.Fatalf("p=%d: remNorm(%d,%d) = %d, Div64 remainder %d", p, h, l, got, want)
			}
		}
	}
}

// TestMulAgainstBigIntAdversarial checks Mul, Reduce, reduce128, and the
// lazy-accumulator folds against math/big over the adversarial moduli with
// boundary and full-range inputs.
func TestMulAgainstBigIntAdversarial(t *testing.T) {
	for _, p := range adversarialModuli {
		f := newField(p)
		bp := new(big.Int).SetUint64(p)
		rng := NewSplitMix64(p)
		elems := interestingElems(f, rng, 24)
		for _, a := range elems {
			for _, b := range elems {
				want := new(big.Int).Mul(new(big.Int).SetUint64(uint64(a)), new(big.Int).SetUint64(uint64(b)))
				want.Mod(want, bp)
				if got := f.Mul(a, b); uint64(got) != want.Uint64() {
					t.Fatalf("p=%d: Mul(%d,%d) = %d, want %d", p, a, b, got, want.Uint64())
				}
			}
		}
		shift64 := new(big.Int).Lsh(big.NewInt(1), 64)
		for i := 0; i < 500; i++ {
			// Reduce over the full word range.
			x := rng.Uint64()
			want := new(big.Int).Mod(new(big.Int).SetUint64(x), bp).Uint64()
			if got := f.Reduce(x); uint64(got) != want {
				t.Fatalf("p=%d: Reduce(%d) = %d, want %d", p, x, got, want)
			}
			// reduce128 over its full precondition hi < p.
			hi, lo := x%p, rng.Uint64()
			w := new(big.Int).SetUint64(hi)
			w.Mul(w, shift64).Add(w, new(big.Int).SetUint64(lo)).Mod(w, bp)
			if got := f.reduce128(hi, lo); got != w.Uint64() {
				t.Fatalf("p=%d: reduce128(%d,%d) = %d, want %d", p, hi, lo, got, w.Uint64())
			}
			// foldAcc3 over arbitrary words.
			m2, l2 := rng.Uint64(), rng.Uint64()
			w.SetUint64(hi)
			w.Mul(w, shift64).Add(w, new(big.Int).SetUint64(m2))
			w.Mul(w, shift64).Add(w, new(big.Int).SetUint64(l2)).Mod(w, bp)
			if got := f.foldAcc3(hi, m2, l2); uint64(got) != w.Uint64() {
				t.Fatalf("p=%d: foldAcc3(%d,%d,%d) = %d, want %d", p, hi, m2, l2, got, w.Uint64())
			}
		}
	}
}

// TestShoupMulFullRange checks the invariant-factor multiplier over its
// documented domain: canonical w, arbitrary 64-bit t (FoldPairs feeds it
// differences in (0, 2p)).
func TestShoupMulFullRange(t *testing.T) {
	for _, p := range adversarialModuli {
		f := newField(p)
		bp := new(big.Int).SetUint64(p)
		rng := NewSplitMix64(^p)
		for i := 0; i < 1000; i++ {
			w := uint64(f.Rand(rng))
			wp := f.shoup(Elem(w))
			var tt uint64
			switch i % 3 {
			case 0:
				tt = rng.Uint64() // full range
			case 1:
				tt = uint64(f.Rand(rng)) + p // the (p, 2p) band FoldPairs uses
			default:
				tt = uint64(f.Rand(rng))
			}
			want := new(big.Int).Mul(new(big.Int).SetUint64(w), new(big.Int).SetUint64(tt))
			want.Mod(want, bp)
			if got := shoupMul(tt, w, wp, p); got != want.Uint64() {
				t.Fatalf("p=%d: shoupMul(t=%d, w=%d) = %d, want %d", p, tt, w, got, want.Uint64())
			}
		}
		// foldPairShoup against the scalar composition.
		for i := 0; i < 500; i++ {
			t0, t1, r := f.Rand(rng), f.Rand(rng), f.Rand(rng)
			rp := f.shoup(r)
			want := f.Add(t0, f.Mul(r, f.Sub(t1, t0)))
			if got := foldPairShoup(uint64(t0), uint64(t1), uint64(r), rp, p); got != uint64(want) {
				t.Fatalf("p=%d: foldPairShoup(%d,%d,%d) = %d, want %d", p, t0, t1, r, got, want)
			}
		}
	}
}

// TestFromInt64Extremes covers the signed ingest path at the integer
// boundaries for every adversarial modulus.
func TestFromInt64Extremes(t *testing.T) {
	for _, p := range adversarialModuli {
		f := newField(p)
		bp := new(big.Int).SetInt64(0).SetUint64(p)
		for _, v := range []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1, int64(p - 1), -int64(p - 1)} {
			want := new(big.Int).Mod(big.NewInt(v), bp).Uint64()
			if got := f.FromInt64(v); uint64(got) != want {
				t.Fatalf("p=%d: FromInt64(%d) = %d, want %d", p, v, got, want)
			}
		}
	}
}

// TestInvMatchesPow cross-checks the binary-xgcd inverse against Fermat
// exponentiation on every adversarial (prime) modulus.
func TestInvMatchesPow(t *testing.T) {
	for _, p := range adversarialModuli {
		f := newField(p)
		rng := NewSplitMix64(p + 1)
		elems := interestingElems(f, rng, 40)
		for _, a := range elems {
			inv := f.Inv(a)
			if a == 0 {
				if inv != 0 {
					t.Fatalf("p=%d: Inv(0) = %d, want 0", p, inv)
				}
				continue
			}
			if got := f.Mul(a, inv); got != 1 {
				t.Fatalf("p=%d: a·Inv(a) = %d for a=%d", p, got, a)
			}
			if p > 2 {
				if want := f.Pow(a, p-2); inv != want {
					t.Fatalf("p=%d: Inv(%d) = %d, Pow gives %d", p, a, inv, want)
				}
			}
		}
	}
}

// scriptedRNG replays a fixed word sequence (cycling), so tests can drive
// the sampler through an exactly known candidate stream.
type scriptedRNG struct {
	words []uint64
	i     int
}

func (s *scriptedRNG) Uint64() uint64 {
	w := s.words[s.i%len(s.words)]
	s.i++
	return w
}

// TestRandExactUniformity proves the word-splitting sampler is exactly
// uniform: feeding it a word containing every k-bit candidate value
// exactly once must yield every residue in [0, p) exactly once, with the
// candidates ≥ p rejected — i.e. the map from candidate bits to outputs is
// the identity on [0, p) and nothing else contributes.
func TestRandExactUniformity(t *testing.T) {
	// p = 11: k = 4, so one 64-bit word carries 16 nibble candidates.
	f := newField(11)
	if k, per := f.randSplit(); k != 4 || per != 16 {
		t.Fatalf("randSplit() = (%d, %d), want (4, 16)", k, per)
	}
	// Nibbles 0..15 in draw order, low bits first.
	asc := uint64(0xfedcba9876543210)
	out := make([]Elem, 11)
	f.FillRand(&scriptedRNG{words: []uint64{asc}}, out)
	for i, e := range out {
		if e != Elem(i) {
			t.Fatalf("ascending word: out[%d] = %d, want %d", i, e, i)
		}
	}
	// A permuted word must yield the same multiset in permuted order:
	// nibbles 15..0 high-to-low means draw order 15, 14, ..., 0 and only
	// the final 11 survive rejection, reversed.
	desc := uint64(0x0123456789abcdef)
	f.FillRand(&scriptedRNG{words: []uint64{desc}}, out)
	for i, e := range out {
		if want := Elem(10 - i); e != want {
			t.Fatalf("descending word: out[%d] = %d, want %d", i, e, want)
		}
	}
	// Frequency sanity over a long pseudorandom stream: every residue of a
	// small field within 5σ of the mean.
	const draws = 110000
	counts := make([]int, 11)
	rng := NewSplitMix64(99)
	for i := 0; i < draws; i++ {
		counts[f.Rand(rng)]++
	}
	mean := float64(draws) / 11
	sigma := math.Sqrt(mean * (1 - 1.0/11))
	for v, c := range counts {
		if math.Abs(float64(c)-mean) > 5*sigma {
			t.Errorf("residue %d drawn %d times, mean %.0f, |Δ| > 5σ", v, c, mean)
		}
	}
}

// TestMersenneRandStreamCompat pins the Mersenne sampler to its historical
// behavior: one 61-bit candidate per draw, so the consumed random stream
// (and therefore every recorded transcript seeded from SplitMix64) is
// unchanged by the word-splitting rewrite.
func TestMersenneRandStreamCompat(t *testing.T) {
	f := Mersenne()
	ref := func(rng RNG) Elem {
		for {
			if v := rng.Uint64() & Mersenne61; v < Mersenne61 {
				return Elem(v)
			}
		}
	}
	a, b := NewSplitMix64(7), NewSplitMix64(7)
	for i := 0; i < 5000; i++ {
		if got, want := f.Rand(a), ref(b); got != want {
			t.Fatalf("draw %d: Rand = %d, reference = %d", i, got, want)
		}
	}
}

// FuzzBarrettMul asserts the division-free multiply agrees with the
// hardware divider for arbitrary (modulus, a, b) triples.
func FuzzBarrettMul(fz *testing.F) {
	fz.Add(uint64(2), uint64(1), uint64(1))
	fz.Add(uint64(Mersenne61), uint64(Mersenne61-1), uint64(Mersenne61-1))
	fz.Add(uint64(4611686018427387847), uint64(4611686018427387846), uint64(2))
	fz.Add(uint64(1048583), uint64(1048582), uint64(524291))
	fz.Add(uint64(3), uint64(2), uint64(2))
	fz.Fuzz(func(t *testing.T, p, a, b uint64) {
		p %= uint64(1) << 62
		if p < 2 {
			p = 2
		}
		f := newField(p)
		a, b = a%p, b%p
		// Reference: 128-bit product reduced by the hardware divider.
		hi, lo := bits.Mul64(a, b)
		_, want := bits.Div64(hi%p, lo, p)
		if got := f.Mul(Elem(a), Elem(b)); uint64(got) != want {
			t.Fatalf("p=%d: Mul(%d,%d) = %d, Div64 gives %d", p, a, b, got, want)
		}
		// The Barrett path proper: the batch kernels (scalar Mul keeps the
		// divider on generic moduli, so single-element kernel calls are the
		// way to pin the division-free reducers against Div64).
		var dst [1]Elem
		f.MulSlices(dst[:], []Elem{Elem(a)}, []Elem{Elem(b)})
		if uint64(dst[0]) != want {
			t.Fatalf("p=%d: MulSlices(%d,%d) = %d, Div64 gives %d", p, a, b, dst[0], want)
		}
		// The streaming verifiers' split-chain product over two one-entry
		// rows, and over one row scaled by the other factor.
		if got := f.DigitProduct([]Elem{Elem(a), Elem(b)}, 0, 0, 1); uint64(got) != want {
			t.Fatalf("p=%d: DigitProduct(%d,%d) = %d, Div64 gives %d", p, a, b, got, want)
		}
		if got := f.DigitProduct([]Elem{Elem(a)}, 0, 0, Elem(b)); uint64(got) != want {
			t.Fatalf("p=%d: DigitProduct(%d) scaled by %d = %d, Div64 gives %d", p, a, b, got, want)
		}
		// And the Shoup invariant-factor path, b as the slice-constant:
		// folding the pair (0, a) at r = b gives 0 + b·(a − 0).
		f.FoldPairs(dst[:], []Elem{0, Elem(a)}, Elem(b))
		if uint64(dst[0]) != want {
			t.Fatalf("p=%d: FoldPairs((0,%d) at %d) = %d, Div64 gives %d", p, a, b, dst[0], want)
		}
	})
}
