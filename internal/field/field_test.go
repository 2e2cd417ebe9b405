package field

import (
	"math/big"
	"testing"
	"testing/quick"
)

// testFields returns a spread of moduli: the Mersenne default, a tiny
// field, a medium generic prime, and a large generic (non-Mersenne) prime.
func testFields(t *testing.T) []Field {
	t.Helper()
	var out []Field
	for _, p := range []uint64{Mersenne61, 17, 65537, 4611686018427387847} {
		f, err := New(p)
		if err != nil {
			t.Fatalf("New(%d): %v", p, err)
		}
		out = append(out, f)
	}
	return out
}

func TestNewRejectsBadModuli(t *testing.T) {
	for _, p := range []uint64{0, 1, 4, 15, 1 << 62, 1<<62 + 1, Mersenne61 * 2} {
		if _, err := New(p); err == nil {
			t.Errorf("New(%d) succeeded; want error", p)
		}
	}
}

func TestMersenneModulus(t *testing.T) {
	f := Mersenne()
	if f.Modulus() != Mersenne61 {
		t.Fatalf("Modulus() = %d, want %d", f.Modulus(), uint64(Mersenne61))
	}
	if !IsPrime(Mersenne61) {
		t.Fatal("2^61-1 not recognized as prime")
	}
	if !f.Valid() {
		t.Fatal("Mersenne() field reported invalid")
	}
	if (Field{}).Valid() {
		t.Fatal("zero Field reported valid")
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, f := range testFields(t) {
		f := f
		cfg := &quick.Config{MaxCount: 500}
		reduce := func(x uint64) Elem { return f.Reduce(x) }

		commutative := func(x, y uint64) bool {
			a, b := reduce(x), reduce(y)
			return f.Add(a, b) == f.Add(b, a) && f.Mul(a, b) == f.Mul(b, a)
		}
		if err := quick.Check(commutative, cfg); err != nil {
			t.Errorf("p=%d commutativity: %v", f.Modulus(), err)
		}

		associative := func(x, y, z uint64) bool {
			a, b, c := reduce(x), reduce(y), reduce(z)
			return f.Add(f.Add(a, b), c) == f.Add(a, f.Add(b, c)) &&
				f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		if err := quick.Check(associative, cfg); err != nil {
			t.Errorf("p=%d associativity: %v", f.Modulus(), err)
		}

		distributive := func(x, y, z uint64) bool {
			a, b, c := reduce(x), reduce(y), reduce(z)
			return f.Mul(a, f.Add(b, c)) == f.Add(f.Mul(a, b), f.Mul(a, c))
		}
		if err := quick.Check(distributive, cfg); err != nil {
			t.Errorf("p=%d distributivity: %v", f.Modulus(), err)
		}

		inverses := func(x uint64) bool {
			a := reduce(x)
			if f.Add(a, f.Neg(a)) != 0 {
				return false
			}
			if a == 0 {
				return f.Inv(a) == 0
			}
			return f.Mul(a, f.Inv(a)) == 1
		}
		if err := quick.Check(inverses, cfg); err != nil {
			t.Errorf("p=%d inverses: %v", f.Modulus(), err)
		}

		subIsAddNeg := func(x, y uint64) bool {
			a, b := reduce(x), reduce(y)
			return f.Sub(a, b) == f.Add(a, f.Neg(b))
		}
		if err := quick.Check(subIsAddNeg, cfg); err != nil {
			t.Errorf("p=%d sub/neg: %v", f.Modulus(), err)
		}
	}
}

func TestPowAgainstBigInt(t *testing.T) {
	for _, f := range testFields(t) {
		rng := NewSplitMix64(2)
		p := new(big.Int).SetUint64(f.Modulus())
		for i := 0; i < 200; i++ {
			a := f.Rand(rng)
			e := rng.Uint64() % 1000
			got := f.Pow(a, e)
			want := new(big.Int).Exp(new(big.Int).SetUint64(uint64(a)), new(big.Int).SetUint64(e), p)
			if uint64(got) != want.Uint64() {
				t.Fatalf("p=%d: Pow(%d,%d) = %d, want %s", f.Modulus(), a, e, got, want)
			}
		}
		if f.Pow(0, 0) != 1 {
			t.Errorf("p=%d: Pow(0,0) = %d, want 1", f.Modulus(), f.Pow(0, 0))
		}
	}
}

func TestInvSlice(t *testing.T) {
	f := Mersenne()
	rng := NewSplitMix64(3)
	xs := make([]Elem, 100)
	for i := range xs {
		xs[i] = f.Rand(rng)
	}
	xs[0], xs[17], xs[99] = 0, 0, 0 // zeros must survive untouched
	orig := append([]Elem(nil), xs...)
	f.InvSlice(xs)
	for i := range xs {
		if orig[i] == 0 {
			if xs[i] != 0 {
				t.Fatalf("index %d: zero mapped to %d", i, xs[i])
			}
			continue
		}
		if f.Mul(orig[i], xs[i]) != 1 {
			t.Fatalf("index %d: %d · %d ≠ 1", i, orig[i], xs[i])
		}
	}
	f.InvSlice(nil) // must not panic
}

func TestCenteredRoundTrip(t *testing.T) {
	f := Mersenne()
	for _, v := range []int64{0, 1, -1, 123456789, -123456789, (Mersenne61 - 1) / 2, -(Mersenne61 - 1) / 2} {
		if got := f.Centered(f.FromInt64(v)); got != v {
			t.Errorf("Centered(FromInt64(%d)) = %d", v, got)
		}
	}
}

func TestRandInRangeAndSpread(t *testing.T) {
	for _, f := range testFields(t) {
		rng := NewSplitMix64(4)
		seen := make(map[Elem]bool)
		for i := 0; i < 1000; i++ {
			e := f.Rand(rng)
			if uint64(e) >= f.Modulus() {
				t.Fatalf("p=%d: Rand produced %d out of range", f.Modulus(), e)
			}
			seen[e] = true
		}
		// With 1000 draws we expect many distinct values even in Z_17.
		minDistinct := 10
		if f.Modulus() < 20 {
			minDistinct = int(f.Modulus()) - 2
		}
		if len(seen) < minDistinct {
			t.Errorf("p=%d: only %d distinct values in 1000 draws", f.Modulus(), len(seen))
		}
	}
}

func TestIsPrimeAgainstBigInt(t *testing.T) {
	rng := NewSplitMix64(6)
	for i := 0; i < 500; i++ {
		n := rng.Uint64() >> (rng.Uint64() % 40)
		got := IsPrime(n)
		want := new(big.Int).SetUint64(n).ProbablyPrime(32)
		if got != want {
			t.Fatalf("IsPrime(%d) = %v, want %v", n, got, want)
		}
	}
	known := map[uint64]bool{
		0: false, 1: false, 2: true, 3: true, 4: false, 25: false,
		65537: true, Mersenne61: true, Mersenne61 - 1: false,
		3215031751: false, // strong pseudoprime to bases 2,3,5,7
	}
	for n, want := range known {
		if IsPrime(n) != want {
			t.Errorf("IsPrime(%d) = %v, want %v", n, !want, want)
		}
	}
}

func TestNextPrimeAtLeastBertrand(t *testing.T) {
	rng := NewSplitMix64(7)
	for i := 0; i < 200; i++ {
		n := rng.Uint64()%(1<<40) + 2
		p, err := NextPrimeAtLeast(n)
		if err != nil {
			t.Fatalf("NextPrimeAtLeast(%d): %v", n, err)
		}
		if p < n || p > 2*n {
			t.Fatalf("NextPrimeAtLeast(%d) = %d violates Bertrand bound", n, p)
		}
		if !IsPrime(p) {
			t.Fatalf("NextPrimeAtLeast(%d) = %d not prime", n, p)
		}
	}
	if p, err := NextPrimeAtLeast(0); err != nil || p != 2 {
		t.Errorf("NextPrimeAtLeast(0) = %d, %v; want 2", p, err)
	}
}

func TestForUniverse(t *testing.T) {
	for _, u := range []uint64{2, 100, 1 << 20, 1 << 40} {
		f, err := ForUniverse(u)
		if err != nil {
			t.Fatalf("ForUniverse(%d): %v", u, err)
		}
		if f.Modulus() < u || f.Modulus() > 2*u {
			t.Errorf("ForUniverse(%d) modulus %d outside [u, 2u]", u, f.Modulus())
		}
	}
	if _, err := ForUniverse(1 << 62); err == nil {
		t.Error("ForUniverse(2^62) succeeded; want error")
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := NewSplitMix64(42), NewSplitMix64(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewSplitMix64(43)
	same := true
	a = NewSplitMix64(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestCryptoRNG(t *testing.T) {
	var r CryptoRNG
	a, b := r.Uint64(), r.Uint64()
	if a == b {
		// Astronomically unlikely; treat as failure of the source.
		t.Fatalf("CryptoRNG returned identical consecutive values %d", a)
	}
}

func BenchmarkMulMersenne(b *testing.B) {
	f := Mersenne()
	x, y := Elem(123456789123456789%Mersenne61), Elem(987654321987654321%Mersenne61)
	var sink Elem
	for i := 0; i < b.N; i++ {
		sink = f.Mul(x, sink+y)
	}
	_ = sink
}

func BenchmarkMulGeneric(b *testing.B) {
	f, err := New(4611686018427387847)
	if err != nil {
		b.Fatal(err)
	}
	x, y := f.Reduce(123456789123456789), f.Reduce(987654321987654321)
	var sink Elem
	for i := 0; i < b.N; i++ {
		sink = f.Mul(x, sink+y)
	}
	_ = sink
}
