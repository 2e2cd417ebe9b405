package field

import (
	"fmt"
	"math/big"
	"testing"
)

// digitProductRef is the one-chain product DigitProduct replaces.
func digitProductRef(f Field, t []Elem, lg uint, i uint64) Elem {
	w := 1 << lg
	out := Elem(1)
	for j := 0; j < len(t)/w; j++ {
		out = f.Mul(out, t[j*w+int(i%uint64(w))])
		i /= uint64(w)
	}
	return out
}

// bitHornerRef is the top-down walk the augmented hash-tree root used:
// a running suffix product s, with each level's count coefficient added
// at weight s.
func bitHornerRef(f Field, t, q []Elem, i uint64) Elem {
	var acc Elem
	s := Elem(1)
	for j := len(q) - 1; j >= 0; j-- {
		acc = f.Add(acc, f.Mul(q[j], s))
		s = f.Mul(s, t[2*j+int(i>>uint(j)&1)])
	}
	return f.Add(acc, s)
}

// TestChainKernelsMatchReference: the split-chain products equal the
// one-chain products times the scale bit for bit, for every tail length
// (n mod 4, n odd and even), digit widths 1…8, boundary scales and both
// reducers, with boundary elements in the tables; and a per-level
// table's two-level windows give the per-level product for every index
// below 2^n, odd tails included. Every index is checked at s = 1 as
// well as at a boundary scale, so a zero scale hides no product.
func TestChainKernelsMatchReference(t *testing.T) {
	fields := batchFields(t)
	for _, p := range adversarialModuli {
		fields = append(fields, newField(p))
	}
	rng := NewSplitMix64(0xc4a1)
	for _, f := range fields {
		scales := interestingElems(f, rng, 8)
		for _, lg := range []uint{0, 1, 2, 3, 4, 8} {
			for n := 0; n <= 21; n++ {
				tab := interestingElems(f, rng, n<<lg)[:n<<lg]
				rng2 := NewSplitMix64(uint64(n))
				for trial, s := range scales {
					i := rng2.Uint64()
					for _, s := range [...]Elem{1, s} {
						if got, want := f.DigitProduct(tab, lg, i, s), f.Mul(s, digitProductRef(f, tab, lg, i)); got != want {
							t.Fatalf("p=%d lg=%d n=%d i=%#x s=%d (trial %d): DigitProduct = %d, want %d", f.Modulus(), lg, n, i, s, trial, got, want)
						}
					}
				}
			}
		}
		for n := 0; n <= 21; n++ {
			tab := interestingElems(f, rng, 2*n)[:2*n]
			win := f.DigitWindows(tab)
			if len(win) != 4*((n+1)/2) {
				t.Fatalf("p=%d n=%d: %d window entries, want %d", f.Modulus(), n, len(win), 4*((n+1)/2))
			}
			mask := uint64(1)<<uint(n) - 1
			for trial := uint64(0); trial < 64; trial++ {
				i := trial & mask // n ≤ 6: every index
				if n > 6 {
					i = rng.Uint64() & mask
				}
				for _, s := range [...]Elem{1, scales[trial%uint64(len(scales))]} {
					if got, want := f.DigitProduct(win, 2, i, s), f.Mul(s, digitProductRef(f, tab, 1, i)); got != want {
						t.Fatalf("p=%d n=%d i=%#x s=%d: windowed DigitProduct = %d, want %d", f.Modulus(), n, i, s, got, want)
					}
				}
			}
		}
		for n := 0; n <= 64; n++ {
			tab := f.RandVec(rng, 2*n)
			q := interestingElems(f, rng, n)[:n]
			for _, s := range scales {
				i := rng.Uint64()
				for _, s := range [...]Elem{1, s} {
					if got, want := f.BitHorner(tab, q, i, s), f.Mul(s, bitHornerRef(f, tab, q, i)); got != want {
						t.Fatalf("p=%d n=%d i=%#x s=%d: BitHorner = %d, want %d", f.Modulus(), n, i, s, got, want)
					}
				}
			}
		}
	}
}

// TestChainKernelsWorstCase drives the kernels at their largest
// operands: every factor, every count coefficient and the scale p − 1,
// at d = 1…62 levels, on the Mersenne path and the generic one. The lazy
// Mersenne chains carry their operands unreduced, so this is where a
// lost bound would overflow.
func TestChainKernelsWorstCase(t *testing.T) {
	for _, p := range []uint64{Mersenne61, 2305843009213693967, 4611686018427387847} {
		f := newField(p)
		top := Elem(p - 1)
		for d := 1; d <= 62; d++ {
			tab := make([]Elem, 2*d)
			for k := range tab {
				tab[k] = top
			}
			q := tab[:d]
			win := f.DigitWindows(tab)
			for _, i := range []uint64{0, 1<<uint(d) - 1, 0x5555555555555555 & (1<<uint(d) - 1)} {
				want := f.Mul(top, digitProductRef(f, tab, 1, i))
				if got := f.DigitProduct(tab, 1, i, top); got != want {
					t.Fatalf("p=%d d=%d i=%#x: DigitProduct = %d, want %d", p, d, i, got, want)
				}
				if got := f.DigitProduct(win, 2, i, top); got != want {
					t.Fatalf("p=%d d=%d i=%#x: windowed DigitProduct = %d, want %d", p, d, i, got, want)
				}
				if got, want := f.BitHorner(tab, q, i, top), f.Mul(top, bitHornerRef(f, tab, q, i)); got != want {
					t.Fatalf("p=%d d=%d i=%#x: BitHorner = %d, want %d", p, d, i, got, want)
				}
			}
		}
	}
}

// TestMul61LazyBound: for operands up to 2^62 + 1 — the most a lazy
// chain value or a lazy value plus a canonical element can be — the lazy
// Mersenne product is congruent to a·b and at most 2^61 + 3, so it is an
// operand again and one conditional subtract makes it canonical.
func TestMul61LazyBound(t *testing.T) {
	const top = 1<<62 + 1
	ops := []uint64{0, 1, 2, 7, 8, Mersenne61 - 1, Mersenne61, Mersenne61 + 1, 1<<61 + 3, 1<<62 - 1, 1 << 62, top}
	rng := NewSplitMix64(0x1a2e)
	for len(ops) < 64 {
		ops = append(ops, rng.Uint64()%(top+1))
	}
	m := new(big.Int).SetUint64(Mersenne61)
	for _, a := range ops {
		for _, b := range ops {
			r := mul61Lazy(a, b)
			want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
			got := new(big.Int).SetUint64(r)
			if r > 1<<61+3 || got.Mod(got, m).Cmp(want.Mod(want, m)) != 0 {
				t.Fatalf("mul61Lazy(%d, %d) = %d, want ≤ 2^61+3 and ≡ %v", a, b, r, want)
			}
		}
	}
}

// TestMul61Canonical: mul61 of canonical operands — the boundary
// operands of TestMul61LazyBound that are canonical, and random
// canonical pairs — is a·b mod p, below p, with no final subtract.
func TestMul61Canonical(t *testing.T) {
	ops := []uint64{0, 1, 2, 7, 8, Mersenne61 - 2, Mersenne61 - 1, 1<<60 + 3, 1 << 60}
	rng := NewSplitMix64(0x61c)
	for len(ops) < 64 {
		ops = append(ops, rng.Uint64()%Mersenne61)
	}
	m := new(big.Int).SetUint64(Mersenne61)
	check := func(a, b uint64) {
		r := mul61(a, b)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		if r >= Mersenne61 || new(big.Int).SetUint64(r).Cmp(want.Mod(want, m)) != 0 {
			t.Fatalf("mul61(%d, %d) = %d, want %v < p", a, b, r, want)
		}
	}
	for _, a := range ops {
		for _, b := range ops {
			check(a, b)
		}
	}
	for range 1 << 16 {
		check(rng.Uint64()%Mersenne61, rng.Uint64()%Mersenne61)
	}
}

func TestChainKernelsPanicOnBadTables(t *testing.T) {
	f := Mersenne()
	for name, fn := range map[string]func(){
		"DigitProduct partial row": func() { f.DigitProduct(make([]Elem, 3), 1, 0, 1) },
		"BitHorner short table":    func() { f.BitHorner(make([]Elem, 3), make([]Elem, 2), 0, 1) },
		"DigitWindows odd table":   func() { f.DigitWindows(make([]Elem, 3)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// FuzzDigitWindows: for an arbitrary modulus, per-level table, index
// below 2^d and scale, the two-level windows' scaled product equals the
// scale times the per-level one-chain product.
func FuzzDigitWindows(fz *testing.F) {
	fz.Add(uint8(0), uint64(1), uint8(20), uint64(0xabcde), uint64(1))
	fz.Add(uint8(0), uint64(2), uint8(1), uint64(1), uint64(0))
	fz.Add(uint8(1), uint64(3), uint8(7), uint64(0x55), uint64(2))
	fz.Add(uint8(4), uint64(4), uint8(62), uint64(1)<<61|1, uint64(Mersenne61-1))
	fz.Add(uint8(7), uint64(5), uint8(0), uint64(0), ^uint64(0))
	fz.Fuzz(func(t *testing.T, mod uint8, seed uint64, d uint8, i, s uint64) {
		f := newField(adversarialModuli[int(mod)%len(adversarialModuli)])
		n := int(d % 63)
		i &= 1<<uint(n) - 1
		tab := interestingElems(f, NewSplitMix64(seed), 2*n)[:2*n]
		e := f.Reduce(s)
		if got, want := f.DigitProduct(f.DigitWindows(tab), 2, i, e), f.Mul(e, digitProductRef(f, tab, 1, i)); got != want {
			t.Fatalf("p=%d d=%d i=%#x s=%d: windowed DigitProduct = %d, want %d", f.Modulus(), n, i, e, got, want)
		}
	})
}

// FuzzBitHorner: for an arbitrary modulus, factor and count tables, index
// and scale, the three-chain recurrence equals the scale times the
// top-down walk.
func FuzzBitHorner(fz *testing.F) {
	fz.Add(uint8(0), uint64(1), uint8(20), uint64(0xabcde), uint64(1))
	fz.Add(uint8(0), uint64(2), uint8(1), uint64(1), uint64(0))
	fz.Add(uint8(1), uint64(3), uint8(7), uint64(0x55), uint64(2))
	fz.Add(uint8(4), uint64(4), uint8(63), ^uint64(0), uint64(Mersenne61-1))
	fz.Add(uint8(7), uint64(5), uint8(0), uint64(0), ^uint64(0))
	fz.Fuzz(func(t *testing.T, mod uint8, seed uint64, d uint8, i, s uint64) {
		f := newField(adversarialModuli[int(mod)%len(adversarialModuli)])
		n := int(d % 65)
		rng := NewSplitMix64(seed)
		tab := interestingElems(f, rng, 2*n)[:2*n]
		q := interestingElems(f, rng, n)[:n]
		e := f.Reduce(s)
		if got, want := f.BitHorner(tab, q, i, e), f.Mul(e, bitHornerRef(f, tab, q, i)); got != want {
			t.Fatalf("p=%d d=%d i=%#x s=%d: BitHorner = %d, want %d", f.Modulus(), n, i, e, got, want)
		}
	})
}

// BenchmarkDigitProduct prices one verifier update's δ-scaled χ weight
// at d = 20 (u = 2^20, ℓ = 2): the two-level windows streaming verifiers
// read, the per-level split chains they replace (the ratio's base), the
// one-chain reference with its trailing δ multiply, and the augmented
// tree's recurrence.
func BenchmarkDigitProduct(b *testing.B) {
	for _, m := range benchModuli(b) {
		f := m.f
		tab := f.RandVec(NewSplitMix64(5), 40)
		win := f.DigitWindows(tab)
		q := f.RandVec(NewSplitMix64(6), 20)
		s := f.Rand(NewSplitMix64(7))
		b.Run(fmt.Sprintf("window/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.DigitProduct(win, 2, uint64(i)*0x9e3779b97f4a7c15, s)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("split/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.DigitProduct(tab, 1, uint64(i)*0x9e3779b97f4a7c15, s)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("chain/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.Mul(s, digitProductRef(f, tab, 1, uint64(i)*0x9e3779b97f4a7c15))
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("horner/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.BitHorner(tab, q, uint64(i)*0x9e3779b97f4a7c15, s)
			}
			sinkElem = acc
		})
	}
}
