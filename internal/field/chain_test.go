package field

import (
	"fmt"
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
// one-chain products bit for bit, for every tail length (n mod 4, n odd
// and even), digit widths 1…8 and both reducers, with boundary elements
// in the tables; and a per-level table's two-level windows give the
// per-level product for every index below 2^n, odd tails included.
func TestChainKernelsMatchReference(t *testing.T) {
	fields := batchFields(t)
	for _, p := range adversarialModuli {
		fields = append(fields, newField(p))
	}
	rng := NewSplitMix64(0xc4a1)
	for _, f := range fields {
		for _, lg := range []uint{0, 1, 2, 3, 4, 8} {
			for n := 0; n <= 21; n++ {
				tab := interestingElems(f, rng, n<<lg)[:n<<lg]
				rng2 := NewSplitMix64(uint64(n))
				for trial := 0; trial < 8; trial++ {
					i := rng2.Uint64()
					if got, want := f.DigitProduct(tab, lg, i), digitProductRef(f, tab, lg, i); got != want {
						t.Fatalf("p=%d lg=%d n=%d i=%#x: DigitProduct = %d, want %d", f.Modulus(), lg, n, i, got, want)
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
				if got, want := f.DigitProduct(win, 2, i), digitProductRef(f, tab, 1, i); got != want {
					t.Fatalf("p=%d n=%d i=%#x: windowed DigitProduct = %d, want %d", f.Modulus(), n, i, got, want)
				}
			}
		}
		for n := 0; n <= 64; n++ {
			tab := f.RandVec(rng, 2*n)
			q := interestingElems(f, rng, n)[:n]
			for trial := 0; trial < 8; trial++ {
				i := rng.Uint64()
				if got, want := f.BitHorner(tab, q, i), bitHornerRef(f, tab, q, i); got != want {
					t.Fatalf("p=%d n=%d i=%#x: BitHorner = %d, want %d", f.Modulus(), n, i, got, want)
				}
			}
		}
	}
}

func TestChainKernelsPanicOnBadTables(t *testing.T) {
	f := Mersenne()
	for name, fn := range map[string]func(){
		"DigitProduct partial row": func() { f.DigitProduct(make([]Elem, 3), 1, 0) },
		"BitHorner short table":    func() { f.BitHorner(make([]Elem, 3), make([]Elem, 2), 0) },
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

// FuzzDigitWindows: for an arbitrary modulus, per-level table and index
// below 2^d, the two-level windows' product equals the per-level one-chain
// product.
func FuzzDigitWindows(fz *testing.F) {
	fz.Add(uint8(0), uint64(1), uint8(20), uint64(0xabcde))
	fz.Add(uint8(0), uint64(2), uint8(1), uint64(1))
	fz.Add(uint8(1), uint64(3), uint8(7), uint64(0x55))
	fz.Add(uint8(4), uint64(4), uint8(62), uint64(1)<<61|1)
	fz.Add(uint8(7), uint64(5), uint8(0), uint64(0))
	fz.Fuzz(func(t *testing.T, mod uint8, seed uint64, d uint8, i uint64) {
		f := newField(adversarialModuli[int(mod)%len(adversarialModuli)])
		n := int(d % 63)
		i &= 1<<uint(n) - 1
		tab := interestingElems(f, NewSplitMix64(seed), 2*n)[:2*n]
		if got, want := f.DigitProduct(f.DigitWindows(tab), 2, i), digitProductRef(f, tab, 1, i); got != want {
			t.Fatalf("p=%d d=%d i=%#x: windowed DigitProduct = %d, want %d", f.Modulus(), n, i, got, want)
		}
	})
}

// BenchmarkDigitProduct prices one verifier update's χ weight at d = 20
// (u = 2^20, ℓ = 2): the two-level windows streaming verifiers read, the
// per-level split chains they replace (the ratio's base), and the
// one-chain reference.
func BenchmarkDigitProduct(b *testing.B) {
	for _, m := range benchModuli(b) {
		f := m.f
		tab := f.RandVec(NewSplitMix64(5), 40)
		win := f.DigitWindows(tab)
		q := f.RandVec(NewSplitMix64(6), 20)
		b.Run(fmt.Sprintf("window/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.DigitProduct(win, 2, uint64(i)*0x9e3779b97f4a7c15)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("split/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.DigitProduct(tab, 1, uint64(i)*0x9e3779b97f4a7c15)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("chain/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += digitProductRef(f, tab, 1, uint64(i)*0x9e3779b97f4a7c15)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("horner/%s/d=20", m.name), func(b *testing.B) {
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc += f.BitHorner(tab, q, uint64(i)*0x9e3779b97f4a7c15)
			}
			sinkElem = acc
		})
	}
}
