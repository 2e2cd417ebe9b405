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
// in the tables.
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

// BenchmarkDigitProduct prices one verifier update's χ weight at d = 20
// (u = 2^20, ℓ = 2): the split chains against the one-chain reference.
func BenchmarkDigitProduct(b *testing.B) {
	for _, m := range benchModuli(b) {
		f := m.f
		tab := f.RandVec(NewSplitMix64(5), 40)
		q := f.RandVec(NewSplitMix64(6), 20)
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
