package field

import (
	"fmt"
	"testing"
)

// BenchmarkFieldKernels is the kernel-layer microbench suite: every batch
// kernel × modulus class × slice size. The modulus classes cover the three
// reduction regimes the repo exercises:
//
//   - mersenne61: the paper's p = 2^61-1, branch-free folding reduction;
//   - generic62:  a prime just below 2^62, the worst case for the generic
//     reducer (maximum product width, minimum lazy-accumulation headroom);
//   - generic20:  the smallest prime ≥ 2^20, the "u ≤ p ≤ 2u" shape of
//     ForUniverse fields (small products, large headroom).
//
// Per-op cost is dominated by the reduction strategy, so these rows are
// the ground truth for the BENCH_*.json perf trajectory.

func benchModuli(b *testing.B) []struct {
	name string
	f    Field
} {
	b.Helper()
	g62, err := New(4611686018427387847) // largest prime < 2^62
	if err != nil {
		b.Fatal(err)
	}
	g20, err := New(1048583) // smallest prime >= 2^20
	if err != nil {
		b.Fatal(err)
	}
	return []struct {
		name string
		f    Field
	}{
		{"mersenne61", Mersenne()},
		{"generic62", g62},
		{"generic20", g20},
	}
}

var benchSizes = []int{1 << 8, 1 << 12, 1 << 16}

var (
	sinkElem  Elem
	sinkElems []Elem
)

func BenchmarkFieldKernels(b *testing.B) {
	for _, m := range benchModuli(b) {
		f := m.f
		for _, n := range benchSizes {
			rng := NewSplitMix64(uint64(n))
			a := f.RandVec(rng, n)
			c := f.RandVec(rng, n)
			dst := make([]Elem, n)
			half := make([]Elem, n/2)
			quarter := make([]Elem, n/4)
			r := f.Rand(rng)
			run := func(kernel string, fn func()) {
				b.Run(fmt.Sprintf("%s/%s/n=%d", kernel, m.name, n), func(b *testing.B) {
					b.SetBytes(int64(8 * n))
					for i := 0; i < b.N; i++ {
						fn()
					}
				})
			}
			run("MulSlices", func() { f.MulSlices(dst, a, c) })
			run("FoldPairs", func() { f.FoldPairs(half, a, r) })
			run("DotSlices", func() { sinkElem = f.DotSlices(a, c) })
			_ = quarter
		}
		// Scalar Mul as a dependent chain: the latency (not throughput)
		// of one reduction.
		b.Run(fmt.Sprintf("Mul/%s/chain", m.name), func(b *testing.B) {
			x, y := f.Reduce(123456789123456789), f.Reduce(987654321987654321)
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc = f.Mul(x, acc+y)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("Inv/%s/chain", m.name), func(b *testing.B) {
			x := f.Reduce(123456789123456789)
			if x == 0 {
				x = 2
			}
			var acc Elem
			for i := 0; i < b.N; i++ {
				acc = f.Inv(x + acc&1)
			}
			sinkElem = acc
		})
		b.Run(fmt.Sprintf("RandVec/%s/n=4096", m.name), func(b *testing.B) {
			rng := NewSplitMix64(99)
			for i := 0; i < b.N; i++ {
				sinkElems = f.RandVec(rng, 4096)
			}
		})
	}
}
