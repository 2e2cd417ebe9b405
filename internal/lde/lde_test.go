package lde

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

func TestNewParams(t *testing.T) {
	p, err := NewParams(2, 10)
	if err != nil || p.U != 1024 {
		t.Fatalf("NewParams(2,10) = %+v, %v", p, err)
	}
	p, err = NewParams(3, 4)
	if err != nil || p.U != 81 {
		t.Fatalf("NewParams(3,4) = %+v, %v", p, err)
	}
	for _, bad := range []struct{ ell, d int }{{1, 3}, {2, 0}, {2, 63}, {1 << 31, 2}} {
		if _, err := NewParams(bad.ell, bad.d); err == nil {
			t.Errorf("NewParams(%d,%d) accepted", bad.ell, bad.d)
		}
	}
}

func TestParamsForUniverse(t *testing.T) {
	cases := []struct {
		u    uint64
		ell  int
		d    int
		capU uint64
	}{
		{1024, 2, 10, 1024},
		{1000, 2, 10, 1024},
		{1, 2, 1, 2},
		{2, 2, 1, 2},
		{81, 3, 4, 81},
		{82, 3, 5, 243},
	}
	for _, c := range cases {
		p, err := ParamsForUniverse(c.u, c.ell)
		if err != nil {
			t.Fatalf("ParamsForUniverse(%d,%d): %v", c.u, c.ell, err)
		}
		if p.D != c.d || p.U != c.capU {
			t.Errorf("ParamsForUniverse(%d,%d) = %+v, want d=%d U=%d", c.u, c.ell, p, c.d, c.capU)
		}
	}
	if _, err := ParamsForUniverse(0, 2); err == nil {
		t.Error("u=0 accepted")
	}
}

// TestAllChi: at the nodes the basis χ is the indicator; everywhere
// Σ_k χ_k(x) = 1, since it interpolates the constant 1; and at ℓ = 2 it
// is the closed form χ_0 = 1-x, χ_1 = x used throughout the paper
// (App. B.1).
func TestAllChi(t *testing.T) {
	rng := field.NewSplitMix64(22)
	for _, ell := range []int{2, 3, 5, 7, 8} {
		t.Run(fmt.Sprintf("ell=%d", ell), func(t *testing.T) {
			w := BasisWeights(f61, ell)
			for x := 0; x < ell; x++ {
				for k, c := range AllChi(f61, w, f61.Reduce(uint64(x))) {
					want := field.Elem(0)
					if k == x {
						want = 1
					}
					if c != want {
						t.Fatalf("ℓ=%d: χ_%d(%d) = %d, want %d", ell, k, x, c, want)
					}
				}
			}
			for trial := 0; trial < 50; trial++ {
				x := f61.Rand(rng)
				chi := AllChi(f61, w, x)
				var sum field.Elem
				for _, c := range chi {
					sum = f61.Add(sum, c)
				}
				if sum != 1 || ell == 2 && (chi[0] != f61.Sub(1, x) || chi[1] != x) {
					t.Fatalf("ℓ=%d: χ(%d) = %v sums to %d, want 1 (and [1-x, x] at ℓ=2)", ell, x, chi, sum)
				}
			}
		})
	}
}

// TestLDEAgreesOnHypercube: f_a(v) = a_v for every v ∈ [ℓ]^d, the defining
// property of the extension.
func TestLDEAgreesOnHypercube(t *testing.T) {
	for _, pr := range []struct{ ell, d int }{{2, 6}, {3, 4}, {4, 3}} {
		params, err := NewParams(pr.ell, pr.d)
		if err != nil {
			t.Fatal(err)
		}
		rng := field.NewSplitMix64(24)
		table := f61.RandVec(rng, int(params.U))
		ell := uint64(params.Ell)
		for _, i := range []uint64{0, 1, params.U / 2, params.U - 1} {
			r := make([]field.Elem, params.D)
			for j, k := 0, i; j < params.D; j, k = j+1, k/ell {
				r[j] = f61.Reduce(k % ell) // base-ℓ digit j of i
			}
			pt, err := NewPoint(f61, params, r)
			if err != nil {
				t.Fatal(err)
			}
			got, err := EvalDense(pt, table)
			if err != nil {
				t.Fatal(err)
			}
			if got != table[i] {
				t.Fatalf("(ℓ=%d,d=%d): f_a(v(%d)) = %d, want %d", pr.ell, pr.d, i, got, table[i])
			}
		}
	}
}

// TestStreamingMatchesDense: the streaming evaluator (Theorem 1) agrees
// with dense folding on random update streams, for several (ℓ,d).
func TestStreamingMatchesDense(t *testing.T) {
	for _, pr := range []struct{ ell, d int }{{2, 8}, {2, 1}, {3, 5}, {5, 3}} {
		params, err := NewParams(pr.ell, pr.d)
		if err != nil {
			t.Fatal(err)
		}
		rng := field.NewSplitMix64(25)
		pt := RandomPoint(f61, params, rng)
		ev := NewEvaluator(pt)
		ups := stream.UnitIncrements(params.U, 300, rng)
		ups = append(ups, stream.Update{Index: 0, Delta: -7})
		for _, up := range ups {
			if err := ev.Update(up.Index, up.Delta); err != nil {
				t.Fatal(err)
			}
		}
		a, err := stream.Apply(ups, params.U)
		if err != nil {
			t.Fatal(err)
		}
		table := make([]field.Elem, params.U)
		for i, v := range a {
			table[i] = f61.FromInt64(v)
		}
		want, err := EvalDense(pt, table)
		if err != nil {
			t.Fatal(err)
		}
		if ev.Value() != want {
			t.Fatalf("(ℓ=%d,d=%d): streaming %d ≠ dense %d", pr.ell, pr.d, ev.Value(), want)
		}
		if ev.SpaceWords() != params.D+1 {
			t.Fatalf("SpaceWords() = %d, want %d", ev.SpaceWords(), params.D+1)
		}
	}
}

func TestEvaluatorRejectsOutOfRange(t *testing.T) {
	params, err := NewParams(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	pt := RandomPoint(f61, params, field.NewSplitMix64(26))
	ev := NewEvaluator(pt)
	if err := ev.Update(16, 1); err == nil {
		t.Error("index 16 accepted in universe of 16")
	}
}

// TestLinearity: f_{a+b}(r) = f_a(r) + f_b(r), via quick.Check on random
// small streams. This linearity is exactly why streaming evaluation works.
func TestLinearityQuick(t *testing.T) {
	params, err := NewParams(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	pt := RandomPoint(f61, params, field.NewSplitMix64(27))
	check := func(seed uint64) bool {
		rng := field.NewSplitMix64(seed)
		upsA := stream.UnitIncrements(params.U, 20, rng)
		upsB := stream.UnitIncrements(params.U, 20, rng)
		evA, evB, evAB := NewEvaluator(pt), NewEvaluator(pt), NewEvaluator(pt)
		for _, u := range upsA {
			_ = evA.Update(u.Index, u.Delta)
			_ = evAB.Update(u.Index, u.Delta)
		}
		for _, u := range upsB {
			_ = evB.Update(u.Index, u.Delta)
			_ = evAB.Update(u.Index, u.Delta)
		}
		return evAB.Value() == f61.Add(evA.Value(), evB.Value())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// rangeFields are the fields the ℓ = 2 tables are checked over: the
// Mersenne fast path and a generic prime.
func rangeFields(t *testing.T) []field.Field {
	t.Helper()
	generic, err := field.New(1000003)
	if err != nil {
		t.Fatal(err)
	}
	return []field.Field{f61, generic}
}

// checkRangeIndicator compares the O(log²u) canonical-interval evaluation
// of [qL, qR] with a dense evaluation of the explicit indicator table.
func checkRangeIndicator(t *testing.T, pt *Point, qL, qR uint64) {
	t.Helper()
	got, err := EvalRangeIndicator(pt, qL, qR)
	if err != nil {
		t.Fatal(err)
	}
	table := make([]field.Elem, pt.Params.U)
	for i := qL; i <= qR; i++ {
		table[i] = 1
	}
	want, err := EvalDense(pt, table)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("p=%d d=%d range [%d,%d]: got %d, want %d", pt.F.Modulus(), pt.Params.D, qL, qR, got, want)
	}
}

// TestRangeIndicator checks every range at d = 5, 6 and 7. The canonical
// intervals of an odd level start mid-window, and an odd d ends in a half
// window.
func TestRangeIndicator(t *testing.T) {
	for _, f := range rangeFields(t) {
		for _, d := range []int{5, 6, 7} {
			params, err := NewParams(2, d)
			if err != nil {
				t.Fatal(err)
			}
			pt := RandomPoint(f, params, field.NewSplitMix64(28))
			for qL := uint64(0); qL < params.U; qL++ {
				for qR := qL; qR < params.U; qR++ {
					checkRangeIndicator(t, pt, qL, qR)
				}
			}
		}
	}
}

// TestRangeIndicatorLarge checks random ranges at d = 15 and 16, and the
// full universe.
func TestRangeIndicatorLarge(t *testing.T) {
	for _, f := range rangeFields(t) {
		for _, d := range []int{15, 16} {
			params, err := NewParams(2, d)
			if err != nil {
				t.Fatal(err)
			}
			rng := field.NewSplitMix64(29)
			pt := RandomPoint(f, params, rng)
			for trial := 0; trial < 20; trial++ {
				qL := rng.Uint64() % params.U
				qR := qL + rng.Uint64()%(params.U-qL)
				checkRangeIndicator(t, pt, qL, qR)
			}
			// Full-universe range must give Σχ = 1-extension: indicator of
			// all is the constant-1 vector, whose extension is 1 everywhere.
			got, err := EvalRangeIndicator(pt, 0, params.U-1)
			if err != nil {
				t.Fatal(err)
			}
			if got != 1 {
				t.Fatalf("p=%d d=%d: full range indicator = %d, want 1", f.Modulus(), d, got)
			}
		}
	}
}

func TestRangeIndicatorErrors(t *testing.T) {
	params2, _ := NewParams(2, 4)
	pt := RandomPoint(f61, params2, field.NewSplitMix64(30))
	if _, err := EvalRangeIndicator(pt, 3, 2); err == nil {
		t.Error("inverted range accepted")
	}
	if _, err := EvalRangeIndicator(pt, 0, 16); err == nil {
		t.Error("out-of-universe range accepted")
	}
	params3, _ := NewParams(3, 3)
	pt3 := RandomPoint(f61, params3, field.NewSplitMix64(31))
	if _, err := EvalRangeIndicator(pt3, 0, 1); err == nil {
		t.Error("ℓ=3 accepted")
	}
}

// TestChiOfIndexMatchesDense: the per-update χ weight scaled by s equals
// the dense evaluation of the vector holding s at i, for ℓ = 2 (two-level
// windows, odd and even d), ℓ = 4 (per-level split chains) and ℓ = 3
// (digit-by-division loop), over the Mersenne and a generic field, with
// s = 1 and random scales.
func TestChiOfIndexMatchesDense(t *testing.T) {
	for _, f := range rangeFields(t) {
		for _, pr := range []struct{ ell, d int }{{2, 8}, {2, 1}, {2, 2}, {2, 7}, {2, 9}, {4, 4}, {3, 5}} {
			params, err := NewParams(pr.ell, pr.d)
			if err != nil {
				t.Fatal(err)
			}
			rng := field.NewSplitMix64(32)
			pt := RandomPoint(f, params, rng)
			for trial := 0; trial < 50; trial++ {
				i := rng.Uint64() % params.U
				s := field.Elem(1)
				if trial%2 == 1 {
					s = f.Rand(rng)
				}
				table := make([]field.Elem, params.U)
				table[i] = s
				want, err := EvalDense(pt, table)
				if err != nil {
					t.Fatal(err)
				}
				if got := pt.ChiOfIndex(i, s); got != want {
					t.Fatalf("p=%d (ℓ=%d,d=%d): ChiOfIndex(%d, %d) = %d, want %d", f.Modulus(), pr.ell, pr.d, i, s, got, want)
				}
			}
		}
	}
}

// TestPointTableEqualMemory: an ℓ = 2 point's factor table holds at most
// 4·⌈d/2⌉ words, the per-level table's 2d rounded up to whole two-level
// windows. The windows cost no memory; a wider window would be a space
// trade, reported on the verifier_space_words row.
func TestPointTableEqualMemory(t *testing.T) {
	for d := 1; d <= 40; d++ {
		params, err := NewParams(2, d)
		if err != nil {
			t.Fatal(err)
		}
		pt := RandomPoint(f61, params, field.NewSplitMix64(uint64(d)))
		if words, limit := cap(pt.tab), 4*((d+1)/2); words > limit {
			t.Errorf("d=%d: factor table holds %d words, want ≤ %d", d, words, limit)
		}
	}
}

func TestNewPointValidation(t *testing.T) {
	params, _ := NewParams(2, 4)
	if _, err := NewPoint(f61, params, make([]field.Elem, 3)); err == nil {
		t.Error("wrong-length point accepted")
	}
	if _, err := EvalDense(RandomPoint(f61, params, field.NewSplitMix64(1)), make([]field.Elem, 5)); err == nil {
		t.Error("wrong-length table accepted")
	}
}

func BenchmarkEvaluatorUpdateL2D20(b *testing.B) {
	params, err := NewParams(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	pt := RandomPoint(f61, params, field.NewSplitMix64(33))
	ev := NewEvaluator(pt)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.Update(uint64(i)&(params.U-1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRangeIndicatorD30(b *testing.B) {
	params, err := NewParams(2, 30)
	if err != nil {
		b.Fatal(err)
	}
	pt := RandomPoint(f61, params, field.NewSplitMix64(34))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvalRangeIndicator(pt, 12345, params.U-999); err != nil {
			b.Fatal(err)
		}
	}
}

// TestChiTablesMatchesAllChi: the batched builder must agree with the
// one-point builder at nodes and non-nodes alike.
func TestChiTablesMatchesAllChi(t *testing.T) {
	f := field.Mersenne()
	for _, ell := range []int{2, 3, 5, 16} {
		w := BasisWeights(f, ell)
		xs := []field.Elem{0, 1, field.Elem(ell - 1), field.Elem(ell), 12345, f.Reduce(^uint64(0))}
		tables := ChiTables(f, w, xs)
		if len(tables) != len(xs) {
			t.Fatalf("ell=%d: %d tables for %d points", ell, len(tables), len(xs))
		}
		for i, x := range xs {
			want := AllChi(f, w, x)
			for k := range want {
				if tables[i][k] != want[k] {
					t.Fatalf("ell=%d x=%d: ChiTables[%d][%d] = %d, want %d", ell, x, i, k, tables[i][k], want[k])
				}
			}
		}
		// Rows must be independent storage: writing one must not leak.
		if len(tables) >= 2 {
			tables[0][0] = 99
			want := AllChi(f, w, xs[1])
			if tables[1][0] != want[0] {
				t.Fatalf("ell=%d: ChiTables rows alias each other", ell)
			}
		}
	}
}
