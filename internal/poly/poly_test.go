package poly

import (
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/field"
)

var f61 = field.Mersenne()

func elems(vs ...uint64) []field.Elem {
	out := make([]field.Elem, len(vs))
	for i, v := range vs {
		out[i] = f61.Reduce(v)
	}
	return out
}

func TestDegreeAndTrim(t *testing.T) {
	cases := []struct {
		p    Poly
		want int
	}{
		{nil, -1},
		{Poly{}, -1},
		{Poly{0}, -1},
		{Poly{5}, 0},
		{Poly{0, 0, 3}, 2},
		{Poly{1, 2, 0, 0}, 1},
	}
	for _, c := range cases {
		if got := c.p.Degree(); got != c.want {
			t.Errorf("Degree(%v) = %d, want %d", c.p, got, c.want)
		}
		if got := len(c.p.Trim()); got != c.want+1 {
			t.Errorf("len(Trim(%v)) = %d, want %d", c.p, got, c.want+1)
		}
	}
}

func TestEvalHorner(t *testing.T) {
	// p(x) = 3 + 2x + x^3
	p := Poly(elems(3, 2, 0, 1))
	for _, c := range []struct{ x, want uint64 }{
		{0, 3}, {1, 6}, {2, 15}, {3, 36},
	} {
		if got := p.Eval(f61, field.Elem(c.x)); got != field.Elem(c.want) {
			t.Errorf("p(%d) = %d, want %d", c.x, got, c.want)
		}
	}
	if got := Poly(nil).Eval(f61, 7); got != 0 {
		t.Errorf("zero poly eval = %d", got)
	}
}

func TestArithmetic(t *testing.T) {
	p := Poly(elems(1, 2, 3)) // 1 + 2x + 3x²
	q := Poly(elems(5, 7))    // 5 + 7x
	prod := Mul(f61, p, q)
	// (1+2x+3x²)(5+7x) = 5 + 17x + 29x² + 21x³
	wantProd := elems(5, 17, 29, 21)
	if len(prod) != len(wantProd) {
		t.Fatalf("Mul length %d, want %d", len(prod), len(wantProd))
	}
	for i := range wantProd {
		if prod[i] != wantProd[i] {
			t.Fatalf("Mul coefficient %d = %d, want %d", i, prod[i], wantProd[i])
		}
	}
	if got := Mul(f61, p, nil); got != nil {
		t.Fatalf("Mul by zero poly = %v, want nil", got)
	}
}

// TestMulEvalHomomorphism: (p·q)(x) = p(x)·q(x) on random polynomials.
func TestMulEvalHomomorphism(t *testing.T) {
	rng := field.NewSplitMix64(11)
	check := func(seed uint64) bool {
		r := field.NewSplitMix64(seed)
		p := Poly(f61.RandVec(r, int(r.Uint64()%6)+1))
		q := Poly(f61.RandVec(r, int(r.Uint64()%6)+1))
		x := f61.Rand(rng)
		return Mul(f61, p, q).Eval(f61, x) == f61.Mul(p.Eval(f61, x), q.Eval(f61, x))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestInterpolateRoundTrip(t *testing.T) {
	rng := field.NewSplitMix64(12)
	for trial := 0; trial < 50; trial++ {
		n := int(rng.Uint64()%8) + 1
		want := Poly(f61.RandVec(rng, n)).Trim()
		xs := make([]field.Elem, n)
		ys := make([]field.Elem, n)
		for i := range xs {
			xs[i] = f61.Reduce(uint64(i * 3)) // distinct
			ys[i] = want.Eval(f61, xs[i])
		}
		got, err := Interpolate(f61, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		// Compare as functions at fresh points.
		for k := 0; k < 5; k++ {
			x := f61.Rand(rng)
			if got.Eval(f61, x) != want.Eval(f61, x) {
				t.Fatalf("trial %d: interpolant differs at %d", trial, x)
			}
		}
	}
}

func TestInterpolateErrors(t *testing.T) {
	if _, err := Interpolate(f61, elems(1, 1), elems(2, 3)); err == nil {
		t.Error("duplicate xs accepted")
	}
	if _, err := Interpolate(f61, elems(1, 2), elems(2)); err == nil {
		t.Error("mismatched lengths accepted")
	}
	p, err := Interpolate(f61, nil, nil)
	if err != nil || p != nil {
		t.Errorf("empty interpolation = %v, %v", p, err)
	}
}

// TestConsecutiveEvaluator: the barycentric evaluator and the O(1)-space
// oracle evaluation both return the interpolant of values at 0, 1, …,
// n−1, at the nodes and at random points, against explicit
// interpolation.
func TestConsecutiveEvaluator(t *testing.T) {
	rng := field.NewSplitMix64(14)
	for _, n := range []int{1, 2, 3, 5, 8, 9, 33, 100} {
		ev, err := NewConsecutiveEvaluator(f61, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(ev.w) != n {
			t.Fatalf("%d interpolation points, want %d", len(ev.w), n)
		}
		ys := f61.RandVec(rng, n)
		xs := make([]field.Elem, n)
		for i := range xs {
			xs[i] = f61.Reduce(uint64(i))
		}
		ref, err := Interpolate(f61, xs, ys)
		if err != nil {
			t.Fatal(err)
		}
		points := append(slices.Clone(xs), f61.RandVec(rng, 20)...)
		for _, x := range points {
			got, err := ev.Eval(ys, x)
			oracle, oerr := EvalOracleInterpolant(f61, n, func(i uint64) field.Elem { return ys[i] }, x)
			if want := ref.Eval(f61, x); err != nil || oerr != nil || got != want || oracle != want {
				t.Fatalf("n=%d at %d: barycentric %d (%v), oracle %d (%v); want %d", n, x, got, err, oracle, oerr, want)
			}
		}
	}
}

func TestConsecutiveEvaluatorErrors(t *testing.T) {
	if _, err := NewConsecutiveEvaluator(f61, 0); err == nil {
		t.Error("n=0 accepted")
	}
	small, err := field.New(17)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewConsecutiveEvaluator(small, 18); err == nil {
		t.Error("n > p accepted")
	}
	if _, err := EvalOracleInterpolant(f61, 0, nil, 5); err == nil {
		t.Error("oracle n=0 accepted")
	}
	if _, err := EvalOracleInterpolant(small, 18, func(uint64) field.Elem { return 1 }, 3); err == nil {
		t.Error("oracle n > p accepted")
	}
	ev, err := NewConsecutiveEvaluator(f61, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ev.Eval(elems(1, 2), 5); err == nil {
		t.Error("wrong-length ys accepted")
	}
}

// TestConsecutiveEvaluatorSmallField runs the barycentric path in Z_17 to
// catch any assumption that the field is large.
func TestConsecutiveEvaluatorSmallField(t *testing.T) {
	small, err := field.New(17)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewConsecutiveEvaluator(small, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := Poly{3, 1, 4, 1} // over Z_17
	ys := make([]field.Elem, 4)
	for i := range ys {
		ys[i] = p.Eval(small, field.Elem(i))
	}
	for x := uint64(0); x < 17; x++ {
		got, err := ev.Eval(ys, field.Elem(x))
		if err != nil {
			t.Fatal(err)
		}
		if got != p.Eval(small, field.Elem(x)) {
			t.Fatalf("Z_17 eval at %d: got %d want %d", x, got, p.Eval(small, field.Elem(x)))
		}
	}
}

func TestSumPrefix(t *testing.T) {
	ys := elems(1, 2, 3, 4)
	got, err := SumPrefix(f61, ys, 2)
	if err != nil || got != 3 {
		t.Errorf("SumPrefix(..2) = %d, %v; want 3", got, err)
	}
	got, err = SumPrefix(f61, ys, 4)
	if err != nil || got != 10 {
		t.Errorf("SumPrefix(..4) = %d, %v; want 10", got, err)
	}
	if _, err := SumPrefix(f61, ys, 5); err == nil {
		t.Error("out-of-range ell accepted")
	}
	if got, err := SumPrefix(f61, ys, 0); err != nil || got != 0 {
		t.Errorf("SumPrefix(..0) = %d, %v; want 0", got, err)
	}
}

func BenchmarkConsecutiveEval4(b *testing.B) {
	ev, err := NewConsecutiveEvaluator(f61, 4)
	if err != nil {
		b.Fatal(err)
	}
	ys := elems(3, 1, 4, 1)
	r := field.Elem(998877)
	for i := 0; i < b.N; i++ {
		if _, err := ev.Eval(ys, r); err != nil {
			b.Fatal(err)
		}
	}
}
