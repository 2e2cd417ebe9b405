// Package poly implements dense univariate polynomials over a prime field.
//
// The sum-check protocols of Cormode–Thaler–Yi exchange low-degree
// univariate polynomials g_j each round; the frequency-based protocols of
// §6.2 additionally interpolate a polynomial h̃ of degree ~√u through the
// statistic h. This package provides the evaluation and interpolation
// machinery for both, including O(n) evaluation of an interpolant through
// consecutive integer points (the form every protocol message takes).
package poly

import (
	"fmt"

	"repro/internal/field"
)

// Poly is a polynomial in coefficient form: Poly[i] is the coefficient of
// x^i. A nil or empty Poly is the zero polynomial. Coefficients are
// elements of the field supplied to each operation; mixing fields is a
// programming error.
type Poly []field.Elem

// Degree returns the degree of p, with -1 for the zero polynomial.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Trim removes high zero coefficients, returning a canonical slice.
func (p Poly) Trim() Poly {
	return p[:p.Degree()+1]
}

// Eval evaluates p at x by Horner's rule.
func (p Poly) Eval(f field.Field, x field.Elem) field.Elem {
	var acc field.Elem
	for i := len(p) - 1; i >= 0; i-- {
		acc = f.Add(f.Mul(acc, x), p[i])
	}
	return acc
}

// Mul returns p·q by schoolbook multiplication. The degrees in this
// repository are tiny (≤ √u), so no FFT is needed.
func Mul(f field.Field, p, q Poly) Poly {
	if p.Degree() < 0 || q.Degree() < 0 {
		return nil
	}
	out := make(Poly, p.Degree()+q.Degree()+2)
	for i, a := range p {
		if a == 0 {
			continue
		}
		for j, b := range q {
			if b == 0 {
				continue
			}
			out[i+j] = f.Add(out[i+j], f.Mul(a, b))
		}
	}
	return out.Trim()
}

// Interpolate returns the unique polynomial of degree < len(xs) passing
// through the points (xs[i], ys[i]). The xs must be distinct. It runs in
// O(n²) time: the master product Π(x - xs[i]) is computed once and each
// Lagrange basis polynomial is recovered by synthetic division.
func Interpolate(f field.Field, xs, ys []field.Elem) (Poly, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("poly: interpolate: %d xs but %d ys", n, len(ys))
	}
	if n == 0 {
		return nil, nil
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if xs[i] == xs[j] {
				return nil, fmt.Errorf("poly: interpolate: duplicate x %d", xs[i])
			}
		}
	}
	// master = Π_i (x - xs[i]), degree n.
	master := Poly{1}
	for _, x := range xs {
		master = Mul(f, master, Poly{f.Neg(x), 1})
	}

	out := make(Poly, n)
	quotient := make(Poly, n)
	for i := 0; i < n; i++ {
		// basis_i = master / (x - xs[i]), by synthetic division.
		carry := field.Elem(0)
		for k := n; k >= 1; k-- {
			quotient[k-1] = f.Add(master[k], f.Mul(carry, xs[i]))
			carry = quotient[k-1]
		}
		// denominator = Π_{j≠i} (xs[i] - xs[j]) = basis_i(xs[i]).
		denom := Poly(quotient[:n]).Eval(f, xs[i])
		inv := f.Inv(denom)
		c := f.Mul(ys[i], inv)
		for k := 0; k < n; k++ {
			out[k] = f.Add(out[k], f.Mul(quotient[k], c))
		}
	}
	return out.Trim(), nil
}

// ConsecutiveEvaluator evaluates interpolants through the consecutive
// integer points 0, 1, …, n-1 at arbitrary field points in O(n) per call
// (after O(n) setup) using barycentric weights. This is the verifier's hot
// path: every sum-check message arrives as evaluations g_j(0..deg) and
// must be re-evaluated at the random challenge r_j.
type ConsecutiveEvaluator struct {
	f field.Field
	// w[i] = 1 / (i! · (n-1-i)! · (-1)^(n-1-i))
	w []field.Elem
}

// NewConsecutiveEvaluator prepares barycentric weights for interpolation
// through x = 0..n-1. n must satisfy n ≤ p so the points are distinct.
func NewConsecutiveEvaluator(f field.Field, n int) (*ConsecutiveEvaluator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("poly: consecutive evaluator needs n > 0, got %d", n)
	}
	if uint64(n) > f.Modulus() {
		return nil, fmt.Errorf("poly: n=%d exceeds field size %d", n, f.Modulus())
	}
	// denom_i = i! · (n-1-i)! with sign (-1)^(n-1-i).
	denoms := make([]field.Elem, n)
	fact := make([]field.Elem, n)
	fact[0] = 1
	for i := 1; i < n; i++ {
		fact[i] = f.Mul(fact[i-1], f.Reduce(uint64(i)))
	}
	for i := 0; i < n; i++ {
		d := f.Mul(fact[i], fact[n-1-i])
		if (n-1-i)%2 == 1 {
			d = f.Neg(d)
		}
		denoms[i] = d
	}
	f.InvSlice(denoms)
	return &ConsecutiveEvaluator{f: f, w: denoms}, nil
}

// Eval returns the value at r of the unique degree-<n polynomial with
// g(i) = ys[i] for i = 0..n-1.
func (e *ConsecutiveEvaluator) Eval(ys []field.Elem, r field.Elem) (field.Elem, error) {
	n := len(e.w)
	if len(ys) != n {
		return 0, fmt.Errorf("poly: consecutive eval: got %d values, want %d", len(ys), n)
	}
	f := e.f
	// If r is one of the nodes, return directly (the barycentric formula
	// would divide by zero).
	if uint64(r) < uint64(n) {
		return ys[r], nil
	}
	// prefix[i] = Π_{j<i} (r - j), suffix[i] = Π_{j>i} (r - j).
	prefix := make([]field.Elem, n)
	suffix := make([]field.Elem, n)
	acc := field.Elem(1)
	for i := 0; i < n; i++ {
		prefix[i] = acc
		acc = f.Mul(acc, f.Sub(r, f.Reduce(uint64(i))))
	}
	acc = 1
	for i := n - 1; i >= 0; i-- {
		suffix[i] = acc
		acc = f.Mul(acc, f.Sub(r, f.Reduce(uint64(i))))
	}
	var out field.Elem
	for i := 0; i < n; i++ {
		term := f.Mul(ys[i], e.w[i])
		term = f.Mul(term, f.Mul(prefix[i], suffix[i]))
		out = f.Add(out, term)
	}
	return out, nil
}

// EvalOracleInterpolant evaluates, at x, the unique polynomial h̃ of
// degree < n with h̃(i) = h(i) for i = 0..n-1, using only oracle access to
// h: O(n) field operations plus O(n) inversions and O(1) working space.
// This is exactly how the §6.2 streaming verifier computes h̃(f̃_a(r))
// "without explicitly storing h̃": n there is ~√u, far too large to hold.
//
// It uses the ratio recurrence χ_i(x) = -χ_{i-1}(x)·(x-i+1)(n-i) /
// ((x-i)·i) between consecutive Lagrange basis values.
func EvalOracleInterpolant(f field.Field, n int, h func(uint64) field.Elem, x field.Elem) (field.Elem, error) {
	if n <= 0 {
		return 0, fmt.Errorf("poly: oracle interpolant needs n > 0, got %d", n)
	}
	if uint64(n) > f.Modulus() {
		return 0, fmt.Errorf("poly: n=%d exceeds field size %d", n, f.Modulus())
	}
	if uint64(x) < uint64(n) {
		return h(uint64(x)), nil
	}
	// χ_0(x) = Π_{j=1..n-1}(x-j) / ((-1)^{n-1}·(n-1)!).
	num := field.Elem(1)
	den := field.Elem(1)
	for j := 1; j < n; j++ {
		num = f.Mul(num, f.Sub(x, f.Reduce(uint64(j))))
		den = f.Mul(den, f.Reduce(uint64(j)))
	}
	if (n-1)%2 == 1 {
		den = f.Neg(den)
	}
	chi := f.Mul(num, f.Inv(den))
	acc := f.Mul(h(0), chi)
	for i := 1; i < n; i++ {
		fi := f.Reduce(uint64(i))
		numer := f.Mul(f.Sub(x, f.Reduce(uint64(i-1))), f.Reduce(uint64(n-i)))
		denom := f.Mul(f.Sub(x, fi), fi)
		chi = f.Neg(f.Mul(chi, f.Mul(numer, f.Inv(denom))))
		acc = f.Add(acc, f.Mul(h(uint64(i)), chi))
	}
	return acc, nil
}

// SumPrefix returns ys[0] + … + ys[ell-1], the quantity
// Σ_{x∈[ell]} g(x) checked by the sum-check verifier. It requires
// ell ≤ len(ys), which always holds because deg g ≥ ell-1.
func SumPrefix(f field.Field, ys []field.Elem, ell int) (field.Elem, error) {
	if ell > len(ys) || ell < 0 {
		return 0, fmt.Errorf("poly: sum prefix: ell=%d out of range for %d values", ell, len(ys))
	}
	var s field.Elem
	for _, y := range ys[:ell] {
		s = f.Add(s, y)
	}
	return s, nil
}
