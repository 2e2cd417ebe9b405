package gkr

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/parallel"
)

// gkrGrain is the minimum per-goroutine chunk for the per-gate loops.
// One gate costs ~10 field operations in SumcheckMsg (vs ~1 for the
// kernels parallel.MinGrain is calibrated for), so a smaller floor pays.
const gkrGrain = 1 << 9

// Prover is the honest GKR prover. It evaluates the circuit once, then
// answers each layer's sum-check with the standard per-gate bookkeeping:
// every gate keeps a running product of the χ factors of its bound
// variables, and the Ṽ_{i+1} evaluations come from a table folded by one
// challenge per round — O(S) field operations per round, O(S log S) per
// layer.
type Prover struct {
	proto  *Protocol
	values [][]field.Elem

	// Per-layer sum-check state. pX starts as the χ̃_o(z) table (the eqZ
	// factor is folded in up front, saving one multiply per gate per
	// round) and accumulates the bound-x χ factors; pY starts as the
	// frozen x-phase weights and accumulates the bound-y factors, so the
	// per-gate round weight is a single table read.
	layer   int
	z       []field.Elem
	k       int
	round   int
	pX      []field.Elem // per gate, χ̃_o(z) · product of bound-x χ factors
	pY      []field.Elem // per gate, frozen x weight · bound-y χ factors
	bX      []field.Elem // Ṽ_{i+1} table folded by x challenges
	bY      []field.Elem // Ṽ_{i+1} table folded by y challenges
	vxStar  field.Elem   // Ṽ_{i+1}(x*)
	started bool
}

// NewProver evaluates the circuit on the given input vector.
func (p *Protocol) NewProver(input []field.Elem) (*Prover, error) {
	values, err := p.C.EvaluateWorkers(p.F, input, p.Workers)
	if err != nil {
		return nil, err
	}
	return &Prover{proto: p, values: values}, nil
}

// Outputs returns the circuit's output vector (the prover's claim).
func (pr *Prover) Outputs() []field.Elem {
	return append([]field.Elem(nil), pr.values[0]...)
}

// StartLayer begins the sum-check for the given layer at the revealed
// point z (the verifier's zs[layer], which the prover can also derive
// from earlier challenges; it is passed explicitly to keep the message
// flow of the original protocol).
func (pr *Prover) StartLayer(layer int, z []field.Elem) error {
	if layer != pr.layer || pr.started {
		return fmt.Errorf("gkr: StartLayer(%d) out of order (at %d, started=%v)", layer, pr.layer, pr.started)
	}
	if len(z) != pr.proto.C.VarCount(layer) {
		return fmt.Errorf("gkr: z has %d coordinates, want %d", len(z), pr.proto.C.VarCount(layer))
	}
	pr.z = append([]field.Elem(nil), z...)
	pr.k = pr.proto.C.VarCount(layer + 1)
	pr.round = 0
	// The χ̃ table has exactly 2^len(z) = len(gates) entries; it seeds the
	// per-gate x weights directly (field multiplication is associative and
	// exact, so folding it in here leaves every message value unchanged).
	pr.pX = expandEq(pr.proto.F, z, pr.proto.Workers)
	pr.pY = nil
	pr.bX = append([]field.Elem(nil), pr.values[layer+1]...)
	pr.bY = nil
	pr.started = true
	return nil
}

// expandEq builds the table χ̃_o(z) for all o ∈ {0,1}^len(z),
// least-significant variable first. Each doubling writes two disjoint
// slots per source entry, so the rounds parallelize without reordering
// any arithmetic.
func expandEq(f field.Field, z []field.Elem, workers int) []field.Elem {
	nw := parallel.Workers(workers)
	table := []field.Elem{1}
	for t, zt := range z {
		half := len(table)
		next := make([]field.Elem, 2*half)
		parallel.ForGrain(nw, half, gkrGrain, func(_, lo, hi int) {
			oneMinus := f.Sub(1, zt)
			for o := lo; o < hi; o++ {
				e := table[o]
				next[o] = f.Mul(e, oneMinus)
				next[o|(1<<uint(t))] = f.Mul(e, zt)
			}
		})
		table = next
	}
	return table
}

// SumcheckMsg produces the current round's 3 evaluations g(0), g(1), g(2).
func (pr *Prover) SumcheckMsg() ([]field.Elem, error) {
	if !pr.started {
		return nil, errors.New("gkr: no layer in progress")
	}
	if pr.round >= 2*pr.k {
		return nil, errors.New("gkr: sum-check already finished")
	}
	f := pr.proto.F
	gates := pr.proto.C.Layers[pr.layer].Gates
	below := pr.values[pr.layer+1]
	inX := pr.round < pr.k
	var t int
	var folded []field.Elem
	if inX {
		t = pr.round // 0-based position within the x variables
		folded = pr.bX
	} else {
		t = pr.round - pr.k
		folded = pr.bY
	}
	// One pass over the gates; chunks accumulate partial sums combined in
	// chunk order, so the totals are bit-identical for every worker count
	// (field addition is exact). The χ factor of the round variable is an
	// indicator at c = 0, 1 — a gate whose wire bit is 0 contributes only
	// to g(0) and g(2) (where χ(2) = 1−2 = −1), a bit-1 gate only to g(1)
	// and g(2) (χ(2) = 2) — and the c = 2 table value is 2b − a, so each
	// gate costs two combiner evaluations and two weight multiplies
	// instead of three of each plus the per-point χ products.
	nw := parallel.Workers(pr.proto.Workers)
	partials := make([][3]field.Elem, parallel.ChunksGrain(nw, len(gates), gkrGrain))
	parallel.ForGrain(nw, len(gates), gkrGrain, func(chunk, lo, hi int) {
		var acc [3]field.Elem
		for g := lo; g < hi; g++ {
			gate := gates[g]
			var wire uint32
			var weight field.Elem
			if inX {
				wire = gate.In1
				weight = pr.pX[g]
			} else {
				wire = gate.In2
				weight = pr.pY[g]
			}
			// Ṽ at (bound, c, wire suffix): two adjacent folded entries.
			suffix := wire >> uint(t)
			i0 := suffix &^ 1
			a, b := folded[i0], folded[i0|1]
			v2 := f.Add(b, f.Sub(b, a))
			v01 := a
			if suffix&1 == 1 {
				v01 = b
			}
			var o01, o2 field.Elem
			if inX {
				vy := below[gate.In2]
				if gate.Type == circuit.Add {
					o01, o2 = f.Add(v01, vy), f.Add(v2, vy)
				} else {
					o01, o2 = f.Mul(v01, vy), f.Mul(v2, vy)
				}
			} else {
				if gate.Type == circuit.Add {
					o01, o2 = f.Add(pr.vxStar, v01), f.Add(pr.vxStar, v2)
				} else {
					o01, o2 = f.Mul(pr.vxStar, v01), f.Mul(pr.vxStar, v2)
				}
			}
			t01 := f.Mul(weight, o01)
			t2 := f.Mul(weight, o2)
			if suffix&1 == 0 {
				acc[0] = f.Add(acc[0], t01)
				acc[2] = f.Sub(acc[2], t2)
			} else {
				acc[1] = f.Add(acc[1], t01)
				acc[2] = f.Add(acc[2], f.Add(t2, t2))
			}
		}
		partials[chunk] = acc
	})
	out := make([]field.Elem, 3)
	for _, p := range partials {
		for ci := range out {
			out[ci] = f.Add(out[ci], p[ci])
		}
	}
	return out, nil
}

// Bind consumes the verifier's challenge for the current round.
func (pr *Prover) Bind(r field.Elem) error {
	if !pr.started || pr.round >= 2*pr.k {
		return errors.New("gkr: no round to bind")
	}
	f := pr.proto.F
	gates := pr.proto.C.Layers[pr.layer].Gates
	inX := pr.round < pr.k
	var t int
	if inX {
		t = pr.round
	} else {
		t = pr.round - pr.k
	}
	nw := parallel.Workers(pr.proto.Workers)
	oneMinusR := f.Sub(1, r)
	parallel.ForGrain(nw, len(gates), gkrGrain, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			var wire uint32
			if inX {
				wire = gates[g].In1
			} else {
				wire = gates[g].In2
			}
			factor := r
			if (wire>>uint(t))&1 == 0 {
				factor = oneMinusR
			}
			if inX {
				pr.pX[g] = f.Mul(pr.pX[g], factor)
			} else {
				pr.pY[g] = f.Mul(pr.pY[g], factor)
			}
		}
	})
	if inX {
		pr.bX = pr.foldOnce(pr.bX, r)
	} else {
		pr.bY = pr.foldOnce(pr.bY, r)
	}
	pr.round++
	if pr.round == pr.k {
		// x phase complete: the per-gate x weights are frozen as the seed
		// of the y-phase products, and Ṽ(x*) is the fully folded table.
		pr.vxStar = pr.bX[0]
		pr.pY = append([]field.Elem(nil), pr.pX...)
		pr.bY = append([]field.Elem(nil), pr.values[pr.layer+1]...)
	}
	return nil
}

// foldOnce binds one variable of the table to r with the FoldPairs batch
// kernel; chunks write disjoint destination ranges.
func (pr *Prover) foldOnce(table []field.Elem, r field.Elem) []field.Elem {
	f := pr.proto.F
	nw := parallel.Workers(pr.proto.Workers)
	next := make([]field.Elem, len(table)/2)
	parallel.ForGrain(nw, len(next), gkrGrain, func(_, lo, hi int) {
		f.FoldPairs(next[lo:hi], table[2*lo:2*hi], r)
	})
	return next
}

// LinePoly returns the k+1 evaluations of q(t) = Ṽ_{layer+1}(x* + t(y*-x*))
// at t = 0..k. It requires the sum-check to be complete; the x* and y*
// points are reconstructed from the bound challenges implicitly by
// evaluating the value table along the line.
func (pr *Prover) LinePoly(xStar, yStar []field.Elem) ([]field.Elem, error) {
	if !pr.started || pr.round != 2*pr.k {
		return nil, errors.New("gkr: sum-check not finished")
	}
	f := pr.proto.F
	table := pr.values[pr.layer+1]
	out := make([]field.Elem, pr.k+1)
	point := make([]field.Elem, pr.k)
	// Scratch ping-pong buffers shared across the k+1 evaluations; each
	// fold reads one buffer and writes the other, so the chunked FoldPairs
	// calls never overlap.
	bufA := make([]field.Elem, len(table))
	bufB := make([]field.Elem, len(table)/2)
	for ti := 0; ti <= pr.k; ti++ {
		t := f.Reduce(uint64(ti))
		for j := 0; j < pr.k; j++ {
			point[j] = f.Add(xStar[j], f.Mul(t, f.Sub(yStar[j], xStar[j])))
		}
		out[ti] = pr.foldAt(table, point, bufA, bufB)
	}
	return out, nil
}

// foldAt evaluates the multilinear extension of table at point, folding
// one variable per round with the parallel FoldPairs kernel. src and dst
// must each hold len(table) and len(table)/2 elements of scratch.
func (pr *Prover) foldAt(table, point, src, dst []field.Elem) field.Elem {
	f := pr.proto.F
	nw := parallel.Workers(pr.proto.Workers)
	cur := src[:len(table)]
	copy(cur, table)
	for _, r := range point {
		next := dst[:len(cur)/2]
		parallel.ForGrain(nw, len(next), gkrGrain, func(_, lo, hi int) {
			f.FoldPairs(next[lo:hi], cur[2*lo:2*hi], r)
		})
		cur, dst = next, cur
	}
	return cur[0]
}

// FinishLayer closes the completed layer. (The next layer's point
// z = x* + t*(y* − x*) is derivable by the prover from the revealed
// challenges; ProverSession derives it and passes it to StartLayer.)
func (pr *Prover) FinishLayer() error {
	if !pr.started || pr.round != 2*pr.k {
		return errors.New("gkr: sum-check not finished")
	}
	pr.layer++
	pr.started = false
	return nil
}
