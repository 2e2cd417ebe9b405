package gkr

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/parallel"
)

type proverPhase uint8

const (
	phaseAwaitZ   proverPhase = iota // waiting for the revealed output point z₀
	phaseSumcheck                    // waiting for a sum-check challenge
	phaseAwaitT                      // line sent, waiting for t*
)

// ProverSession is the honest GKR prover. It evaluates the circuit once,
// then answers each layer's sum-check with the standard per-gate
// bookkeeping: every gate keeps a running product of the χ factors of
// its bound variables, and the Ṽ_{i+1} evaluations come from a table
// folded by one challenge per round — O(S) field operations per round,
// O(S log S) per layer. It records the revealed sum-check challenges,
// from which it evaluates the line restriction and derives each next
// layer's point without extra messages.
type ProverSession struct {
	proto   *Protocol
	workers int // the per-gate loops' fan-out, resolved by parallel.Workers
	values  [][]field.Elem
	phase   proverPhase

	// Per-layer sum-check state. xs and ys are the bound challenges, x
	// half then y half; their lengths are the round count. pX starts as
	// the χ̃_o(z) table (the eqZ factor is folded in up front, saving one
	// multiply per gate per round) and accumulates the bound-x χ factors;
	// pY starts as the frozen x-phase weights and accumulates the bound-y
	// factors, so the per-gate round weight is a single table read.
	layer  int
	xs, ys []field.Elem
	pX     []field.Elem // per gate, χ̃_o(z) · product of bound-x χ factors
	pY     []field.Elem // per gate, frozen x weight · bound-y χ factors
	bX     []field.Elem // Ṽ_{i+1} table folded by x challenges
	bY     []field.Elem // Ṽ_{i+1} table folded by y challenges
	vxStar field.Elem   // Ṽ_{i+1}(x*)
}

// NewProverSession evaluates the circuit on the input and returns the
// conversation-ready prover, whose per-gate sum-check loops fan out
// across workers goroutines (0 serial, n < 0 runtime.NumCPU()).
// Transcripts are bit-identical for every value.
func (p *Protocol) NewProverSession(input []field.Elem, workers int) (*ProverSession, error) {
	values, err := p.C.Evaluate(p.F, input)
	if err != nil {
		return nil, err
	}
	return &ProverSession{proto: p, workers: parallel.Workers(workers), values: values}, nil
}

// Open produces the opening message: the claimed output vector.
func (s *ProverSession) Open() (core.Msg, error) {
	return core.Msg{Elems: append([]field.Elem(nil), s.values[0]...)}, nil
}

// Step consumes a verifier challenge and produces the next response.
func (s *ProverSession) Step(challenge core.Msg) (core.Msg, error) {
	if len(challenge.Ints) != 0 {
		return core.Msg{}, errors.New("gkr: unexpected integer payload in challenge")
	}
	switch s.phase {
	case phaseAwaitZ:
		return s.startLayer(challenge.Elems)
	case phaseSumcheck:
		if len(challenge.Elems) != 1 {
			return core.Msg{}, fmt.Errorf("gkr: sum-check challenge has %d elements, want 1", len(challenge.Elems))
		}
		s.bind(challenge.Elems[0])
		if len(s.ys) < s.k() {
			return core.Msg{Elems: s.sumcheckMsg()}, nil
		}
		s.phase = phaseAwaitT
		return core.Msg{Elems: s.linePoly()}, nil
	default: // phaseAwaitT
		if len(challenge.Elems) != 1 {
			return core.Msg{}, fmt.Errorf("gkr: line challenge has %d elements, want 1", len(challenge.Elems))
		}
		z := linePoint(s.proto.F, make([]field.Elem, len(s.xs)), s.xs, s.ys, challenge.Elems[0])
		s.layer++
		return s.startLayer(z)
	}
}

// k is the current layer's sum-check half length, k_{layer+1}.
func (s *ProverSession) k() int { return s.proto.C.VarCount(s.layer + 1) }

// startLayer begins the current layer's sum-check at the point z and
// returns its first message.
func (s *ProverSession) startLayer(z []field.Elem) (core.Msg, error) {
	if s.layer == len(s.proto.C.Layers) {
		return core.Msg{}, errors.New("gkr: conversation already complete")
	}
	if want := s.proto.C.VarCount(s.layer); len(z) != want {
		return core.Msg{}, fmt.Errorf("gkr: z has %d coordinates, want %d", len(z), want)
	}
	// The χ̃ table has exactly 2^len(z) = len(gates) entries; it seeds the
	// per-gate x weights directly (field multiplication is associative and
	// exact, so folding it in here leaves every message value unchanged).
	s.pX = expandEq(s.proto.F, z, s.workers)
	s.pY = nil
	s.bX = append([]field.Elem(nil), s.values[s.layer+1]...)
	s.bY = nil
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	s.phase = phaseSumcheck
	return core.Msg{Elems: s.sumcheckMsg()}, nil
}

// expandEq builds the table χ̃_o(z) for all o ∈ {0,1}^len(z),
// least-significant variable first, across nw workers. Each doubling
// writes two disjoint slots per source entry, so the rounds parallelize
// without reordering any arithmetic.
func expandEq(f field.Field, z []field.Elem, nw int) []field.Elem {
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

// sumcheckMsg produces the current round's 3 evaluations g(0), g(1), g(2).
func (s *ProverSession) sumcheckMsg() []field.Elem {
	f := s.proto.F
	gates := s.proto.C.Layers[s.layer].Gates
	below := s.values[s.layer+1]
	// t is the round variable's 0-based position within its half.
	inX := len(s.xs) < s.k()
	t, folded := len(s.xs), s.bX
	if !inX {
		t, folded = len(s.ys), s.bY
	}
	// One pass over the gates; chunks accumulate partial sums combined in
	// chunk order, so the totals are bit-identical for every worker count
	// (field addition is exact). The χ factor of the round variable is an
	// indicator at c = 0, 1 — a gate whose wire bit is 0 contributes only
	// to g(0) and g(2) (where χ(2) = 1−2 = −1), a bit-1 gate only to g(1)
	// and g(2) (χ(2) = 2) — and the c = 2 table value is 2b − a, so each
	// gate costs two combiner evaluations and two weight multiplies
	// instead of three of each plus the per-point χ products.
	partials := make([][3]field.Elem, parallel.ChunksGrain(s.workers, len(gates), gkrGrain))
	parallel.ForGrain(s.workers, len(gates), gkrGrain, func(chunk, lo, hi int) {
		var acc [3]field.Elem
		for g := lo; g < hi; g++ {
			gate := gates[g]
			var wire uint32
			var weight field.Elem
			if inX {
				wire = gate.In1
				weight = s.pX[g]
			} else {
				wire = gate.In2
				weight = s.pY[g]
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
					o01, o2 = f.Add(s.vxStar, v01), f.Add(s.vxStar, v2)
				} else {
					o01, o2 = f.Mul(s.vxStar, v01), f.Mul(s.vxStar, v2)
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
	return out
}

// bind consumes the verifier's challenge for the current round.
func (s *ProverSession) bind(r field.Elem) {
	f := s.proto.F
	gates := s.proto.C.Layers[s.layer].Gates
	k := s.k()
	inX := len(s.xs) < k
	t, weights := len(s.xs), s.pX
	if !inX {
		t, weights = len(s.ys), s.pY
	}
	oneMinusR := f.Sub(1, r)
	parallel.ForGrain(s.workers, len(gates), gkrGrain, func(_, lo, hi int) {
		for g := lo; g < hi; g++ {
			wire := gates[g].In2
			if inX {
				wire = gates[g].In1
			}
			factor := r
			if (wire>>uint(t))&1 == 0 {
				factor = oneMinusR
			}
			weights[g] = f.Mul(weights[g], factor)
		}
	})
	if !inX {
		s.bY = s.foldOnce(s.bY, r)
		s.ys = append(s.ys, r)
		return
	}
	s.bX = s.foldOnce(s.bX, r)
	s.xs = append(s.xs, r)
	if len(s.xs) == k {
		// x phase complete: the per-gate x weights are frozen as the seed
		// of the y-phase products, and Ṽ(x*) is the fully folded table.
		s.vxStar = s.bX[0]
		s.pY = append([]field.Elem(nil), s.pX...)
		s.bY = append([]field.Elem(nil), s.values[s.layer+1]...)
	}
}

// foldOnce binds one variable of the table to r with the FoldPairs batch
// kernel; chunks write disjoint destination ranges.
func (s *ProverSession) foldOnce(table []field.Elem, r field.Elem) []field.Elem {
	f := s.proto.F
	next := make([]field.Elem, len(table)/2)
	parallel.ForGrain(s.workers, len(next), gkrGrain, func(_, lo, hi int) {
		f.FoldPairs(next[lo:hi], table[2*lo:2*hi], r)
	})
	return next
}

// linePoly returns the k+1 evaluations of q(t) = Ṽ_{layer+1}(x* + t(y*−x*))
// at t = 0..k, evaluating the value table along the line through the
// bound challenges.
func (s *ProverSession) linePoly() []field.Elem {
	f := s.proto.F
	table := s.values[s.layer+1]
	k := len(s.xs)
	out := make([]field.Elem, k+1)
	point := make([]field.Elem, k)
	// One pair of ping-pong buffers serves all k+1 evaluations.
	src := make([]field.Elem, len(table))
	dst := make([]field.Elem, len(table)/2)
	for ti := range out {
		linePoint(f, point, s.xs, s.ys, f.Reduce(uint64(ti)))
		out[ti] = foldAt(f, s.workers, table, point, src, dst)
	}
	return out
}
