// The GKR step API and wrapReject, as 49c0dfd^ held them in
// internal/gkr/gkr.go, prover.go and session.go: the low-level
// Verifier/Prover state machines beneath the sessions, and the mapping
// of their own rejection sentinel onto core.ErrRejected.

package gkr

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
)

// ErrRejected is returned when any check fails.
var ErrRejected = errors.New("gkr: proof rejected")

// Verifier pre-samples every challenge, derives the final input point,
// and streams the input's multilinear extension at it.
type Verifier struct {
	proto *Protocol
	zs    [][]field.Elem // z_i for layers 0..L (zs[L] is the input point)
	xs    [][]field.Elem // sum-check challenges, x half, per layer
	ys    [][]field.Elem // y half
	ts    []field.Elem   // line parameters t*
	ev3   *poly.ConsecutiveEvaluator

	// Streaming input evaluation: the input's multilinear extension at
	// zs[L], maintained like any LDE point (Theorem 1).
	in *lde.Evaluator

	// Conversation state.
	layer   int
	scRound int
	claim   field.Elem
	output  field.Elem
	done    bool
	started bool
}

// ReceiveOutputs consumes the claimed output vector: the initial claim is
// its multilinear extension at z_0.
func (v *Verifier) ReceiveOutputs(outs []field.Elem) error {
	if v.started {
		return errors.New("gkr: outputs already received")
	}
	want := len(v.proto.C.Layers[0].Gates)
	if len(outs) != want {
		return fmt.Errorf("%w: %d outputs, want %d", ErrRejected, len(outs), want)
	}
	f := v.proto.F
	for _, o := range outs {
		if uint64(o) >= f.Modulus() {
			return fmt.Errorf("%w: non-canonical output", ErrRejected)
		}
	}
	v.output = outs[0]
	v.claim = foldAt(f, outs, v.zs[0])
	v.started = true
	return nil
}

// ReceiveSumcheck consumes one 3-evaluation sum-check message and returns
// the challenge to reveal.
func (v *Verifier) ReceiveSumcheck(evals []field.Elem) (field.Elem, error) {
	if !v.started || v.done {
		return 0, errors.New("gkr: not mid-conversation")
	}
	f := v.proto.F
	if len(evals) != 3 {
		return 0, fmt.Errorf("%w: sum-check message has %d evaluations, want 3", ErrRejected, len(evals))
	}
	for _, e := range evals {
		if uint64(e) >= f.Modulus() {
			return 0, fmt.Errorf("%w: non-canonical element", ErrRejected)
		}
	}
	if got := f.Add(evals[0], evals[1]); got != v.claim {
		return 0, fmt.Errorf("%w: layer %d round %d sum %d ≠ claim %d", ErrRejected, v.layer, v.scRound, got, v.claim)
	}
	k := v.proto.C.VarCount(v.layer + 1)
	var r field.Elem
	if v.scRound < k {
		r = v.xs[v.layer][v.scRound]
	} else {
		r = v.ys[v.layer][v.scRound-k]
	}
	next, err := v.ev3.Eval(evals, r)
	if err != nil {
		return 0, err
	}
	v.claim = next
	v.scRound++
	return r, nil
}

// SumcheckRoundsLeft reports how many sum-check messages remain in the
// current layer.
func (v *Verifier) SumcheckRoundsLeft() int {
	return 2*v.proto.C.VarCount(v.layer+1) - v.scRound
}

// ReceiveLine consumes the line restriction q(0..k) for the current
// layer, performs the layer's final check, and returns t* for the prover
// to derive the next claim point. After the last layer it performs the
// input check against the streamed evaluation.
func (v *Verifier) ReceiveLine(evals []field.Elem) (field.Elem, error) {
	if !v.started || v.done {
		return 0, errors.New("gkr: not mid-conversation")
	}
	f := v.proto.F
	k := v.proto.C.VarCount(v.layer + 1)
	if v.scRound != 2*k {
		return 0, fmt.Errorf("gkr: line before sum-check finished (%d/%d)", v.scRound, 2*k)
	}
	if len(evals) != k+1 {
		return 0, fmt.Errorf("%w: line has %d evaluations, want %d", ErrRejected, len(evals), k+1)
	}
	for _, e := range evals {
		if uint64(e) >= f.Modulus() {
			return 0, fmt.Errorf("%w: non-canonical element", ErrRejected)
		}
	}
	q0, q1 := evals[0], evals[1]
	addV, mulV := v.proto.Wiring.Eval(f, v.layer, v.zs[v.layer], v.xs[v.layer], v.ys[v.layer])
	want := f.Add(f.Mul(addV, f.Add(q0, q1)), f.Mul(mulV, f.Mul(q0, q1)))
	if want != v.claim {
		return 0, fmt.Errorf("%w: layer %d final check %d ≠ %d", ErrRejected, v.layer, want, v.claim)
	}
	evk, err := poly.NewConsecutiveEvaluator(f, k+1)
	if err != nil {
		return 0, err
	}
	next, err := evk.Eval(evals, v.ts[v.layer])
	if err != nil {
		return 0, err
	}
	v.claim = next
	t := v.ts[v.layer]
	v.layer++
	v.scRound = 0
	if v.layer == len(v.proto.C.Layers) {
		// Input check: the claim must equal the streamed input MLE.
		if in := v.in.Value(); v.claim != in {
			return 0, fmt.Errorf("%w: input claim %d ≠ streamed evaluation %d", ErrRejected, v.claim, in)
		}
		v.done = true
	}
	return t, nil
}

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

// wrapReject maps this package's rejection sentinel onto the repository's
// uniform core.ErrRejected so transports and clients need only one check.
func wrapReject(err error) error {
	if errors.Is(err, ErrRejected) {
		return fmt.Errorf("%w: %w", core.ErrRejected, err)
	}
	return err
}
