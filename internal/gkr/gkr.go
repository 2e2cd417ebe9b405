// Package gkr implements the Goldwasser–Kalai–Rothblum "Interactive
// Proofs for Muggles" protocol with a *streaming* verifier — the
// construction behind Theorem 3 of Cormode–Thaler–Yi (Appendix A,
// "Streaming Interactive Proofs for Muggles").
//
// For a layered circuit C, the protocol reduces a claim about the output
// layer to a claim about the input layer, one layer at a time. For layer
// i, with Ṽ_i the multilinear extension of the layer's values,
//
//	Ṽ_i(z) = Σ_{x,y ∈ {0,1}^{k_{i+1}}}
//	           add̃_i(z,x,y)·(Ṽ_{i+1}(x)+Ṽ_{i+1}(y))
//	         + mult̃_i(z,x,y)·Ṽ_{i+1}(x)·Ṽ_{i+1}(y)
//
// is verified with a 2k_{i+1}-round sum-check (degree ≤ 2 per variable,
// so 3 evaluations per message), after which the two claims Ṽ_{i+1}(x*),
// Ṽ_{i+1}(y*) are merged into one by restricting Ṽ_{i+1} to the line
// through x* and y*.
//
// The streaming twist (Appendix A): the final claim is about the *input*
// extension at a point that depends only on the verifier's own coins —
// z_L = ℓ_{L-1}(t*_{L-1}) is a function of the pre-sampled challenges, not
// of anything the prover says. The verifier therefore samples all
// randomness up front, derives that point, and evaluates the input MLE at
// it during the stream in O(log u) space, exactly like Theorem 1.
//
// The honest prover runs in O(S·log S) per layer using the per-gate
// bookkeeping tables (the standard linear-time sum-check prover).
//
// This package exists as the Theorem-3 baseline: §3's Remarks observe
// that the specialized F2 protocol is a quadratic improvement
// ((log u, log u) vs (log² u, log² u)); harness.CompareF2 measures
// exactly that gap.
package gkr

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
)

// ErrRejected is returned when any check fails.
var ErrRejected = errors.New("gkr: proof rejected")

// Protocol binds a circuit to a field and a wiring evaluator.
type Protocol struct {
	F      field.Field
	C      *circuit.Circuit
	Wiring circuit.Wiring

	// Workers sets the prover-side fork–join width (parallel.Workers
	// semantics: 0 serial, <0 NumCPU). Transcripts are bit-identical for
	// every value — the same invariant the fixed query kinds enforce.
	Workers int
}

// New validates the circuit and returns the protocol. A nil wiring
// selects the generic gate-iterating evaluator.
func New(f field.Field, c *circuit.Circuit, w circuit.Wiring) (*Protocol, error) {
	if !f.Valid() {
		return nil, errors.New("gkr: invalid field")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i := 0; i <= len(c.Layers); i++ {
		if i > 0 && c.VarCount(i) == 0 {
			return nil, fmt.Errorf("gkr: layer %d has a single gate below the output; widen the circuit", i)
		}
	}
	if w == nil {
		w = circuit.GateWiring{C: c}
	}
	return &Protocol{F: f, C: c, Wiring: w}, nil
}

// ---------------------------------------------------------------------
// Verifier

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

// NewVerifier samples all randomness and returns a verifier ready to
// observe the input stream.
func (p *Protocol) NewVerifier(rng field.RNG) (*Verifier, error) {
	f := p.F
	numLayers := len(p.C.Layers)
	v := &Verifier{proto: p}
	v.zs = make([][]field.Elem, numLayers+1)
	v.zs[0] = f.RandVec(rng, p.C.VarCount(0))
	v.xs = make([][]field.Elem, numLayers)
	v.ys = make([][]field.Elem, numLayers)
	v.ts = make([]field.Elem, numLayers)
	for i := 0; i < numLayers; i++ {
		k := p.C.VarCount(i + 1)
		v.xs[i] = f.RandVec(rng, k)
		v.ys[i] = f.RandVec(rng, k)
		v.ts[i] = f.Rand(rng)
		// z_{i+1} = x* + t*(y* − x*): a function of the coins alone, which
		// is what lets a streaming verifier know the input point up front.
		z := make([]field.Elem, k)
		for j := 0; j < k; j++ {
			z[j] = f.Add(v.xs[i][j], f.Mul(v.ts[i], f.Sub(v.ys[i][j], v.xs[i][j])))
		}
		v.zs[i+1] = z
	}
	inParams, err := lde.NewParams(2, len(v.zs[numLayers]))
	if err != nil {
		return nil, err
	}
	pt, err := lde.NewPoint(f, inParams, v.zs[numLayers])
	if err != nil {
		return nil, err
	}
	v.in = lde.NewEvaluator(pt)
	ev3, err := poly.NewConsecutiveEvaluator(f, 3)
	if err != nil {
		return nil, err
	}
	v.ev3 = ev3
	return v, nil
}

// Observe folds one input stream update (index, delta) into the input
// MLE evaluation at the pre-derived point, O(log u) per update.
func (v *Verifier) Observe(index uint64, delta int64) error {
	if index >= uint64(v.proto.C.InputSize) {
		return fmt.Errorf("gkr: input index %d outside [0,%d)", index, v.proto.C.InputSize)
	}
	return v.in.Update(index, delta)
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

// foldAt evaluates the multilinear extension of table at point.
func foldAt(f field.Field, table []field.Elem, point []field.Elem) field.Elem {
	cur := append([]field.Elem(nil), table...)
	for _, r := range point {
		next := cur[:len(cur)/2]
		for w := range next {
			a, b := cur[2*w], cur[2*w+1]
			next[w] = f.Add(a, f.Mul(r, f.Sub(b, a)))
		}
		cur = next
	}
	return cur[0]
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

// Done reports whether the verification finished successfully.
func (v *Verifier) Done() bool { return v.done }

// Output returns the verified circuit output (first output gate).
func (v *Verifier) Output() (field.Elem, error) {
	if !v.done {
		return 0, errors.New("gkr: output unavailable before acceptance")
	}
	return v.output, nil
}

// SpaceWords reports the verifier's working memory: the pre-sampled
// challenges (Σ (3k_i + 1)) plus O(1) running values. This is the
// Θ(log² u) footprint the paper's §3 Remarks contrast with the native F2
// protocol's Θ(log u).
func (v *Verifier) SpaceWords() int {
	n := len(v.zs[0]) + 3
	for i := range v.xs {
		n += 2*len(v.xs[i]) + 1
	}
	return n
}
