package gkr

import (
	"errors"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
)

// VerifierSession is the streaming GKR verifier. It pre-samples every
// challenge, derives the final input point from them, and streams the
// input's multilinear extension at that point; Observe must see the
// input stream before the conversation, like every verifier in this
// repository.
type VerifierSession struct {
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
	outs  []field.Elem // the claimed outputs; nil until Begin
	layer int
	round int // sum-check messages checked in the current layer
	claim field.Elem
	done  bool
}

// NewVerifierSession samples all randomness and returns a verifier ready
// to observe the input stream.
func (p *Protocol) NewVerifierSession(rng field.RNG) (*VerifierSession, error) {
	f := p.F
	numLayers := len(p.C.Layers)
	v := &VerifierSession{proto: p}
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
		// A function of the coins alone, which is what lets a streaming
		// verifier know the input point up front.
		v.zs[i+1] = linePoint(f, make([]field.Elem, k), v.xs[i], v.ys[i], v.ts[i])
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
	if v.ev3, err = poly.NewConsecutiveEvaluator(f, 3); err != nil {
		return nil, err
	}
	return v, nil
}

// Observe folds one stream update into the input evaluation, O(log u)
// per update. Updates at indices the circuit does not read (at or beyond
// InputSize — possible for MATMUL with a dimension smaller than the
// universe) are outside the statement being proved and are skipped.
func (v *VerifierSession) Observe(up stream.Update) error {
	if up.Index >= uint64(v.proto.C.InputSize) {
		return nil
	}
	return v.in.Update(up.Index, up.Delta)
}

// Begin consumes the claimed output vector and reveals z₀: the initial
// claim is the vector's multilinear extension at z₀.
func (v *VerifierSession) Begin(opening core.Msg) (core.Msg, bool, error) {
	if v.outs != nil {
		return core.Msg{}, false, errors.New("gkr: outputs already received")
	}
	if len(opening.Ints) != 0 {
		return core.Msg{}, false, reject("unexpected integer payload in opening")
	}
	outs := opening.Elems
	if want := len(v.proto.C.Layers[0].Gates); len(outs) != want {
		return core.Msg{}, false, reject("%d outputs, want %d", len(outs), want)
	}
	if err := v.canonical(outs); err != nil {
		return core.Msg{}, false, err
	}
	v.outs = append([]field.Elem(nil), outs...)
	v.claim = foldAt(v.proto.F, 1, outs, v.zs[0], make([]field.Elem, len(outs)), make([]field.Elem, len(outs)/2))
	return core.Msg{Elems: append([]field.Elem(nil), v.zs[0]...)}, false, nil
}

// Step consumes one prover response: a 3-evaluation sum-check message
// while rounds remain in the current layer, the line restriction
// otherwise. After the last layer's line check it reports done.
func (v *VerifierSession) Step(response core.Msg) (core.Msg, bool, error) {
	if v.outs == nil || v.layer == len(v.proto.C.Layers) {
		return core.Msg{}, false, errors.New("gkr: not mid-conversation")
	}
	if len(response.Ints) != 0 {
		return core.Msg{}, false, reject("unexpected integer payload")
	}
	if err := v.canonical(response.Elems); err != nil {
		return core.Msg{}, false, err
	}
	k := v.proto.C.VarCount(v.layer + 1)
	if v.round < 2*k {
		return v.sumcheckRound(response.Elems, k)
	}
	return v.lineCheck(response.Elems, k)
}

// sumcheckRound checks g(0) + g(1) against the running claim and moves
// the claim to g(r) at the round's pre-sampled coin r.
func (v *VerifierSession) sumcheckRound(evals []field.Elem, k int) (core.Msg, bool, error) {
	f := v.proto.F
	if len(evals) != 3 {
		return core.Msg{}, false, reject("sum-check message has %d evaluations, want 3", len(evals))
	}
	if got := f.Add(evals[0], evals[1]); got != v.claim {
		return core.Msg{}, false, reject("layer %d round %d sum %d ≠ claim %d", v.layer, v.round, got, v.claim)
	}
	var r field.Elem
	if v.round < k {
		r = v.xs[v.layer][v.round]
	} else {
		r = v.ys[v.layer][v.round-k]
	}
	next, err := v.ev3.Eval(evals, r)
	if err != nil {
		return core.Msg{}, false, err
	}
	v.claim = next
	v.round++
	return core.Msg{Elems: []field.Elem{r}}, false, nil
}

// lineCheck consumes the line restriction q(0..k) for the current layer,
// performs the layer's final check and reveals t*. After the last layer
// it checks the claim against the streamed input evaluation instead.
func (v *VerifierSession) lineCheck(evals []field.Elem, k int) (core.Msg, bool, error) {
	f := v.proto.F
	if len(evals) != k+1 {
		return core.Msg{}, false, reject("line has %d evaluations, want %d", len(evals), k+1)
	}
	q0, q1 := evals[0], evals[1]
	addV, mulV := v.proto.Wiring.Eval(f, v.layer, v.zs[v.layer], v.xs[v.layer], v.ys[v.layer])
	if want := f.Add(f.Mul(addV, f.Add(q0, q1)), f.Mul(mulV, f.Mul(q0, q1))); want != v.claim {
		return core.Msg{}, false, reject("layer %d final check %d ≠ %d", v.layer, want, v.claim)
	}
	evk, err := poly.NewConsecutiveEvaluator(f, k+1)
	if err != nil {
		return core.Msg{}, false, err
	}
	t := v.ts[v.layer]
	if v.claim, err = evk.Eval(evals, t); err != nil {
		return core.Msg{}, false, err
	}
	v.layer++
	v.round = 0
	if v.layer < len(v.proto.C.Layers) {
		return core.Msg{Elems: []field.Elem{t}}, false, nil
	}
	if in := v.in.Value(); v.claim != in {
		return core.Msg{}, false, reject("input claim %d ≠ streamed evaluation %d", v.claim, in)
	}
	v.done = true
	return core.Msg{}, true, nil
}

// canonical rejects a message element outside [0, p).
func (v *VerifierSession) canonical(evals []field.Elem) error {
	for _, e := range evals {
		if uint64(e) >= v.proto.F.Modulus() {
			return reject("non-canonical element")
		}
	}
	return nil
}

// Outputs returns the full verified output vector (e.g. the n² entries
// of a MATMUL product). The initial claim binds the whole vector via its
// extension at z₀, so acceptance covers every entry.
func (v *VerifierSession) Outputs() ([]field.Elem, error) {
	if !v.done {
		return nil, errors.New("gkr: outputs unavailable before acceptance")
	}
	return append([]field.Elem(nil), v.outs...), nil
}

// SpaceWords reports the verifier's working memory in words as a
// formula: the pre-sampled coins that travel — z₀'s |z₀| coordinates
// and, per layer i, the 2k_{i+1} sum-check coins and t* — plus three
// running values (the claim, the output and the streamed input
// evaluation): |z₀| + Σ(2k_{i+1} + 1) + 3. The derived points z₁..z_L
// and the input point's χ tables are not counted. This is the
// Θ(log² u) footprint the paper's §3 Remarks contrast with the native F2
// protocol's Θ(log u).
func (v *VerifierSession) SpaceWords() int {
	n := len(v.zs[0]) + 3
	for i := range v.xs {
		n += 2*len(v.xs[i]) + 1
	}
	return n
}
