package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/stream"
)

// Fmax is the §6.2 protocol for the maximum frequency. It composes two
// verified sub-protocols:
//
//  1. the prover claims a lower bound lb by exhibiting a witness index w,
//     verified with the INDEX (SUB-VECTOR) protocol: a_w = lb;
//  2. a frequency-based protocol with h(i) = 1 for i > lb (0 otherwise)
//     verifies Σ_i h(a_i) = 0 — no item exceeds lb.
//
// Together they prove Fmax = lb exactly. Requires a non-empty insert-only
// stream (Fmax ≥ 1).
type Fmax struct {
	F      field.Field
	SV     *SubVector
	FB     *FrequencyBased
	Params hashtree.Params
}

// NewFmax returns the protocol for universes of size ≥ u. phi = 0 selects
// the default heavy-hitter fraction u^{-1/2} for the second phase.
func NewFmax(f field.Field, u uint64, phi float64) (*Fmax, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	// The statistic depends on lb, claimed at Open time; a placeholder is
	// installed until then.
	fb, err := NewFrequencyBased(f, u, phi, func(int64) field.Elem { return 0 })
	if err != nil {
		return nil, err
	}
	return &Fmax{F: f, SV: sv, FB: fb, Params: sv.Params}, nil
}

// hAbove returns the statistic h(i) = [i > lb].
func hAbove(lb int64) func(int64) field.Elem {
	return func(c int64) field.Elem {
		if c > lb {
			return 1
		}
		return 0
	}
}

// FmaxVerifier verifies the claimed maximum frequency.
type FmaxVerifier struct {
	proto *Fmax
	sv    *SubVectorVerifier
	fb    *FrequencyBasedVerifier

	witness uint64
	lb      int64
	inFB    bool
	fbOpen  bool
	done    bool
}

// NewVerifier samples randomness for both sub-protocols.
func (p *Fmax) NewVerifier(rng field.RNG) *FmaxVerifier {
	return &FmaxVerifier{proto: p, sv: p.SV.NewVerifier(rng), fb: p.FB.NewVerifier(rng)}
}

// Observe folds one stream update into both sub-verifiers' summaries.
func (v *FmaxVerifier) Observe(up stream.Update) error {
	if err := v.sv.Observe(up); err != nil {
		return err
	}
	return v.fb.Observe(up)
}

// Challenges returns every message this verifier will send, in order:
// the witness sub-vector's schedule, the empty message that asks for the
// heavy-hitter opening, then the frequency-based schedule.
func (v *FmaxVerifier) Challenges() []Msg {
	return append(append(v.sv.Challenges(), Msg{}), v.fb.Challenges()...)
}

// Begin consumes the opening: Ints[0] = witness index w, then the
// embedded INDEX sub-vector opening over [w, w].
func (v *FmaxVerifier) Begin(opening Msg) (Msg, bool, error) {
	if len(opening.Ints) < 1 {
		return Msg{}, false, reject("fmax opening missing witness")
	}
	v.witness = opening.Ints[0]
	if v.witness >= v.proto.Params.U {
		return Msg{}, false, reject("witness %d outside universe", v.witness)
	}
	rest := Msg{Ints: opening.Ints[1:], Elems: opening.Elems}
	// The witness position must be the one claimed entry.
	if len(rest.Ints) != 1 || rest.Ints[0] != v.witness {
		return Msg{}, false, reject("fmax witness sub-vector must contain exactly the witness")
	}
	if err := v.sv.SetQuery(v.witness, v.witness); err != nil {
		return Msg{}, false, err
	}
	ch, done, err := v.sv.Begin(rest)
	if err != nil {
		return Msg{}, false, err
	}
	if done {
		return v.toFB()
	}
	return ch, false, nil
}

// Step advances the active sub-protocol.
func (v *FmaxVerifier) Step(response Msg) (Msg, bool, error) {
	if v.done {
		return Msg{}, false, fmt.Errorf("core: fmax verifier already finished")
	}
	if !v.inFB {
		ch, done, err := v.sv.Step(response)
		if err != nil {
			return Msg{}, false, err
		}
		if done {
			return v.toFB()
		}
		return ch, false, nil
	}
	if !v.fbOpen {
		v.fbOpen = true
		ch, done, err := v.fb.Begin(response)
		return v.finishFB(ch, done, err)
	}
	ch, done, err := v.fb.Step(response)
	return v.finishFB(ch, done, err)
}

// toFB extracts the verified lower bound and switches to the
// frequency-based phase: the empty challenge asks the prover for the
// heavy-hitter opening.
func (v *FmaxVerifier) toFB() (Msg, bool, error) {
	entries, err := v.sv.Result()
	if err != nil {
		return Msg{}, false, err
	}
	if len(entries) != 1 || entries[0].Value < 1 {
		return Msg{}, false, reject("fmax witness has no positive frequency")
	}
	v.lb = entries[0].Value
	v.fb.SetH(hAbove(v.lb))
	v.inFB = true
	return Msg{}, false, nil
}

func (v *FmaxVerifier) finishFB(ch Msg, done bool, err error) (Msg, bool, error) {
	if err != nil {
		return Msg{}, false, err
	}
	if !done {
		return ch, false, nil
	}
	count, err := v.fb.Result()
	if err != nil {
		return Msg{}, false, err
	}
	if count != 0 {
		return Msg{}, false, reject("%d items exceed the claimed maximum %d", count, v.lb)
	}
	v.done = true
	return Msg{}, true, nil
}

// Result returns the verified maximum frequency.
func (v *FmaxVerifier) Result() (int64, error) {
	if !v.done {
		return 0, fmt.Errorf("core: fmax result unavailable before acceptance")
	}
	return v.lb, nil
}

// FmaxProver answers maximum-frequency queries.
type FmaxProver struct {
	proto *Fmax
	sv    *SubVectorProver
	fb    *FrequencyBasedProver

	svSteps int // sub-vector challenges still expected
	fbOpen  bool
}

// NewProver returns a prover ready to observe the stream.
func (p *Fmax) NewProver() *FmaxProver {
	return &FmaxProver{proto: p, sv: p.SV.NewProver(), fb: p.FB.NewProver()}
}

// NewProverFromCounts returns a prover over a shared dense count table
// with the given stream total Σδ (dataset-engine state); both composed
// sub-provers borrow the same table and no stream is replayed.
func (p *Fmax) NewProverFromCounts(counts []int64, total int64) (*FmaxProver, error) {
	sv, err := p.SV.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	fb, err := p.FB.NewProverFromCounts(counts, total)
	if err != nil {
		return nil, err
	}
	return &FmaxProver{proto: p, sv: sv, fb: fb}, nil
}

// Observe records one stream update for both sub-provers.
func (pr *FmaxProver) Observe(up stream.Update) error {
	if err := pr.sv.Observe(up); err != nil {
		return err
	}
	return pr.fb.Observe(up)
}

// Open finds the maximum frequency and its witness, then opens the INDEX
// sub-conversation.
func (pr *FmaxProver) Open() (Msg, error) {
	// Ascending scan: the witness is the smallest index achieving the
	// maximum frequency, as before.
	var witness uint64
	var lb int64
	for i, c := range pr.sv.counts {
		if c > lb {
			witness, lb = uint64(i), c
		}
	}
	if lb < 1 {
		return Msg{}, fmt.Errorf("core: fmax requires a non-empty stream with positive frequencies")
	}
	pr.fb.SetH(hAbove(lb))
	if err := pr.sv.SetQuery(witness, witness); err != nil {
		return Msg{}, err
	}
	inner, err := pr.sv.Open()
	if err != nil {
		return Msg{}, err
	}
	pr.svSteps = pr.proto.Params.D - 1
	return Msg{Ints: append([]uint64{witness}, inner.Ints...), Elems: inner.Elems}, nil
}

// Step routes challenges: first the sub-vector rounds, then (on the empty
// transition) the frequency-based phase.
func (pr *FmaxProver) Step(challenge Msg) (Msg, error) {
	if pr.svSteps > 0 {
		pr.svSteps--
		return pr.sv.Step(challenge)
	}
	if !pr.fbOpen {
		if challenge.Words() != 0 {
			return Msg{}, fmt.Errorf("core: expected empty transition challenge, got %d words", challenge.Words())
		}
		pr.fbOpen = true
		return pr.fb.Open()
	}
	return pr.fb.Step(challenge)
}

// SetWorkers sets the prover's parallel fan-out of both composed
// sub-protocols; see Fk.Workers. Call before NewProver.
func (p *Fmax) SetWorkers(n int) {
	p.SV.Workers = n
	p.FB.Workers = n
}
