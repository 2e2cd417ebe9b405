package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// The two protocol families of this package share one session per side:
//
//   - every §3 aggregation protocol (Fk, INNER PRODUCT, RANGE-SUM, each
//     MultiFk slot, the §6.2 residual phase, and the split-universe
//     slice owners) is one sum-check with a protocol-specific combiner:
//     scVerifier and scProver hold that conversation, and a protocol
//     supplies only its sumcheck.Config, its tables, and the verifier's
//     final-check anchor C(f(r));
//   - the §4.2/§6.1 claimed-anchor reductions (PREDECESSOR, SUCCESSOR,
//     k-LARGEST) are a claimed index followed by SUB-VECTOR over the range
//     that claim fixes: anchorVerifier and anchorProver hold that wrapper,
//     and a protocol supplies only the range.

// scVerifier is the verifier half of a sum-check conversation over the
// secret point r, sampled before the stream.
type scVerifier struct {
	pt    *lde.Point
	sc    *sumcheck.Verifier
	claim field.Elem
	done  bool
}

// Challenges returns every message this verifier will send, in order:
// the first d−1 coordinates of r (r_d never travels). They are fixed by
// the randomness the constructor drew — no observed state, no prover
// input — so a Fiat–Shamir prover can be driven with them directly.
func (v *scVerifier) Challenges() []Msg { return revealOneByOne(v.pt.R) }

// begin consumes the opening [claim, g_1(0..deg)]; anchor is the value
// C(f(r)) the final round must reach.
func (v *scVerifier) begin(cfg sumcheck.Config, opening Msg, anchor field.Elem) (Msg, bool, error) {
	if v.sc != nil {
		return Msg{}, false, fmt.Errorf("core: sum-check verifier already started")
	}
	if len(opening.Ints) != 0 || len(opening.Elems) != 1+cfg.MessageLen() {
		return Msg{}, false, reject("sum-check opening has %d ints and %d elems, want 0 and %d",
			len(opening.Ints), len(opening.Elems), 1+cfg.MessageLen())
	}
	sc, err := sumcheck.NewVerifier(cfg, v.pt.R, opening.Elems[0], anchor)
	if err != nil {
		return Msg{}, false, err
	}
	v.sc, v.claim = sc, opening.Elems[0]
	return v.absorb(opening.Elems[1:])
}

// Step consumes one round message g_j(0..deg).
func (v *scVerifier) Step(response Msg) (Msg, bool, error) {
	if v.sc == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: sum-check verifier not mid-conversation")
	}
	if len(response.Ints) != 0 {
		return Msg{}, false, reject("sum-check round message carries unexpected ints")
	}
	return v.absorb(response.Elems)
}

func (v *scVerifier) absorb(evals []field.Elem) (Msg, bool, error) {
	if err := v.sc.Receive(evals); err != nil {
		return Msg{}, false, reject("%v", err)
	}
	if v.sc.Done() {
		v.done = true
		return Msg{}, true, nil
	}
	ch, err := v.sc.Challenge()
	if err != nil {
		return Msg{}, false, err
	}
	return Msg{Elems: []field.Elem{ch}}, false, nil
}

// Result returns the accepted claim (as a field element; the paper
// assumes p is chosen large enough that the true answer is below p).
func (v *scVerifier) Result() (field.Elem, error) {
	if !v.done {
		return 0, fmt.Errorf("core: sum-check result unavailable before acceptance")
	}
	return v.claim, nil
}

// scProver is the prover half of a sum-check conversation.
type scProver struct {
	sc *sumcheck.Prover
}

// open builds the sum-check prover over tables, which it borrows
// read-only, and emits [claim, g_1].
func (pr *scProver) open(cfg sumcheck.Config, tables ...[]field.Elem) (Msg, error) {
	sc, err := sumcheck.NewProver(cfg, tables...)
	if err != nil {
		return Msg{}, err
	}
	return pr.start(cfg, sc)
}

// start adopts sc, a freshly built sum-check prover under cfg, and emits
// [claim, g_1]. The claim is Σ_{c<ℓ} g_1(c), the sum the verifier checks
// g_1 against.
func (pr *scProver) start(cfg sumcheck.Config, sc *sumcheck.Prover) (Msg, error) {
	pr.sc = sc
	g1, err := sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	claim, err := poly.SumPrefix(cfg.Field, g1, cfg.Params.Ell)
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: append([]field.Elem{claim}, g1...)}, nil
}

// Step folds the revealed challenge r_j and produces g_{j+1}.
func (pr *scProver) Step(challenge Msg) (Msg, error) {
	if err := pr.fold(challenge); err != nil {
		return Msg{}, err
	}
	return pr.next()
}

// fold checks a one-element challenge and folds it.
func (pr *scProver) fold(challenge Msg) error {
	if pr.sc == nil {
		return fmt.Errorf("core: sum-check prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return fmt.Errorf("core: sum-check challenge has %d elems, want 1", len(challenge.Elems))
	}
	return pr.sc.Fold(challenge.Elems[0])
}

// next emits the current round's polynomial.
func (pr *scProver) next() (Msg, error) {
	g, err := pr.sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: g}, nil
}

// ---------------------------------------------------------------------

// anchorVerifier is the verifier half of a claimed-anchor reduction. The
// opening's Ints[0] is the claimed anchor; the rest of the opening is the
// SUB-VECTOR opening over the range the claim fixes.
type anchorVerifier struct {
	sv      *SubVectorVerifier
	claimed uint64
	started bool
}

// Observe folds one stream element (interpreted as an insertion of the
// element's index; callers pass δ=1 updates).
func (v *anchorVerifier) Observe(up stream.Update) error { return v.sv.Observe(up) }

// Challenges is the embedded sub-vector conversation's schedule.
func (v *anchorVerifier) Challenges() []Msg { return v.sv.Challenges() }

// Step delegates to the embedded sub-vector conversation.
func (v *anchorVerifier) Step(response Msg) (Msg, bool, error) { return v.sv.Step(response) }

// begin parses the claimed anchor and opens SUB-VECTOR over the range
// span fixes for it. span also returns k, the exact number of nonzero
// entries that range must hold, the smallest at the anchor (k = 0 for a
// NoneSentinel claim: an empty range report).
func (v *anchorVerifier) begin(name string, opening Msg, span func(claimed uint64) (lo, hi uint64, k int, err error)) (Msg, bool, error) {
	if v.started {
		return Msg{}, false, fmt.Errorf("core: %s verifier already started", name)
	}
	v.started = true
	if len(opening.Ints) < 1 {
		return Msg{}, false, reject("%s opening missing claim", name)
	}
	v.claimed = opening.Ints[0]
	rest := Msg{Ints: opening.Ints[1:], Elems: opening.Elems}
	lo, hi, k, err := span(v.claimed)
	if err != nil {
		return Msg{}, false, err
	}
	if len(rest.Ints) != k || (k > 0 && rest.Ints[0] != v.claimed) {
		return Msg{}, false, reject("%s sub-vector must report exactly %d entries, the first at the claim; got %d",
			name, k, len(rest.Ints))
	}
	if err := v.sv.SetQuery(lo, hi); err != nil {
		return Msg{}, false, err
	}
	return v.sv.Begin(rest)
}

// found returns the verified anchor; found is false for a NoneSentinel
// claim.
func (v *anchorVerifier) found() (uint64, bool, error) {
	if _, err := v.sv.Result(); err != nil {
		return 0, false, err
	}
	if v.claimed == NoneSentinel {
		return 0, false, nil
	}
	return v.claimed, true, nil
}

// anchorProver is the prover half of a claimed-anchor reduction.
type anchorProver struct {
	sv *SubVectorProver
}

// open opens SUB-VECTOR over [lo, hi] and prefixes the claimed anchor.
func (pr *anchorProver) open(claim, lo, hi uint64) (Msg, error) {
	if err := pr.sv.SetQuery(lo, hi); err != nil {
		return Msg{}, err
	}
	inner, err := pr.sv.Open()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Ints: append([]uint64{claim}, inner.Ints...), Elems: inner.Elems}, nil
}

// Step delegates to the embedded sub-vector conversation.
func (pr *anchorProver) Step(challenge Msg) (Msg, error) { return pr.sv.Step(challenge) }

// setPoint stores a PREDECESSOR or SUCCESSOR query point after checking
// it lies in the universe [0, u).
func setPoint(dst *uint64, q, u uint64) error {
	if q >= u {
		return fmt.Errorf("core: query %d outside universe", q)
	}
	*dst = q
	return nil
}

// checkRange validates a range query [qL, qR] over a universe of size u.
func checkRange(qL, qR, u uint64) error {
	if qL > qR || qR >= u {
		return fmt.Errorf("core: bad range [%d,%d] for universe %d", qL, qR, u)
	}
	return nil
}
