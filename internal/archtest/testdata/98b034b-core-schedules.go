// The challenge schedules of the kinds that no longer post proofs, as
// 98b034b^ held them in internal/core (fmax.go, freqfunc.go,
// heavyhitters.go, subvector.go).

package core

import "repro/internal/field"

// Challenges returns every message this verifier will send, in order:
// the witness sub-vector's schedule, the empty message that asks for the
// heavy-hitter opening, then the frequency-based schedule.
func (v *FmaxVerifier) Challenges() []Msg {
	return append(append(v.sv.Challenges(), Msg{}), v.fb.Challenges()...)
}

// Challenges returns every message this verifier will send, in order:
// the heavy-hitter reveals, the empty message that asks for the
// sum-check opening, then the first d−1 coordinates of the LDE point.
func (v *FrequencyBasedVerifier) Challenges() []Msg {
	return append(append(v.hh.Challenges(), Msg{}), v.res.Challenges()...)
}

// Challenges returns every message this verifier will send, in order:
// the reveals (r_l, q_l) for levels 1..d−1. Fixed at NewVerifier,
// independent of the stream, φ and the prover.
func (v *HeavyHittersVerifier) Challenges() []Msg {
	out := make([]Msg, 0, v.proto.Params.D)
	for l := 0; l < v.proto.Params.D-1; l++ {
		out = append(out, Msg{Elems: []field.Elem{v.h.R[l], v.h.Q[l]}})
	}
	return out
}

// Challenges returns every message this verifier will send, in order:
// the level randomness r_1..r_{d-1} (r_d hashes the root and never
// travels). Fixed at NewVerifier, independent of the stream, the query
// and the prover.
func (v *SubVectorVerifier) Challenges() []Msg { return revealOneByOne(v.h.R) }
