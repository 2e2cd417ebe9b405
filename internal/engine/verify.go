package engine

import (
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

// This file is the verifier-construction side of the non-interactive
// replay layer. NewStreamVerifier builds the verifier session for any
// query kind — the object a client holds, streams its updates into, and
// drives interactively or against a posted proof (fs.Proof). The same
// constructor, left unobserved, gives the proof generator the kind's
// challenge schedule: every verifier draws all of its randomness at
// construction, so what it will say is known before it has seen
// anything, and RecordProof records the prover against that schedule
// with no verifier in the loop.

// StreamVerifier is a verifier session that also observes stream
// updates — what a client keeps while uploading, and later drives
// either interactively or against a posted proof.
type StreamVerifier interface {
	core.VerifierSession
	Observe(stream.Update) error
	// Challenges returns every message the verifier will send, in order,
	// empty phase-transition messages included: a conversation it accepts
	// has exactly len(Challenges())+1 prover messages. The schedule is a
	// function of the constructor's rng alone — not of observed updates,
	// query parameters set later, or prover messages.
	Challenges() []core.Msg
}

// NewStreamVerifier constructs the verifier session for one query kind
// with its randomness drawn from rng and its query parameters set, but
// with no observed state: the caller streams its own copy of the
// updates into it. Pass a transcript-derived rng (fs.Binding.RNG) to
// verify a posted proof offline, or a secret one for an interactive
// conversation.
func NewStreamVerifier(f field.Field, u uint64, kind QueryKind, params QueryParams, rng field.RNG) (StreamVerifier, error) {
	in, err := openKind(f, u, kind, params, 0)
	if err != nil {
		return nil, err
	}
	return in.verifier(rng)
}

// FSQuery returns the canonical fs.Query descriptor for a query.
func FSQuery(kind QueryKind, params QueryParams) fs.Query {
	return fs.Query{
		Kind: uint8(kind), A: params.A, B: params.B,
		K: params.K, Phi: params.Phi, Circuit: params.Circuit,
	}
}

// ProofBinding is the Fiat–Shamir binding a proof of this query over
// this snapshot commits to. An offline verifier reconstructs the same
// binding from values it knows independently (plus the server-asserted
// version) to derive the challenge randomness.
func (s *Snapshot) ProofBinding(kind QueryKind, params QueryParams) fs.Binding {
	return fs.Binding{
		Modulus:  s.ds.f.Modulus(),
		Universe: s.ds.origU,
		Dataset:  s.ds.name,
		Version:  s.st.version,
		Query:    FSQuery(kind, params),
	}
}

// RecordProof records the Fiat–Shamir proof binding b commits to: the
// prover, driven by the challenge schedule of an unobserved verifier
// built on the binding's RNG (O(log u) to construct). The verifier comes
// first because it validates the query — a refused query never pays for
// a prover — and checks nothing else: the client's verifier, which saw
// the stream, is the check, exactly as in an interactive conversation.
// Every proof generator (a snapshot, a wire server, a router folding a
// split dataset) is this function over its own prover.
func RecordProof(f field.Field, b fs.Binding, prover func() (core.ProverSession, error)) (*fs.Proof, error) {
	q := b.Query
	v, err := NewStreamVerifier(f, b.Universe, QueryKind(q.Kind),
		QueryParams{A: q.A, B: q.B, K: q.K, Phi: q.Phi, Circuit: q.Circuit}, b.RNG())
	if err != nil {
		return nil, err
	}
	p, err := prover()
	if err != nil {
		return nil, err
	}
	return b.Record(p, v.Challenges())
}

// GenerateProof records the Fiat–Shamir proof of one query over the
// snapshot, with the prover from the maintained tables. Generation is
// deterministic — same snapshot version ⇒ bit-identical proof. A
// universe slice is refused (NewProver): split proofs are assembled by
// the aggregator.
func (s *Snapshot) GenerateProof(kind QueryKind, params QueryParams) (*fs.Proof, error) {
	return RecordProof(s.ds.f, s.ProofBinding(kind, params), func() (core.ProverSession, error) {
		return s.NewProver(kind, params)
	})
}
