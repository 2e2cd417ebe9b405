package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

// This file is the verifier-construction side of the non-interactive
// replay layer. NewStreamVerifier builds the verifier session for any
// query kind — the object a client holds, streams its updates into, and
// drives interactively or, for SELF-JOIN SIZE alone, against a posted
// proof (fs.Proof): a posted proof's randomness is the public binding's,
// so the server that records it can forge it, and no other kind is
// posted.

// ErrNotPosted refuses a posted proof of any kind but SELF-JOIN SIZE.
var ErrNotPosted = errors.New("engine: no posted proof for this kind")

// CheckPosted is the one posted-proof admission check, run by
// RecordProof and by every caller before it spends anything on a posted
// proof (a client's request, a server's snapshot, a split's owners).
func CheckPosted(kind QueryKind) error {
	if kind != QuerySelfJoinSize {
		return fmt.Errorf("%w (kind %d): only SELF-JOIN SIZE is posted; ask it interactively", ErrNotPosted, kind)
	}
	return nil
}

// StreamVerifier is a verifier session that also observes stream
// updates — what a client keeps while uploading, and later drives
// either interactively or against a posted proof.
type StreamVerifier interface {
	core.VerifierSession
	Observe(stream.Update) error
}

// NewStreamVerifier constructs the verifier session for one query kind
// with its randomness drawn from rng and its query parameters set, but
// with no observed state: the caller streams its own copy of the
// updates into it. Pass a transcript-derived rng (fs.Binding.RNG) to
// verify a posted proof offline, or a secret one for an interactive
// conversation. It is a one-kind ticket spent at once; CIRCUIT, which
// has no ticket, draws its GKR verifier from rng directly.
func NewStreamVerifier(f field.Field, u uint64, kind QueryKind, params QueryParams, rng field.RNG) (StreamVerifier, error) {
	t, err := NewTicket(f, u, []QueryKind{kind}, rng)
	if errors.Is(err, ErrTicketCircuit) {
		in, err := openKind(f, u, kind, params, 0)
		if err != nil {
			return nil, err
		}
		return in.verifier(core.Summary{}, rng)
	}
	if err != nil {
		return nil, err
	}
	return t.Spend(kind, params)
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
// prover, driven by the challenge schedule of an unobserved SELF-JOIN
// SIZE verifier built on the binding's RNG (O(log u) to construct). Any
// other kind is refused before anything is built. Nothing is checked:
// the client's verifier, which saw the stream, is the check. Every
// proof generator (a snapshot, a wire server, a router folding a split
// dataset) is this function over its own prover.
func RecordProof(f field.Field, b fs.Binding, prover func() (core.ProverSession, error)) (*fs.Proof, error) {
	if err := CheckPosted(QueryKind(b.Query.Kind)); err != nil {
		return nil, err
	}
	v, err := NewStreamVerifier(f, b.Universe, QuerySelfJoinSize, QueryParams{}, b.RNG())
	if err != nil {
		return nil, err
	}
	p, err := prover()
	if err != nil {
		return nil, err
	}
	return b.Record(p, v.(*core.FkVerifier).Challenges())
}

// GenerateProof records the Fiat–Shamir proof of one query over the
// snapshot, with the prover from the maintained tables: SELF-JOIN SIZE
// only (RecordProof). Generation is deterministic — same snapshot
// version ⇒ bit-identical proof. A universe slice is refused
// (NewProver): split proofs are recorded over a core.SplitProver.
func (s *Snapshot) GenerateProof(kind QueryKind, params QueryParams) (*fs.Proof, error) {
	return RecordProof(s.ds.f, s.ProofBinding(kind, params), func() (core.ProverSession, error) {
		return s.NewProver(kind, params)
	})
}
