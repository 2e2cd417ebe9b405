package engine

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/gkr"
	"repro/internal/stream"
)

// This file is the verifier-construction side of the non-interactive
// replay layer. NewStreamVerifier builds the verifier session for any
// query kind — the object a client holds, streams its updates into, and
// drives interactively or against a posted proof (fs.Proof). The same
// constructor, left unobserved, gives the proof generator the kind's
// challenge schedule: every verifier draws all of its randomness at
// construction, so what it will say is known before it has seen
// anything, and GenerateProof records the prover against that schedule
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
	switch kind {
	case QuerySelfJoinSize, QueryFk:
		k := 2
		if kind == QueryFk {
			k = int(params.K)
		}
		proto, err := core.NewFk(f, u, k)
		if err != nil {
			return nil, err
		}
		return proto.NewVerifier(rng), nil
	case QueryRangeSum:
		proto, err := core.NewRangeSum(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A, params.B)
	case QueryRangeQuery:
		proto, err := core.NewRangeQuery(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A, params.B)
	case QueryIndex:
		proto, err := core.NewIndex(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A)
	case QueryDictionary:
		proto, err := core.NewDictionary(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A)
	case QueryPredecessor:
		proto, err := core.NewPredecessor(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A)
	case QuerySuccessor:
		proto, err := core.NewSuccessor(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.A)
	case QueryKLargest:
		proto, err := core.NewKLargest(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(int(params.K))
	case QueryHeavyHitters:
		proto, err := core.NewHeavyHitters(f, u)
		if err != nil {
			return nil, err
		}
		v := proto.NewVerifier(rng)
		return v, v.SetQuery(params.Phi)
	case QueryF0:
		proto, err := core.NewF0(f, u, params.Phi)
		if err != nil {
			return nil, err
		}
		return proto.NewVerifier(rng), nil
	case QueryFmax:
		proto, err := core.NewFmax(f, u, params.Phi)
		if err != nil {
			return nil, err
		}
		return proto.NewVerifier(rng), nil
	case QueryCircuit:
		return gkr.NewVerifierFor(f, circuit.Spec{Name: params.Circuit, Arg: params.A}, u, rng)
	default:
		return nil, fmt.Errorf("engine: unknown query kind %d", kind)
	}
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

// GenerateProof records the Fiat–Shamir proof of one query over the
// snapshot: the prover from the maintained tables, driven by the
// challenge schedule of an unobserved verifier built on the binding's
// RNG (O(log u) to construct; it also validates the query parameters).
// Generation is deterministic — same snapshot version ⇒ bit-identical
// proof — and checks nothing: the client's verifier, which saw the
// stream, is the check, exactly as in an interactive conversation. A
// universe slice is refused (NewProver): split proofs are assembled by
// the aggregator.
func (s *Snapshot) GenerateProof(kind QueryKind, params QueryParams) (*fs.Proof, error) {
	b := s.ProofBinding(kind, params)
	v, err := NewStreamVerifier(s.ds.f, s.ds.origU, kind, params, b.RNG())
	if err != nil {
		return nil, err
	}
	p, err := s.NewProver(kind, params)
	if err != nil {
		return nil, err
	}
	return b.Record(p, v.Challenges())
}
