package gkr

// Session adapters: the GKR conversation expressed as the universal
// core.ProverSession / core.VerifierSession state machines, so the whole
// stack built for the fixed query kinds — core.Run, the engine's
// snapshot provers, the mux wire, tampering tests — drives GKR without
// modification.
//
// Message flow (prover → verifier unless noted):
//
//	opening:   the claimed output vector
//	challenge: z₀ (verifier reveals the random output point)
//	then per layer, 2k sum-check exchanges of (3 evals) ⇄ (challenge r),
//	the line restriction q(0..k), and the verifier's t*; the prover
//	derives the next layer's point z = x* + t*(y*−x*) from the revealed
//	challenges itself — the Appendix-A property that z depends only on
//	the verifier's coins. After the final layer's line the verifier
//	checks the claim against its streamed input evaluation and stops.

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
)

// NewProtocolFor builds the protocol for a named circuit family over a
// dataset universe of size u with the given prover worker count. The
// family's input convention follows the engine's padding: the dense
// element table padded to a power of two, of which the circuit reads the
// first InputSize entries.
func NewProtocolFor(f field.Field, spec circuit.Spec, u uint64, workers int) (*Protocol, error) {
	c, w, err := circuit.BuildSpec(spec, u)
	if err != nil {
		return nil, err
	}
	p, err := New(f, c, w)
	if err != nil {
		return nil, err
	}
	p.Workers = workers
	return p, nil
}

// NewVerifierFor builds the verifier session for a named circuit family
// over universe u. (Workers are a prover-side knob; the verifier streams
// in O(log² u) space and stays serial.)
func NewVerifierFor(f field.Field, spec circuit.Spec, u uint64, rng field.RNG) (*VerifierSession, error) {
	p, err := NewProtocolFor(f, spec, u, 0)
	if err != nil {
		return nil, err
	}
	return p.NewVerifierSession(rng)
}

// PadInput derives the circuit input from a dense element table: the
// first InputSize entries, zero-padded if the table is shorter. The
// returned slice may alias elems; the prover copies it on construction.
func (p *Protocol) PadInput(elems []field.Elem) []field.Elem {
	n := p.C.InputSize
	if len(elems) >= n {
		return elems[:n]
	}
	in := make([]field.Elem, n)
	copy(in, elems)
	return in
}

// ---------------------------------------------------------------------
// Prover session

type proverPhase uint8

const (
	phaseAwaitZ   proverPhase = iota // waiting for the revealed layer point
	phaseSumcheck                    // waiting for a sum-check challenge
	phaseAwaitT                      // line sent, waiting for t*
)

// ProverSession adapts Prover to core.ProverSession. It records the
// revealed sum-check challenges so it can evaluate the line restriction
// and derive each next layer's point without extra messages.
type ProverSession struct {
	pr    *Prover
	phase proverPhase
	xs    []field.Elem // bound x challenges of the current layer
	ys    []field.Elem
}

// NewProverSession evaluates the circuit on the input and returns the
// conversation-ready prover.
func (p *Protocol) NewProverSession(input []field.Elem) (*ProverSession, error) {
	pr, err := p.NewProver(input)
	if err != nil {
		return nil, err
	}
	return &ProverSession{pr: pr}, nil
}

// Open produces the opening message: the claimed output vector.
func (s *ProverSession) Open() (core.Msg, error) {
	return core.Msg{Elems: s.pr.Outputs()}, nil
}

// Step consumes a verifier challenge and produces the next response.
func (s *ProverSession) Step(challenge core.Msg) (core.Msg, error) {
	if len(challenge.Ints) != 0 {
		return core.Msg{}, errors.New("gkr: unexpected integer payload in challenge")
	}
	f := s.pr.proto.F
	switch s.phase {
	case phaseAwaitZ:
		// The first challenge reveals z₀.
		return s.startLayer(challenge.Elems)
	case phaseSumcheck:
		if len(challenge.Elems) != 1 {
			return core.Msg{}, fmt.Errorf("gkr: sum-check challenge has %d elements, want 1", len(challenge.Elems))
		}
		r := challenge.Elems[0]
		if len(s.xs) < s.pr.k {
			s.xs = append(s.xs, r)
		} else {
			s.ys = append(s.ys, r)
		}
		if err := s.pr.Bind(r); err != nil {
			return core.Msg{}, err
		}
		if s.pr.round < 2*s.pr.k {
			msg, err := s.pr.SumcheckMsg()
			return core.Msg{Elems: msg}, err
		}
		line, err := s.pr.LinePoly(s.xs, s.ys)
		if err != nil {
			return core.Msg{}, err
		}
		s.phase = phaseAwaitT
		return core.Msg{Elems: line}, nil
	case phaseAwaitT:
		if len(challenge.Elems) != 1 {
			return core.Msg{}, fmt.Errorf("gkr: line challenge has %d elements, want 1", len(challenge.Elems))
		}
		t := challenge.Elems[0]
		// z_{i+1} = x* + t*(y* − x*), derived from revealed challenges.
		z := make([]field.Elem, len(s.xs))
		for j := range z {
			z[j] = f.Add(s.xs[j], f.Mul(t, f.Sub(s.ys[j], s.xs[j])))
		}
		if err := s.pr.FinishLayer(); err != nil {
			return core.Msg{}, err
		}
		return s.startLayer(z)
	}
	return core.Msg{}, errors.New("gkr: invalid prover phase")
}

func (s *ProverSession) startLayer(z []field.Elem) (core.Msg, error) {
	if err := s.pr.StartLayer(s.pr.layer, z); err != nil {
		return core.Msg{}, err
	}
	s.xs, s.ys = s.xs[:0], s.ys[:0]
	s.phase = phaseSumcheck
	msg, err := s.pr.SumcheckMsg()
	return core.Msg{Elems: msg}, err
}

// ---------------------------------------------------------------------
// Verifier session

// VerifierSession adapts Verifier to core.VerifierSession. Observe must
// see the input stream before the conversation, like every verifier in
// this repository.
type VerifierSession struct {
	v    *Verifier
	outs []field.Elem
}

// NewVerifierSession pre-samples all randomness and returns a verifier
// ready to observe the input stream.
func (p *Protocol) NewVerifierSession(rng field.RNG) (*VerifierSession, error) {
	v, err := p.NewVerifier(rng)
	if err != nil {
		return nil, err
	}
	return &VerifierSession{v: v}, nil
}

// Observe folds one stream update into the input evaluation. Updates at
// indices the circuit does not read (at or beyond InputSize — possible
// for MATMUL with a dimension smaller than the universe) are outside the
// statement being proved and are skipped.
func (s *VerifierSession) Observe(up stream.Update) error {
	if up.Index >= uint64(s.v.proto.C.InputSize) {
		return nil
	}
	return s.v.Observe(up.Index, up.Delta)
}

// Challenges returns every message this verifier will send, in order:
// z₀, then per layer its 2k sum-check coins (x half, then y half) and —
// except after the last layer, where the verifier stops — its t*. All
// of it was sampled by NewVerifierSession; nothing depends on the
// stream or on a prover message.
func (s *VerifierSession) Challenges() []core.Msg {
	v := s.v
	out := []core.Msg{{Elems: append([]field.Elem(nil), v.zs[0]...)}}
	for i := range v.ts {
		for _, half := range [][]field.Elem{v.xs[i], v.ys[i]} {
			for _, r := range half {
				out = append(out, core.Msg{Elems: []field.Elem{r}})
			}
		}
		if i < len(v.ts)-1 {
			out = append(out, core.Msg{Elems: []field.Elem{v.ts[i]}})
		}
	}
	return out
}

// Begin consumes the claimed outputs and reveals z₀.
func (s *VerifierSession) Begin(opening core.Msg) (core.Msg, bool, error) {
	if len(opening.Ints) != 0 {
		return core.Msg{}, false, fmt.Errorf("%w: unexpected integer payload in opening", core.ErrRejected)
	}
	if err := s.v.ReceiveOutputs(opening.Elems); err != nil {
		return core.Msg{}, false, wrapReject(err)
	}
	s.outs = append([]field.Elem(nil), opening.Elems...)
	return core.Msg{Elems: append([]field.Elem(nil), s.v.zs[0]...)}, false, nil
}

// Step consumes one prover response: a 3-evaluation sum-check message
// while rounds remain in the current layer, the line restriction
// otherwise. After the last layer's line check it reports done.
func (s *VerifierSession) Step(response core.Msg) (core.Msg, bool, error) {
	if s.v.Done() {
		return core.Msg{}, false, errors.New("gkr: conversation already complete")
	}
	if len(response.Ints) != 0 {
		return core.Msg{}, false, fmt.Errorf("%w: unexpected integer payload", core.ErrRejected)
	}
	if s.v.SumcheckRoundsLeft() > 0 {
		r, err := s.v.ReceiveSumcheck(response.Elems)
		if err != nil {
			return core.Msg{}, false, wrapReject(err)
		}
		return core.Msg{Elems: []field.Elem{r}}, false, nil
	}
	t, err := s.v.ReceiveLine(response.Elems)
	if err != nil {
		return core.Msg{}, false, wrapReject(err)
	}
	if s.v.Done() {
		return core.Msg{}, true, nil
	}
	return core.Msg{Elems: []field.Elem{t}}, false, nil
}

// wrapReject maps this package's rejection sentinel onto the repository's
// uniform core.ErrRejected so transports and clients need only one check.
func wrapReject(err error) error {
	if errors.Is(err, ErrRejected) {
		return fmt.Errorf("%w: %w", core.ErrRejected, err)
	}
	return err
}

// Output returns the first output gate's verified value.
func (s *VerifierSession) Output() (field.Elem, error) { return s.v.Output() }

// Outputs returns the full verified output vector (e.g. the n² entries
// of a MATMUL product). The initial claim binds the whole vector via its
// extension at z₀, so acceptance covers every entry.
func (s *VerifierSession) Outputs() ([]field.Elem, error) {
	if !s.v.Done() {
		return nil, errors.New("gkr: outputs unavailable before acceptance")
	}
	return append([]field.Elem(nil), s.outs...), nil
}

// SpaceWords reports the verifier's working memory in words.
func (s *VerifierSession) SpaceWords() int { return s.v.SpaceWords() }
