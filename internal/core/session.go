// Package core implements the paper's protocols — the primary
// contribution of Cormode, Thaler & Yi (VLDB 2011):
//
//   - aggregation queries (§3): SELF-JOIN SIZE (F2), FREQUENCY MOMENTS
//     (Fk), INNER PRODUCT, RANGE-SUM — via sum-check over low-degree
//     extensions;
//   - reporting queries (§4): SUB-VECTOR and its specializations RANGE
//     QUERY, INDEX, DICTIONARY, PREDECESSOR, SUCCESSOR — via the algebraic
//     hash tree;
//   - extensions (§6): HEAVY HITTERS, k-LARGEST, and the frequency-based
//     functions F0, Fmax and inverse-distribution point queries.
//
// Every protocol is a pair of session state machines. The verifier
// observes the stream of (index, delta) updates in O(log u) space; the
// prover holds the data, and every prover is built from the aggregated
// frequency table (NewProverFromTable) or its hash-tree skeleton
// (NewProverFromSkeleton), borrowed read-only. After the stream (and after the query parameters are fixed),
// the conversation proceeds in rounds:
//
//	opening := prover.Open()
//	challenge, done := verifier.Begin(opening)
//	for !done {
//	    response := prover.Step(challenge)
//	    challenge, done = verifier.Step(response)
//	}
//
// Run drives this loop locally and accounts for rounds and communication;
// package internal/wire drives the same interfaces over TCP.
package core

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/field"
)

// ErrRejected is (wrapped and) returned whenever the verifier refuses a
// proof: per Definition 1 the verifier outputs ⊥. Distinguish it from
// transport or usage errors with errors.Is.
var ErrRejected = errors.New("core: proof rejected")

// reject builds an ErrRejected with context.
func reject(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrRejected, fmt.Sprintf(format, args...))
}

// Msg is one protocol message. The meaning of the two sections is fixed
// by each protocol; word accounting (the paper's communication measure)
// charges one word per entry of either slice.
type Msg struct {
	Ints  []uint64     // indices, counts, claimed positions
	Elems []field.Elem // field elements: claims, hashes, polynomial evaluations
}

// Words returns the message size in words.
func (m Msg) Words() int { return len(m.Ints) + len(m.Elems) }

// ProverSession is the prover side of one query's conversation.
type ProverSession interface {
	// Open produces the opening message: the claimed answer together with
	// any unprompted first-round payload.
	Open() (Msg, error)
	// Step consumes a verifier challenge and produces the next response.
	Step(challenge Msg) (Msg, error)
}

// VerifierSession is the verifier side of one query's conversation.
type VerifierSession interface {
	// Begin consumes the opening message. It returns the first challenge,
	// or done=true if the conversation needs no further rounds.
	Begin(opening Msg) (challenge Msg, done bool, err error)
	// Step consumes a prover response and returns the next challenge or
	// done=true after the final check passed.
	Step(response Msg) (challenge Msg, done bool, err error)
}

// Stats aggregates the cost accounting of one protocol run, in the units
// used throughout the paper's §5: words (field elements / integers) and
// message rounds.
type Stats struct {
	Rounds          int // prover messages (opening included)
	WordsToVerifier int
	WordsToProver   int
}

// CommWords is the total two-way communication t.
func (s Stats) CommWords() int { return s.WordsToVerifier + s.WordsToProver }

// CommBytes converts words to bytes (8-byte words, as in the experiments).
func (s Stats) CommBytes() int { return 8 * s.CommWords() }

// Run drives a complete local conversation between p and v, returning the
// accounting stats. A nil error means the verifier accepted.
func Run(p ProverSession, v VerifierSession) (Stats, error) {
	var st Stats
	opening, err := p.Open()
	if err != nil {
		return st, err
	}
	st.Rounds++
	st.WordsToVerifier += opening.Words()
	challenge, done, err := v.Begin(opening)
	if err != nil {
		return st, err
	}
	for !done {
		st.WordsToProver += challenge.Words()
		response, err := p.Step(challenge)
		if err != nil {
			return st, err
		}
		st.Rounds++
		st.WordsToVerifier += response.Words()
		challenge, done, err = v.Step(response)
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// Tamperer mutates prover messages in flight; it models the dishonest
// provers of the paper's §5 robustness experiments ("we also tried
// modifying the prover's messages..."). Round 0 is the opening.
type Tamperer func(round int, m Msg) Msg

// TamperedProver wraps a ProverSession, applying T to every outgoing
// message.
type TamperedProver struct {
	P ProverSession
	T Tamperer

	round int
}

// Open applies the tamperer to the opening message.
func (tp *TamperedProver) Open() (Msg, error) {
	m, err := tp.P.Open()
	if err != nil {
		return m, err
	}
	tp.round = 0
	return tp.T(0, cloneMsg(m)), nil
}

// Step applies the tamperer to the round response.
func (tp *TamperedProver) Step(challenge Msg) (Msg, error) {
	m, err := tp.P.Step(challenge)
	if err != nil {
		return m, err
	}
	tp.round++
	return tp.T(tp.round, cloneMsg(m)), nil
}

// Close closes the wrapped session when it is an io.Closer, so a
// tampered split conversation still finishes its owner legs.
func (tp *TamperedProver) Close() error {
	if c, ok := tp.P.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

func cloneMsg(m Msg) Msg {
	return Msg{
		Ints:  append([]uint64(nil), m.Ints...),
		Elems: append([]field.Elem(nil), m.Elems...),
	}
}
