package engine

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/stream"
)

// The typed refusals of NewTicket and Ticket.Spend.
var (
	// ErrTicketSpent: a ticket's randomness serves one conversation.
	ErrTicketSpent = errors.New("engine: ticket already spent")
	// ErrTicketFamily: the ticket was not drawn with the kind's summary.
	ErrTicketFamily = errors.New("engine: ticket lacks the kind's summary")
	// ErrTicketCircuit: CIRCUIT's GKR input check depends on the query, so
	// its verifier is built with the query (NewStreamVerifier).
	ErrTicketCircuit = errors.New("engine: CIRCUIT has no ticket; build its verifier with NewStreamVerifier")
)

// Ticket is a client's single-use verifier state: the union of the
// summaries (core.Summary) its kinds adopt, drawn tree → point →
// augmented tree, fed one pass of the stream, and spent on one query
// picked when it is asked. NewStreamVerifier is a one-kind ticket spent
// at once. A Ticket is not safe for concurrent use.
type Ticket struct {
	f     field.Field
	u     uint64
	fams  core.Families
	sum   core.Summary
	spent bool
}

// NewTicket draws from rng the summaries any of kinds needs over [0, u).
func NewTicket(f field.Field, u uint64, kinds []QueryKind, rng field.RNG) (*Ticket, error) {
	t := &Ticket{f: f, u: u}
	for _, kind := range kinds {
		row, err := ticketRow(kind)
		if err != nil {
			return nil, err
		}
		t.fams |= row.families
	}
	tp, err := hashtree.ParamsForUniverse(u)
	if err != nil {
		return nil, err
	}
	t.sum = core.DrawSummary(f, tp.D, t.fams, rng)
	return t, nil
}

// ticketRow is lookup for the kinds a ticket serves.
func ticketRow(kind QueryKind) (kindRow, error) {
	row, err := lookup(kind)
	if err == nil && row.families == 0 {
		err = fmt.Errorf("%w (kind %d)", ErrTicketCircuit, kind)
	}
	return row, err
}

// Observe folds one stream update into every summary the ticket holds.
func (t *Ticket) Observe(up stream.Update) error { return t.sum.Observe(up) }

// Spend returns kind's verifier over the observed summaries with its
// query set. A refused query leaves the ticket unspent.
func (t *Ticket) Spend(kind QueryKind, params QueryParams) (StreamVerifier, error) {
	if t.spent {
		return nil, ErrTicketSpent
	}
	row, err := ticketRow(kind)
	if err != nil {
		return nil, err
	}
	if row.families&^t.fams != 0 {
		return nil, fmt.Errorf("%w (kind %d)", ErrTicketFamily, kind)
	}
	in, err := row.open(t.f, t.u, params)
	if err != nil {
		return nil, err
	}
	v, err := in.verifier(t.sum, nil)
	t.spent = err == nil
	return v, err
}

// Answer is a verified result, one shape for every kind: a kind fills
// the fields its result has and leaves the rest zero.
type Answer struct {
	Elem    field.Elem         // SELF-JOIN SIZE, Fk, F0
	Int     int64              // RANGE-SUM (centered), INDEX, Fmax; HEAVY HITTERS' threshold
	At      uint64             // DICTIONARY's value; PREDECESSOR's, SUCCESSOR's and k-LARGEST's index
	Found   bool               // whether At holds one
	Entries []core.Entry       // RANGE QUERY
	Hitters []core.HeavyHitter // HEAVY HITTERS
	Outputs []field.Elem       // CIRCUIT
}

// AnswerOf reads kind's verified result off v, its accepting verifier.
func AnswerOf(kind QueryKind, v core.VerifierSession) (Answer, error) {
	row, err := lookup(kind)
	if err != nil {
		return Answer{}, err
	}
	return row.answer(v)
}
