// Split-universe sessions: the distributed form of the §3 aggregation
// protocols, built on the partial-prover seam in internal/sumcheck.
//
// A dataset too large for one prover is split into S contiguous,
// aligned slices of its (padded) universe. Each slice owner runs a
// PartialProver session: its opening and round messages are exact
// partials of the single-prover messages. SplitProver is the one
// prover session in front of the S owners: it sums their partials
// elementwise, and once the head rounds have folded each slice to a
// single entry per table (its "leaves") it collects the leaves and
// serves the remaining rounds itself from a tail prover. The verifier
// speaks the unchanged protocol, and the transcript is bit-identical to
// the single-prover run. core.Run, wire.Mux and engine.RecordProof
// drive a SplitProver like any other prover session.
//
// Message shapes on the SplitProver↔owner leg (SplitOwner):
//
//	opening:  Ints=[version]  Elems=[claim, g_1(0..deg)]
//	round j:  Elems=[g_j(0..deg)]      (head rounds 2..h)
//	leaves:   Elems=[leaf_1..leaf_T]   (after the h-th fold; T = arity)
//
// The version rides the opening so the SplitProver can pin one dataset
// version across all S slices (ErrSplitVersion on skew) and bind
// Fiat–Shamir proofs to it.
package core

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/sumcheck"
)

// ErrSplitVersion reports slice openings that disagree on the dataset
// version: an ingest scatter was racing the query, and the SplitProver
// must reopen rather than fold partials of different dataset states.
var ErrSplitVersion = errors.New("core: split slices disagree on dataset version")

// PartialProver is the slice owner's session for one aggregation query:
// a ProverSession whose messages are this slice's exact partials. It is
// driven by a SplitProver, not by a verifier — after its final fold it
// emits its leaves instead of a round message.
type PartialProver struct {
	scProver
	cfg     sumcheck.Config // global configuration; Params span the full universe
	lo, hi  uint64
	tables  []sumcheck.Counts // slice subtables, borrowed read-only
	version uint64
	headD   int
}

func newPartialProver(cfg sumcheck.Config, live func() sumcheck.LivePairs, lo, hi, version uint64, tables ...sumcheck.Counts) (*PartialProver, error) {
	sp, err := sumcheck.SliceParams(cfg.Params, lo, hi)
	if err != nil {
		return nil, err
	}
	for t, tab := range tables {
		if uint64(tab.Len()) != sp.U {
			return nil, fmt.Errorf("core: slice table %d has %d entries, want %d", t, tab.Len(), sp.U)
		}
	}
	return &PartialProver{scProver: scProver{live: live}, cfg: cfg, lo: lo, hi: hi, tables: tables, version: version, headD: sp.D}, nil
}

// NewPartialProverFromTable returns the slice-owner session for the
// universe slice [lo, hi) of p.Params. table holds the slice's hi−lo
// entries (global index i stored at i−lo) in chunks, as
// NewProverFromTable takes a whole table, borrowed read-only; version is
// the dataset version the opening reports to the SplitProver. live
// supplies table's live-pair scan, as a memo shared by every prover of
// the table; nil scans table when the prover opens.
func (p *Fk) NewPartialProverFromTable(table sumcheck.Counts, live func() sumcheck.LivePairs, lo, hi, version uint64) (*PartialProver, error) {
	return newPartialProver(p.scConfig(), live, lo, hi, version, table)
}

// NewPartialProverFromTable returns the slice-owner session for a
// range-sum query over the global range [qL, qR] (validated against the
// full universe). table holds the slice's counts as Fk's takes them. The
// slice builds its part of the indicator itself — the intersection of
// the query range with [lo, hi), in table's chunks — so no second table
// travels.
func (p *RangeSum) NewPartialProverFromTable(table sumcheck.Counts, lo, hi, version, qL, qR uint64) (*PartialProver, error) {
	if err := checkRange(qL, qR, p.Params.U); err != nil {
		return nil, err
	}
	return newPartialProver(p.scConfig(), nil, lo, hi, version, table, rangeIndicator(table, lo, qL, qR))
}

// Open computes this slice's partial claim and round-1 partial,
// prefixed by the dataset version for the SplitProver's skew check.
func (pr *PartialProver) Open() (Msg, error) {
	sc, err := sumcheck.NewPartialProver(pr.cfg, pr.lo, pr.hi, livePairs(&pr.scProver, pr.cfg, pr.tables), pr.tables...)
	if err != nil {
		return Msg{}, err
	}
	m, err := pr.start(pr.cfg, sc)
	if err != nil {
		return Msg{}, err
	}
	m.Ints = []uint64{pr.version}
	return m, nil
}

// Step folds the broadcast challenge and produces the next partial
// message — or, after the final head fold, this slice's leaves.
func (pr *PartialProver) Step(challenge Msg) (Msg, error) {
	if err := pr.fold(challenge); err != nil {
		return Msg{}, err
	}
	if pr.sc.Round() != pr.headD {
		return pr.next()
	}
	leaves, err := pr.sc.Leaves()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: leaves}, nil
}

// ---------------------------------------------------------------------

// SplitOwner is one slice owner's leg of a split conversation, in the
// calls a wire.PartialConv makes: Msg reads the owner's next message
// (its opening first), Challenge sends it a broadcast challenge, and
// Finish ends the leg.
type SplitOwner interface {
	Msg() (Msg, error)
	Challenge(Msg) error
	Finish() error
}

// splitOpens bounds the openings of one split conversation: the first,
// then one reopen per version skew.
const splitOpens = 4

// SplitProver is the one prover session of a split dataset: it folds S
// slice owners' partial messages into the transcript a single prover
// over the whole universe sends. Open pins one dataset version across
// the owners' openings and sums them; each head round broadcasts the
// challenge and sums the owners' partials; the leaf round collects the
// owners' leaves, finishes the owners and seeds a tail prover, which
// serves the last log₂ S rounds alone. Field addition is exact and the
// tail resumes from the exact global folded table, so every message is
// bit-identical to the single-prover run. Close finishes the owners
// however the conversation ends.
type SplitProver struct {
	cfg    sumcheck.Config
	open   func() ([]SplitOwner, error)
	owners []SplitOwner // slice order; nil once finished
	hd     int          // head rounds the owners serve (= slice depth)

	opening Msg
	version uint64
	round   int // messages emitted
	tail    *sumcheck.Prover
}

// NewSplitProver returns the session for a universe of size ≥ u
// (original, unpadded) split across the owners open returns, in slice
// order: S equal aligned slices, S a power of two and each slice of
// width ≥ 2. It calls open once, synchronously — the caller's place in
// its frame order is when the owners snapshot — and Open calls it again
// only to reopen after a version skew. workers bounds the tail prover's
// fan-out (its tables have S entries, so it rarely matters).
func NewSplitProver(f field.Field, u uint64, comb sumcheck.Combiner, workers int, open func() ([]SplitOwner, error)) (*SplitProver, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	cfg := sumcheck.Config{Field: f, Params: params, Combiner: comb, Workers: workers}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	owners, err := open()
	if err != nil {
		return nil, err
	}
	sp := &SplitProver{cfg: cfg, open: open, owners: owners}
	if s := uint64(len(owners)); s == 0 || params.U%s != 0 || params.U/s < 2 {
		_ = sp.Close() // the refusal is what the caller must hear
		return nil, fmt.Errorf("core: cannot split universe %d into %d slices", params.U, s)
	}
	sp.hd = params.D - bits.TrailingZeros(uint(len(owners)))
	return sp, nil
}

// Version returns the dataset version Open pinned across the owners.
func (sp *SplitProver) Version() uint64 { return sp.version }

// Open emits the owners' summed opening under one pinned version. On a
// version skew — another connection's batch landed between two owners'
// snapshots — it finishes the owners and reopens them, splitOpens
// openings in all: under concurrent ingest "the" version is whatever
// one consistent cut says. Once it has succeeded, Open returns the same
// opening again (the proof path opens to learn the version, then
// records).
func (sp *SplitProver) Open() (Msg, error) {
	if sp.round > 0 {
		return sp.opening, nil
	}
	for opens := 1; ; opens++ {
		m, err := sp.pin()
		if err == nil {
			sp.opening, sp.round = m, 1
			return m, nil
		}
		if !errors.Is(err, ErrSplitVersion) || opens == splitOpens {
			return Msg{}, err
		}
		_ = sp.Close() // a leg that fails to finish fails the reopen too
		if sp.owners, err = sp.open(); err != nil {
			return Msg{}, err
		}
	}
}

// pin reads the owners' openings and sums them if they share a version.
func (sp *SplitProver) pin() (Msg, error) {
	parts, err := sp.receive(1, 1+sp.cfg.MessageLen())
	if err != nil {
		return Msg{}, err
	}
	sp.version = parts[0].Ints[0]
	for k, part := range parts {
		if part.Ints[0] != sp.version {
			return Msg{}, fmt.Errorf("%w: slice 0 at %d, slice %d at %d", ErrSplitVersion, sp.version, k, part.Ints[0])
		}
	}
	return sp.sum(parts), nil
}

// Step folds the verifier's challenge and emits the next message. The
// round count picks who answers it: in the head rounds the owners,
// whose partials are summed; in the leaf round the owners' leaves,
// which finish the owners and seed the tail prover; after it the tail
// prover alone, with no owner round trip.
func (sp *SplitProver) Step(challenge Msg) (Msg, error) {
	if sp.round == 0 || sp.round == sp.cfg.Params.D {
		return Msg{}, fmt.Errorf("core: split prover has no round to play after %d messages", sp.round)
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: sum-check challenge has %d elems, want 1", len(challenge.Elems))
	}
	if sp.round < sp.hd {
		parts, err := sp.broadcast(challenge, sp.cfg.MessageLen())
		if err != nil {
			return Msg{}, err
		}
		sp.round++
		return sp.sum(parts), nil
	}
	var err error
	if sp.round == sp.hd {
		err = sp.seed(challenge)
	} else {
		err = sp.tail.Fold(challenge.Elems[0])
	}
	if err != nil {
		return Msg{}, err
	}
	g, err := sp.tail.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	sp.round++
	return Msg{Elems: g}, nil
}

// seed broadcasts the last head challenge, collects the owners' leaves,
// finishes the owners, and starts the tail prover on the global folded
// table the leaves make in slice order.
func (sp *SplitProver) seed(challenge Msg) error {
	parts, err := sp.broadcast(challenge, sp.cfg.Combiner.Arity())
	if err != nil {
		return err
	}
	_ = sp.Close() // the leaves are in: a leg's finish cannot change the tail
	leaves := make([][]field.Elem, len(parts))
	for k, part := range parts {
		leaves[k] = part.Elems
	}
	sp.tail, err = sumcheck.NewTailProver(sp.cfg, leaves)
	return err
}

// broadcast sends the challenge to every owner before it waits on any
// reply, so the owners fold side by side and a round costs one round
// trip rather than S, then receives one reply of elems elements from
// each. An owner's error passes up bare, so a wire.ServerError still
// reaches the client in the owner engine's own words.
func (sp *SplitProver) broadcast(challenge Msg, elems int) ([]Msg, error) {
	for _, o := range sp.owners {
		if err := o.Challenge(challenge); err != nil {
			return nil, err
		}
	}
	return sp.receive(0, elems)
}

// receive reads one message from every owner, in slice order, and
// refuses one that does not carry ints ints and elems canonical field
// elements — naming the slice, rather than folding its lie into a
// message only the client's verifier would object to.
func (sp *SplitProver) receive(ints, elems int) ([]Msg, error) {
	if sp.owners == nil {
		return nil, errors.New("core: split prover's owners are finished")
	}
	parts := make([]Msg, len(sp.owners))
	for k, o := range sp.owners {
		m, err := o.Msg()
		if err != nil {
			return nil, err
		}
		if len(m.Ints) != ints || len(m.Elems) != elems {
			return nil, fmt.Errorf("core: slice %d sent %d ints and %d elems, want %d and %d",
				k, len(m.Ints), len(m.Elems), ints, elems)
		}
		for _, e := range m.Elems {
			if uint64(e) >= sp.cfg.Field.Modulus() {
				return nil, fmt.Errorf("core: slice %d sent a non-canonical element", k)
			}
		}
		parts[k] = m
	}
	return parts, nil
}

// sum adds the owners' messages elementwise in slice order.
func (sp *SplitProver) sum(parts []Msg) Msg {
	out := make([]field.Elem, len(parts[0].Elems))
	for _, part := range parts {
		sp.cfg.Field.AddSlices(out, out, part.Elems)
	}
	return Msg{Elems: out}
}

// Close finishes every owner leg still open; calling it again does
// nothing more.
func (sp *SplitProver) Close() error {
	errs := make([]error, len(sp.owners))
	for k, o := range sp.owners {
		errs[k] = o.Finish()
	}
	sp.owners = nil
	return errors.Join(errs...)
}
