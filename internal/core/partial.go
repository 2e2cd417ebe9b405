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
//	opening:  Ints=[version]  Elems=[claim, g_1(0..deg)]          (no pairs shipped)
//	          Ints=[version, w_1..w_n]
//	          Elems=[claim, g_1(0..deg), P_1, …, P_T]             (n live pairs shipped)
//	round j:  Elems=[g_j(0..deg)]      (head rounds 2..h)
//	leaves:   Elems=[leaf_1..leaf_T]   (after the h-th fold; T = arity)
//
// The version rides the opening so the SplitProver can pin one dataset
// version across all S slices (ErrSplitVersion on skew) and bind
// Fiat–Shamir proofs to it. A slice whose live-pair scan holds its
// tables sparse also ships its live pairs in the opening, when the
// opening still fits the bound its owner was given (one wire frame):
// w_1 < … < w_n are their pair indices in the whole universe, and P_t is
// table t's values packed two by two, 2n elements, as the slice's
// sum-check prover holds them. A sparse slice with no live pair lists
// its first pair, (0, 0). When every owner shipped its pairs and there
// are at most sumcheck.MaxSparseLive of the universe, the SplitProver
// finishes the owners after the openings and proves every later round
// alone from their union — the whole-universe prover, with no head
// round — so the conversation costs one owner round trip. Otherwise the
// head rounds run as above, and the shipped pairs go unread.
package core

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
	cfg      sumcheck.Config // global configuration; Params span the full universe
	lo, hi   uint64
	tables   []sumcheck.Counts // slice subtables, borrowed read-only
	version  uint64
	headD    int
	maxWords int // the most ints and elements an opening that ships pairs may hold
}

func newPartialProver(cfg sumcheck.Config, live func() sumcheck.LivePairs, lo, hi, version uint64, maxWords, workers int, tables ...sumcheck.Counts) (*PartialProver, error) {
	sp, err := sumcheck.SliceParams(cfg.Params, lo, hi)
	if err != nil {
		return nil, err
	}
	for t, tab := range tables {
		if uint64(tab.Len()) != sp.U {
			return nil, fmt.Errorf("core: slice table %d has %d entries, want %d", t, tab.Len(), sp.U)
		}
	}
	return &PartialProver{scProver: scProver{live: live, workers: workers}, cfg: cfg, lo: lo, hi: hi, tables: tables, version: version, headD: sp.D, maxWords: maxWords}, nil
}

// NewPartialProverFromTable returns the slice-owner session for the
// universe slice [lo, hi) of p.Params. table holds the slice's hi−lo
// entries (global index i stored at i−lo) in chunks, as
// NewProverFromTable takes a whole table, borrowed read-only; version is
// the dataset version the opening reports to the SplitProver. live
// supplies table's live-pair scan, as a memo shared by every prover of
// the table, and with it the scan's opening: the live pairs the opening
// ships and its first message are the memo's after the version's first
// sparse prover; nil scans table when the prover opens. maxWords bounds
// an opening that ships the slice's live pairs, in ints and elements: a
// sparse slice whose opening would hold more ships none. workers is the
// prover's fan-out, as NewProverFromTable takes it.
func (p *Fk) NewPartialProverFromTable(table sumcheck.Counts, live func() sumcheck.LivePairs, lo, hi, version uint64, maxWords, workers int) (*PartialProver, error) {
	return newPartialProver(p.scConfig(), live, lo, hi, version, maxWords, workers, table)
}

// NewPartialProverFromTable returns the slice-owner session for a
// range-sum query over the global range [qL, qR] (validated against the
// full universe). table holds the slice's counts as Fk's takes them. The
// slice builds its part of the indicator itself — the intersection of
// the query range with [lo, hi), in table's chunks — so no second table
// travels. maxWords and workers are as Fk's takes them.
func (p *RangeSum) NewPartialProverFromTable(table sumcheck.Counts, lo, hi, version, qL, qR uint64, maxWords, workers int) (*PartialProver, error) {
	if err := checkRange(qL, qR, p.Params.U); err != nil {
		return nil, err
	}
	return newPartialProver(p.scConfig(), nil, lo, hi, version, maxWords, workers, table, rangeIndicator(table, lo, qL, qR))
}

// Open computes this slice's partial claim and round-1 partial,
// prefixed by the dataset version for the SplitProver's skew check.
// While the slice's sum-check prover holds its tables sparse, the
// opening also ships the live pairs that prover borrowed from its
// scan's opening, copied into the message, within maxWords (see the
// message shapes above).
func (pr *PartialProver) Open() (Msg, error) {
	cfg := pr.cfg
	cfg.Workers = pr.workers
	sc, err := sumcheck.NewPartialProver(cfg, pr.lo, pr.hi, livePairs(&pr.scProver, cfg, pr.tables), pr.tables...)
	if err != nil {
		return Msg{}, err
	}
	m, err := pr.start(cfg, sc)
	if err != nil {
		return Msg{}, err
	}
	m.Ints = []uint64{pr.version}
	idx, pairs, ok := sc.Pairs()
	if !ok {
		return m, nil
	}
	if len(idx) == 0 { // list pair 0 as (0, 0), so that the shipping shows
		idx, pairs = []uint32{0}, make([][]field.Elem, len(pairs))
		for t := range pairs {
			pairs[t] = make([]field.Elem, 2)
		}
	}
	if len(m.Elems)+1+len(idx)*(1+2*len(pairs)) > pr.maxWords {
		return m, nil
	}
	first := pr.lo / 2
	m.Ints = slices.Grow(m.Ints, len(idx))
	for _, w := range idx {
		m.Ints = append(m.Ints, first+uint64(w))
	}
	m.Elems = slices.Grow(m.Elems, 2*len(idx)*len(pairs))
	for _, tab := range pairs {
		m.Elems = append(m.Elems, tab...)
	}
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

// SliceError is a SplitProver's refusal of an owner's message that does
// not have the shape its round asks for — or, in an opening, ships
// pairs that are not a slice's live pairs — rather than folding the lie
// into a message only the client's verifier would object to.
type SliceError struct {
	Slice  int    // the slice whose owner sent the message
	Reason string // what is wrong with it
}

func (e *SliceError) Error() string { return fmt.Sprintf("core: slice %d %s", e.Slice, e.Reason) }

// SplitProver is the one prover session of a split dataset: it folds S
// slice owners' partial messages into the transcript a single prover
// over the whole universe sends. Open pins one dataset version across
// the owners' openings and sums them; each head round broadcasts the
// challenge and sums the owners' partials; the leaf round collects the
// owners' leaves, finishes the owners and seeds a tail prover, which
// serves the last log₂ S rounds alone. When every owner's opening
// shipped its live pairs, and there are few enough, Open instead
// finishes the owners at once and seeds the whole-universe prover from
// their union, which serves every later round alone. Field addition is
// exact, and both provers resume from the exact global table, so every
// message is bit-identical to the single-prover run. Close finishes the
// owners however the conversation ends.
type SplitProver struct {
	cfg    sumcheck.Config
	open   func() ([]SplitOwner, error)
	owners []SplitOwner // slice order; nil once finished
	hd     int          // head rounds the owners serve: the slice depth, or 0 once collapsed

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
// only to reopen after a version skew. The tail prover is serial.
func NewSplitProver(f field.Field, u uint64, comb sumcheck.Combiner, open func() ([]SplitOwner, error)) (*SplitProver, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	cfg := sumcheck.Config{Field: f, Params: params, Combiner: comb}
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

// pin reads the owners' openings and sums their partials if they share
// a version, then collapses the conversation if it can.
func (sp *SplitProver) pin() (Msg, error) {
	parts, err := sp.receive(sp.checkOpening)
	if err != nil {
		return Msg{}, err
	}
	sp.version = parts[0].Ints[0]
	for k, part := range parts {
		if part.Ints[0] != sp.version {
			return Msg{}, fmt.Errorf("%w: slice 0 at %d, slice %d at %d", ErrSplitVersion, sp.version, k, part.Ints[0])
		}
	}
	return sp.sum(parts, 1+sp.cfg.MessageLen()), sp.collapse(parts)
}

// checkOpening checks slice k's opening: the version, the partial, and the
// live pairs it ships, if any — n pair indices in increasing order
// inside the slice, and 2n values per table.
func (sp *SplitProver) checkOpening(k int, m Msg) error {
	n := len(m.Ints) - 1
	arity, partial := sp.cfg.Combiner.Arity(), 1+sp.cfg.MessageLen()
	if n < 0 || len(m.Elems) != partial+2*arity*n {
		return &SliceError{k, fmt.Sprintf("sent an opening of %d ints and %d elems, want 1+n and %d+%d·n", len(m.Ints), len(m.Elems), partial, 2*arity)}
	}
	half := sp.cfg.Params.U / uint64(len(sp.owners)) / 2 // pairs per slice
	lo, hi := uint64(k)*half, uint64(k+1)*half
	for j, w := range m.Ints[1:] {
		switch {
		case w < lo || w >= hi:
			return &SliceError{k, fmt.Sprintf("shipped pair %d, outside its pairs [%d, %d)", w, lo, hi)}
		case j > 0 && w <= m.Ints[j]:
			return &SliceError{k, fmt.Sprintf("shipped pair %d after pair %d", w, m.Ints[j])}
		}
	}
	return nil
}

// collapse finishes the owners and seeds the whole-universe prover from
// the union of the live pairs their openings shipped, when every owner
// shipped and the union is within sumcheck.MaxSparseLive of the
// universe. Slice order is pair order, so the union is the openings'
// pairs concatenated. The prover then serves every round after the
// opening (hd = 0); the opening itself is the summed partials.
func (sp *SplitProver) collapse(parts []Msg) error {
	n := 0
	for _, part := range parts {
		if len(part.Ints) == 1 {
			return nil
		}
		n += len(part.Ints) - 1
	}
	if n > sumcheck.MaxSparseLive(2, int(sp.cfg.Params.U)) {
		return nil
	}
	_ = sp.Close() // the pairs are in: a leg's finish cannot change the prover
	idx := make([]uint32, 0, n)
	pairs := make([][]field.Elem, sp.cfg.Combiner.Arity())
	for t := range pairs {
		pairs[t] = make([]field.Elem, 0, 2*n)
	}
	for _, part := range parts {
		for _, w := range part.Ints[1:] {
			idx = append(idx, uint32(w))
		}
		packed := part.Elems[1+sp.cfg.MessageLen():]
		m := 2 * (len(part.Ints) - 1)
		for t := range pairs {
			pairs[t] = append(pairs[t], packed[t*m:(t+1)*m]...)
		}
	}
	tail, err := sumcheck.NewPairsProver(sp.cfg, idx, pairs)
	if err != nil {
		return err
	}
	sp.tail, sp.hd = tail, 0
	return nil
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
		return sp.sum(parts, sp.cfg.MessageLen()), nil
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
// table the leaves make in slice order: S entries per table, every pair
// listed.
func (sp *SplitProver) seed(challenge Msg) error {
	arity := sp.cfg.Combiner.Arity()
	parts, err := sp.broadcast(challenge, arity)
	if err != nil {
		return err
	}
	_ = sp.Close() // the leaves are in: a leg's finish cannot change the tail
	s := len(parts)
	pairs := make([][]field.Elem, arity)
	for t := range pairs {
		pairs[t] = make([]field.Elem, s)
		for k, part := range parts {
			pairs[t][k] = part.Elems[t]
		}
	}
	idx := make([]uint32, s/2)
	for w := range idx {
		idx[w] = uint32(w)
	}
	cfg := sp.cfg
	cfg.Params = lde.Params{Ell: 2, D: bits.TrailingZeros(uint(s)), U: uint64(s)}
	sp.tail, err = sumcheck.NewPairsProver(cfg, idx, pairs)
	return err
}

// broadcast sends the challenge to every owner before it waits on any
// reply, so the owners fold side by side and a round costs one round
// trip rather than S, then receives one reply of elems elements, and no
// int, from each. An owner's error passes up bare, so a wire.ServerError
// still reaches the client in the owner engine's own words.
func (sp *SplitProver) broadcast(challenge Msg, elems int) ([]Msg, error) {
	for _, o := range sp.owners {
		if err := o.Challenge(challenge); err != nil {
			return nil, err
		}
	}
	return sp.receive(func(k int, m Msg) error {
		if len(m.Ints) != 0 || len(m.Elems) != elems {
			return &SliceError{k, fmt.Sprintf("sent %d ints and %d elems, want 0 and %d", len(m.Ints), len(m.Elems), elems)}
		}
		return nil
	})
}

// receive reads one message from every owner, in slice order, and
// refuses with a SliceError one that shape refuses or that holds a
// non-canonical field element.
func (sp *SplitProver) receive(shape func(k int, m Msg) error) ([]Msg, error) {
	if sp.owners == nil {
		return nil, errors.New("core: split prover's owners are finished")
	}
	parts := make([]Msg, len(sp.owners))
	for k, o := range sp.owners {
		m, err := o.Msg()
		if err != nil {
			return nil, err
		}
		if err := shape(k, m); err != nil {
			return nil, err
		}
		for _, e := range m.Elems {
			if uint64(e) >= sp.cfg.Field.Modulus() {
				return nil, &SliceError{k, "sent a non-canonical element"}
			}
		}
		parts[k] = m
	}
	return parts, nil
}

// sum adds the first n elements of the owners' messages elementwise in
// slice order.
func (sp *SplitProver) sum(parts []Msg, n int) Msg {
	out := make([]field.Elem, n)
	for _, part := range parts {
		sp.cfg.Field.AddSlices(out, out, part.Elems[:n])
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
