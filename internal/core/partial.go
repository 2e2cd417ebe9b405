// Split-universe sessions: the distributed form of the §3 aggregation
// protocols, built on the partial-prover seam in internal/sumcheck.
//
// A dataset too large for one prover is split into S contiguous,
// aligned slices of its (padded) universe. Each slice owner runs a
// PartialProver session: its opening and round messages are exact
// partials of the single-prover messages, summed elementwise by an
// aggregator sitting between the verifier and the S owners. After the
// head rounds have folded each slice to a single entry per table (its
// "leaves"), the aggregator collects the leaves and serves the
// remaining rounds itself from a tail prover — the verifier speaks the
// unchanged protocol and the transcript is bit-identical to the
// single-prover run.
//
// Message shapes on the aggregator↔owner leg:
//
//	opening:  Ints=[version]  Elems=[claim, g_1(0..deg)]
//	round j:  Elems=[g_j(0..deg)]      (head rounds 2..h)
//	leaves:   Elems=[leaf_1..leaf_T]   (after the h-th fold; T = arity)
//
// The version rides the opening so the aggregator can pin one dataset
// version across all S slices (ErrSplitVersion on skew) and bind
// Fiat–Shamir proofs to it.
package core

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/sumcheck"
)

// ErrSplitVersion reports slice openings that disagree on the dataset
// version: an ingest scatter was racing the query and the aggregator
// must retry rather than fold partials of different dataset states.
var ErrSplitVersion = errors.New("core: split slices disagree on dataset version")

// PartialProver is the slice owner's session for one aggregation query:
// a ProverSession whose messages are this slice's exact partials. It is
// driven by the aggregator, not by a verifier — after its final fold it
// emits its leaves instead of a round message.
type PartialProver struct {
	scProver
	cfg     sumcheck.Config // global configuration; Params span the full universe
	lo, hi  uint64
	tables  [][]field.Elem // slice subtables, borrowed read-only
	version uint64
	headD   int
}

func newPartialProver(cfg sumcheck.Config, lo, hi, version uint64, tables ...[]field.Elem) (*PartialProver, error) {
	sp, err := sumcheck.SliceParams(cfg.Params, lo, hi)
	if err != nil {
		return nil, err
	}
	for t, tab := range tables {
		if uint64(len(tab)) != sp.U {
			return nil, fmt.Errorf("core: slice table %d has %d entries, want %d", t, len(tab), sp.U)
		}
	}
	return &PartialProver{cfg: cfg, lo: lo, hi: hi, tables: tables, version: version, headD: sp.D}, nil
}

// NewPartialProverFromTable returns the slice-owner session for the
// universe slice [lo, hi) of p.Params. table holds the slice's hi−lo
// entries (global index i stored at i−lo), borrowed read-only; version
// is the dataset version the opening reports to the aggregator.
func (p *Fk) NewPartialProverFromTable(table []field.Elem, lo, hi, version uint64) (*PartialProver, error) {
	return newPartialProver(p.scConfig(), lo, hi, version, table)
}

// NewPartialProverFromTable returns the slice-owner session for a
// range-sum query over the global range [qL, qR] (validated against the
// full universe). The slice materializes its part of the indicator
// itself — the intersection of the query range with [lo, hi) — so no
// second table travels.
func (p *RangeSum) NewPartialProverFromTable(table []field.Elem, lo, hi, version, qL, qR uint64) (*PartialProver, error) {
	if err := checkRange(qL, qR, p.Params.U); err != nil {
		return nil, err
	}
	indicator := rangeIndicator(lo, lo+uint64(len(table)), qL, qR)
	return newPartialProver(p.scConfig(), lo, hi, version, table, indicator)
}

// Open computes this slice's partial claim and round-1 partial,
// prefixed by the dataset version for the aggregator's skew check.
func (pr *PartialProver) Open() (Msg, error) {
	sc, err := sumcheck.NewPartialProver(pr.cfg, pr.lo, pr.hi, pr.tables...)
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

// SplitAggregator folds S slice owners' partial messages into the
// single-prover transcript. It sits between the verifier (which speaks
// the unchanged protocol) and the owners:
//
//	parts := <Open on every owner, slice order>
//	opening, _ := agg.Open(parts)            // → verifier
//	for each verifier challenge r:
//	    if agg.Broadcast() {
//	        parts := <Step(r) on every owner>  // partials, or leaves
//	        m, _ := agg.Collect(parts)
//	        if agg.TailStarted() { <finish the owner conversations> }
//	    } else {
//	        m, _ := agg.Next(r)                // tail rounds, local
//	    }
//	    // m → verifier
//
// Because field addition is exact and the tail prover resumes from the
// exact global folded table, every emitted message is bit-identical to
// the single-prover run.
type SplitAggregator struct {
	cfg     sumcheck.Config
	slices  int
	hd      int // head rounds served by the owners (= slice depth)
	round   int // combined messages emitted so far
	version uint64
	tail    *sumcheck.Prover
}

// NewSplitAggregator builds the aggregator for a universe of size ≥ u
// (original, unpadded) split into `slices` equal aligned slices.
// Slice counts must be powers of two small enough that each slice has
// width ≥ 2. workers bounds the tail prover's fan-out (the tail tables
// have only `slices` entries, so it rarely matters).
func NewSplitAggregator(f field.Field, u uint64, slices int, comb sumcheck.Combiner, workers int) (*SplitAggregator, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	if slices < 1 || uint64(slices) > params.U || params.U%uint64(slices) != 0 {
		return nil, fmt.Errorf("core: cannot split universe %d into %d slices", params.U, slices)
	}
	width := params.U / uint64(slices)
	sp, err := sumcheck.SliceParams(params, 0, width)
	if err != nil {
		return nil, err
	}
	cfg := sumcheck.Config{Field: f, Params: params, Combiner: comb, Workers: workers}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &SplitAggregator{cfg: cfg, slices: slices, hd: sp.D}, nil
}

// Rounds returns the total number of protocol rounds d.
func (a *SplitAggregator) Rounds() int { return a.cfg.Params.D }

// HeadRounds returns the number of rounds served by the slice owners.
func (a *SplitAggregator) HeadRounds() int { return a.hd }

// Slices returns the slice count S.
func (a *SplitAggregator) Slices() int { return a.slices }

// Version returns the dataset version pinned by the openings.
func (a *SplitAggregator) Version() uint64 { return a.version }

// Done reports whether every round message has been emitted.
func (a *SplitAggregator) Done() bool { return a.round == a.cfg.Params.D }

// Broadcast reports whether the verifier's challenge for the round just
// emitted must be broadcast to the owners (true through the leaf
// round); afterwards the tail prover answers locally via Next.
func (a *SplitAggregator) Broadcast() bool {
	return a.round < a.hd || (a.round == a.hd && a.slices > 1)
}

// TailStarted reports whether the owners' conversations are complete
// (their leaves are folded into the tail prover).
func (a *SplitAggregator) TailStarted() bool { return a.tail != nil }

// Open combines the S slice openings (slice order) into the opening the
// verifier sees, pinning the dataset version all slices must share.
func (a *SplitAggregator) Open(parts []Msg) (Msg, error) {
	if a.round != 0 {
		return Msg{}, fmt.Errorf("core: split aggregator already opened")
	}
	want := 1 + a.cfg.MessageLen()
	for k, part := range parts {
		if len(part.Ints) != 1 || len(part.Elems) != want {
			return Msg{}, fmt.Errorf("core: slice %d opening has %d ints and %d elems, want 1 and %d",
				k, len(part.Ints), len(part.Elems), want)
		}
		if k == 0 {
			a.version = part.Ints[0]
		} else if part.Ints[0] != a.version {
			return Msg{}, fmt.Errorf("%w: slice 0 at %d, slice %d at %d", ErrSplitVersion, a.version, k, part.Ints[0])
		}
	}
	out, err := a.sum(parts, want)
	if err != nil {
		return Msg{}, err
	}
	a.round = 1
	return out, nil
}

// Collect combines the owners' responses to a broadcast challenge: the
// next combined round message during the head, or — on the leaf round —
// the owners' leaves, from which it seeds the tail prover and emits the
// first tail message.
func (a *SplitAggregator) Collect(parts []Msg) (Msg, error) {
	if a.round == 0 || !a.Broadcast() {
		return Msg{}, fmt.Errorf("core: no broadcast outstanding at round %d", a.round)
	}
	if a.round < a.hd {
		for k, part := range parts {
			if len(part.Ints) != 0 {
				return Msg{}, fmt.Errorf("core: slice %d round message carries unexpected ints", k)
			}
		}
		out, err := a.sum(parts, a.cfg.MessageLen())
		if err != nil {
			return Msg{}, err
		}
		a.round++
		return out, nil
	}
	// Leaf round: each part is one fully folded entry per table.
	arity := a.cfg.Combiner.Arity()
	if len(parts) != a.slices {
		return Msg{}, fmt.Errorf("core: %d slice responses, want %d", len(parts), a.slices)
	}
	leaves := make([][]field.Elem, a.slices)
	for k, part := range parts {
		if len(part.Ints) != 0 || len(part.Elems) != arity {
			return Msg{}, fmt.Errorf("core: slice %d leaves have %d ints and %d elems, want 0 and %d",
				k, len(part.Ints), len(part.Elems), arity)
		}
		leaves[k] = part.Elems
	}
	tail, err := sumcheck.NewTailProver(a.cfg, leaves)
	if err != nil {
		return Msg{}, err
	}
	a.tail = tail
	g, err := tail.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	a.round++
	return Msg{Elems: g}, nil
}

// Next serves a tail round: it folds the verifier's challenge into the
// tail prover and emits the next message, no owner round trip needed.
func (a *SplitAggregator) Next(r field.Elem) (Msg, error) {
	if a.tail == nil {
		return Msg{}, fmt.Errorf("core: tail not started at round %d", a.round)
	}
	if a.Done() {
		return Msg{}, fmt.Errorf("core: all %d rounds already emitted", a.cfg.Params.D)
	}
	if err := a.tail.Fold(r); err != nil {
		return Msg{}, err
	}
	g, err := a.tail.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	a.round++
	return Msg{Elems: g}, nil
}

func (a *SplitAggregator) sum(parts []Msg, wantElems int) (Msg, error) {
	if len(parts) != a.slices {
		return Msg{}, fmt.Errorf("core: %d slice responses, want %d", len(parts), a.slices)
	}
	f := a.cfg.Field
	out := make([]field.Elem, wantElems)
	for k, part := range parts {
		if len(part.Elems) != wantElems {
			return Msg{}, fmt.Errorf("core: slice %d response has %d elems, want %d", k, len(part.Elems), wantElems)
		}
		for _, e := range part.Elems {
			if uint64(e) >= f.Modulus() {
				return Msg{}, fmt.Errorf("core: slice %d response contains non-canonical element", k)
			}
		}
		f.AddSlices(out, out, part.Elems)
	}
	return Msg{Elems: out}, nil
}
