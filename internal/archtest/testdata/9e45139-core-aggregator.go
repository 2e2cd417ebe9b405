// The split aggregator, as 9e45139^ held it in internal/core/partial.go:
// a state machine beneath the split prover that the router drove by
// hand, fold by fold.

package core

import (
	"errors"
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/sumcheck"
)

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
