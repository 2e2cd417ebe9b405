// The router adapter around the split aggregator, as 9e45139^ held it
// in internal/shard/split.go: a prover session of the router's own.

package shard

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/sumcheck"
	"repro/internal/wire"
)

// finishConvs closes every non-nil conversation; idempotent.
func finishConvs(convs []*wire.PartialConv) {
	for _, c := range convs {
		if c != nil {
			_ = c.Finish()
		}
	}
}

// prover opens one partial conversation per owner for a query and
// returns them as one session. It runs in the client read loop, so
// every owner snapshots the batches this connection had acknowledged
// when the query arrived (see openConvs).
func (a *splitAttach) prover(comb sumcheck.Combiner, kind wire.QueryKind, params wire.QueryParams) (*splitProver, error) {
	convs, err := a.openConvs(kind, params)
	if err != nil {
		return nil, err
	}
	return &splitProver{a: a, comb: comb, kind: kind, params: params, convs: convs}, nil
}

// splitProver presents a split dataset's aggregator and owner
// conversations as the one core.ProverSession a single engine would be
// — to the client's verifier through the mux, to engine.RecordProof for
// a posted proof. Open folds the owners' openings; Close finishes every
// owner conversation, which the mux does however the session ends.
type splitProver struct {
	a      *splitAttach
	comb   sumcheck.Combiner
	kind   wire.QueryKind
	params wire.QueryParams
	convs  []*wire.PartialConv

	agg     *core.SplitAggregator // nil until Open has folded the openings
	opening core.Msg
	sent    int // messages emitted: the opening, then one per Step
}

// emit counts one emitted message, passing it through the attachment's
// fold liar when one is set.
func (sp *splitProver) emit(m core.Msg) core.Msg {
	if lie := sp.a.foldLie; lie != nil {
		m = lie(sp.sent, m)
	}
	sp.sent++
	return m
}

// Open reads every owner's opening and folds them; once folded, Open
// hands the same message over again (the proof path folds to learn the
// version before recording). A version skew (another connection's
// batch landed between our opens) finishes the stale conversations and
// reopens — bounded retries, because under concurrent ingest "the"
// version is whatever one consistent cut says.
func (sp *splitProver) Open() (core.Msg, error) {
	if sp.agg != nil {
		return sp.opening, nil
	}
	for attempt := 0; ; attempt++ {
		parts := make([]core.Msg, len(sp.convs))
		var err error
		for k, conv := range sp.convs {
			if parts[k], err = conv.Msg(); err != nil {
				return core.Msg{}, err
			}
		}
		agg, err := core.NewSplitAggregator(field.Mersenne(), sp.a.u, sp.a.slices, sp.comb, 0)
		if err != nil {
			return core.Msg{}, err
		}
		opening, err := agg.Open(parts)
		if err == nil {
			sp.agg, sp.opening = agg, sp.emit(opening)
			return sp.opening, nil
		}
		if !errors.Is(err, core.ErrSplitVersion) || attempt >= 3 {
			return core.Msg{}, err
		}
		finishConvs(sp.convs)
		if sp.convs, err = sp.a.openConvs(sp.kind, sp.params); err != nil {
			return core.Msg{}, err
		}
	}
}

// Step consumes one verifier challenge and emits one folded prover
// message. Broadcast rounds fan the challenge to every owner and collect
// their partials; once the tail starts the owners are done and the
// aggregator folds alone.
func (sp *splitProver) Step(m core.Msg) (core.Msg, error) {
	if len(m.Elems) != 1 {
		return core.Msg{}, fmt.Errorf("%w: challenge carries %d field elements, want 1", wire.ErrProtocol, len(m.Elems))
	}
	if !sp.agg.Broadcast() {
		out, err := sp.agg.Next(m.Elems[0])
		if err != nil {
			return core.Msg{}, err
		}
		return sp.emit(out), nil
	}
	for _, conv := range sp.convs {
		if err := conv.Challenge(m); err != nil {
			return core.Msg{}, err
		}
	}
	parts := make([]core.Msg, len(sp.convs))
	for k, conv := range sp.convs {
		var err error
		if parts[k], err = conv.Msg(); err != nil {
			return core.Msg{}, err
		}
	}
	out, err := sp.agg.Collect(parts)
	if err != nil {
		return core.Msg{}, err
	}
	if sp.agg.TailStarted() {
		finishConvs(sp.convs)
	}
	return sp.emit(out), nil
}

// Close finishes every owner conversation; idempotent.
func (sp *splitProver) Close() error {
	finishConvs(sp.convs)
	return nil
}

// resolve is the proof path's view of the session (wire.Mux.Proof): it
// folds the openings and names the binding a single engine holding the
// whole dataset would post the proof under.
func (sp *splitProver) resolve() (fs.Binding, core.ProverSession, error) {
	if _, err := sp.Open(); err != nil {
		return fs.Binding{}, sp, err
	}
	return fs.Binding{
		Modulus:  field.Mersenne().Modulus(),
		Universe: sp.a.u,
		Dataset:  sp.a.name,
		Version:  sp.agg.Version(),
		Query:    engine.FSQuery(sp.kind, sp.params),
	}, sp, nil
}
