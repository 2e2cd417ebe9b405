package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// MultiFk implements the "Multiple Queries" direct-sum observation of the
// paper's §7: "it is safe to run multiple queries in parallel
// round-by-round using the same randomly chosen values, and obtain the
// same guarantees for each query."
//
// A batch of frequency-moment queries — over distinct streams and/or
// distinct moment orders — shares one secret point r and one challenge
// schedule. Round j carries all g_j^{(q)} polynomials in one message, and
// one challenge r_j answers them all, so the batch costs one protocol's
// rounds and the *sum* of the message sizes, instead of independent
// randomness and bookkeeping per query.
//
// (Re-running a protocol *sequentially* with the same randomness remains
// unsafe — after a conversation the prover knows r. Parallel composition
// is safe precisely because every round-j message across the batch is
// committed before r_j is revealed.)
type MultiFk struct {
	F      field.Field
	Params lde.Params
	Ks     []int // moment order per query slot

	// Workers is the prover's parallel fan-out, shared by every slot; see
	// Fk.Workers.
	Workers int
}

// NewMultiFk returns a batch protocol with one slot per entry of ks, all
// over the same universe decomposition (ℓ=2).
func NewMultiFk(f field.Field, u uint64, ks []int) (*MultiFk, error) {
	if len(ks) == 0 {
		return nil, fmt.Errorf("core: empty query batch")
	}
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	for _, k := range ks {
		if k < 1 {
			return nil, fmt.Errorf("core: frequency moment order %d < 1", k)
		}
		cfg := sumcheck.Config{Field: f, Params: params, Combiner: sumcheck.Power{K: k}}
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
	}
	return &MultiFk{F: f, Params: params, Ks: append([]int(nil), ks...)}, nil
}

func (p *MultiFk) cfg(slot int) sumcheck.Config {
	return sumcheck.Config{Field: p.F, Params: p.Params, Combiner: sumcheck.Power{K: p.Ks[slot]}, Workers: p.Workers}
}

// batchLen is the number of field elements all slots' round messages
// occupy together.
func (p *MultiFk) batchLen() int {
	n := 0
	for slot := range p.Ks {
		n += p.cfg(slot).MessageLen()
	}
	return n
}

// MultiFkVerifier runs all slots' verifiers against one challenge
// schedule.
type MultiFkVerifier struct {
	proto  *MultiFk
	pt     *lde.Point
	evs    []*lde.Evaluator
	scs    []*sumcheck.Verifier
	claims []field.Elem
	done   bool
}

// NewVerifier samples the single shared point r.
func (p *MultiFk) NewVerifier(rng field.RNG) *MultiFkVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	evs := make([]*lde.Evaluator, len(p.Ks))
	for i := range evs {
		evs[i] = lde.NewEvaluator(pt)
	}
	return &MultiFkVerifier{proto: p, pt: pt, evs: evs}
}

// Observe folds one update of the slot-th stream. Queries over the same
// stream simply Observe identical updates into their slots.
func (v *MultiFkVerifier) Observe(slot int, up stream.Update) error {
	if slot < 0 || slot >= len(v.evs) {
		return fmt.Errorf("core: slot %d out of range", slot)
	}
	return v.evs[slot].Update(up.Index, up.Delta)
}

// Begin consumes the batched opening: all claims, then all slots' g_1
// evaluations, concatenated in slot order.
func (v *MultiFkVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.scs != nil {
		return Msg{}, false, fmt.Errorf("core: multi-query verifier already started")
	}
	want := len(v.proto.Ks) + v.proto.batchLen()
	if len(opening.Ints) != 0 || len(opening.Elems) != want {
		return Msg{}, false, reject("multi-query opening has %d elems, want %d", len(opening.Elems), want)
	}
	v.claims = append([]field.Elem(nil), opening.Elems[:len(v.proto.Ks)]...)
	v.scs = make([]*sumcheck.Verifier, len(v.proto.Ks))
	for slot := range v.proto.Ks {
		expected := v.proto.F.Pow(v.evs[slot].Value(), uint64(v.proto.Ks[slot]))
		sc, err := sumcheck.NewVerifier(v.proto.cfg(slot), v.pt.R, v.claims[slot], expected)
		if err != nil {
			return Msg{}, false, err
		}
		v.scs[slot] = sc
	}
	return v.absorb(opening.Elems[len(v.proto.Ks):])
}

// Step consumes one batched round message.
func (v *MultiFkVerifier) Step(response Msg) (Msg, bool, error) {
	if v.scs == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: multi-query verifier not mid-conversation")
	}
	if len(response.Ints) != 0 || len(response.Elems) != v.proto.batchLen() {
		return Msg{}, false, reject("multi-query round has %d elems, want %d", len(response.Elems), v.proto.batchLen())
	}
	return v.absorb(response.Elems)
}

func (v *MultiFkVerifier) absorb(elems []field.Elem) (Msg, bool, error) {
	off := 0
	for slot, sc := range v.scs {
		n := v.proto.cfg(slot).MessageLen()
		if err := sc.Receive(elems[off : off+n]); err != nil {
			return Msg{}, false, reject("slot %d: %v", slot, err)
		}
		off += n
	}
	if v.scs[0].Done() {
		v.done = true
		return Msg{}, true, nil
	}
	// One shared challenge answers every slot (they run in lockstep, so
	// all Challenge() values are the same coordinate of r).
	ch, err := v.scs[0].Challenge()
	if err != nil {
		return Msg{}, false, err
	}
	return Msg{Elems: []field.Elem{ch}}, false, nil
}

// Results returns all verified moments, in slot order.
func (v *MultiFkVerifier) Results() ([]field.Elem, error) {
	if !v.done {
		return nil, fmt.Errorf("core: multi-query results unavailable before acceptance")
	}
	return append([]field.Elem(nil), v.claims...), nil
}

// MultiFkProver holds one table per slot.
type MultiFkProver struct {
	proto  *MultiFk
	tables [][]field.Elem
	scs    []*sumcheck.Prover
}

// NewProverFromTables returns a prover over one aggregated table per slot
// (field images, length Params.U each), borrowed read-only; slots over
// the same stream may share a table. See Fk.NewProverFromTable.
func (p *MultiFk) NewProverFromTables(tables ...[]field.Elem) (*MultiFkProver, error) {
	if len(tables) != len(p.Ks) {
		return nil, fmt.Errorf("core: %d tables for %d query slots", len(tables), len(p.Ks))
	}
	for _, t := range tables {
		if uint64(len(t)) != p.Params.U {
			return nil, fmt.Errorf("core: table has %d entries, want %d", len(t), p.Params.U)
		}
	}
	return &MultiFkProver{proto: p, tables: tables}, nil
}

// Open emits all claims followed by all slots' round-1 polynomials.
func (pr *MultiFkProver) Open() (Msg, error) {
	pr.scs = make([]*sumcheck.Prover, len(pr.proto.Ks))
	claims := make([]field.Elem, len(pr.proto.Ks))
	var body []field.Elem
	for slot := range pr.proto.Ks {
		sc, err := sumcheck.NewProver(pr.proto.cfg(slot), pr.tables[slot])
		if err != nil {
			return Msg{}, err
		}
		pr.scs[slot] = sc
		claims[slot] = sc.Total()
		g1, err := sc.RoundMessage()
		if err != nil {
			return Msg{}, err
		}
		body = append(body, g1...)
	}
	return Msg{Elems: append(claims, body...)}, nil
}

// Step folds the shared challenge into every slot and emits the batched
// next-round message.
func (pr *MultiFkProver) Step(challenge Msg) (Msg, error) {
	if pr.scs == nil {
		return Msg{}, fmt.Errorf("core: multi-query prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: challenge has %d elems, want 1", len(challenge.Elems))
	}
	var body []field.Elem
	for _, sc := range pr.scs {
		if err := sc.Fold(challenge.Elems[0]); err != nil {
			return Msg{}, err
		}
		g, err := sc.RoundMessage()
		if err != nil {
			return Msg{}, err
		}
		body = append(body, g...)
	}
	return Msg{Elems: body}, nil
}
