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

// MultiFkVerifier runs one sum-check verifier half per slot, all over
// the one shared point and so against one challenge schedule.
type MultiFkVerifier struct {
	proto *MultiFk
	evs   []*lde.Evaluator
	slots []scVerifier
}

// NewVerifier samples the single shared point r.
func (p *MultiFk) NewVerifier(rng field.RNG) *MultiFkVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	v := &MultiFkVerifier{proto: p, evs: make([]*lde.Evaluator, len(p.Ks)), slots: make([]scVerifier, len(p.Ks))}
	for i := range v.slots {
		v.evs[i] = lde.NewEvaluator(pt)
		v.slots[i].pt = pt
	}
	return v
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
	n := len(v.proto.Ks)
	if want := n + v.proto.batchLen(); len(opening.Ints) != 0 || len(opening.Elems) != want {
		return Msg{}, false, reject("multi-query opening has %d ints and %d elems, want 0 and %d",
			len(opening.Ints), len(opening.Elems), want)
	}
	claims := opening.Elems[:n]
	return v.each(opening.Elems[n:], func(slot int, g1 []field.Elem) (Msg, bool, error) {
		anchor := v.proto.F.Pow(v.evs[slot].Value(), uint64(v.proto.Ks[slot]))
		return v.slots[slot].begin(v.proto.cfg(slot), Msg{Elems: append([]field.Elem{claims[slot]}, g1...)}, anchor)
	})
}

// Step consumes one batched round message.
func (v *MultiFkVerifier) Step(response Msg) (Msg, bool, error) {
	if len(response.Ints) != 0 || len(response.Elems) != v.proto.batchLen() {
		return Msg{}, false, reject("multi-query round has %d ints and %d elems, want 0 and %d",
			len(response.Ints), len(response.Elems), v.proto.batchLen())
	}
	return v.each(response.Elems, func(slot int, g []field.Elem) (Msg, bool, error) {
		return v.slots[slot].Step(Msg{Elems: g})
	})
}

// each hands every slot its part of a batched message body (the slots'
// messages concatenated in slot order). The slots run in lockstep, so
// they all return the same challenge — one coordinate of the shared r —
// and finish together.
func (v *MultiFkVerifier) each(body []field.Elem, fn func(slot int, part []field.Elem) (Msg, bool, error)) (ch Msg, done bool, err error) {
	for slot := range v.slots {
		n := v.proto.cfg(slot).MessageLen()
		if ch, done, err = fn(slot, body[:n]); err != nil {
			return Msg{}, false, fmt.Errorf("slot %d: %w", slot, err)
		}
		body = body[n:]
	}
	return ch, done, nil
}

// Results returns all verified moments, in slot order.
func (v *MultiFkVerifier) Results() ([]field.Elem, error) {
	out := make([]field.Elem, len(v.slots))
	for slot := range v.slots {
		r, err := v.slots[slot].Result()
		if err != nil {
			return nil, err
		}
		out[slot] = r
	}
	return out, nil
}

// MultiFkProver runs one sum-check prover half per slot.
type MultiFkProver struct {
	proto  *MultiFk
	tables [][]field.Elem
	slots  []scProver
}

// NewProverFromTables returns a prover over one aggregated table per slot
// (field images, length Params.U each), borrowed read-only; slots over
// the same stream may share a table. See Fk.NewProverFromTable.
func (p *MultiFk) NewProverFromTables(tables ...[]field.Elem) (*MultiFkProver, error) {
	if len(tables) != len(p.Ks) {
		return nil, fmt.Errorf("core: %d tables for %d query slots", len(tables), len(p.Ks))
	}
	if err := checkTables(p.Params.U, tables...); err != nil {
		return nil, err
	}
	return &MultiFkProver{proto: p, tables: tables, slots: make([]scProver, len(tables))}, nil
}

// Open emits all claims followed by all slots' round-1 polynomials.
func (pr *MultiFkProver) Open() (Msg, error) {
	claims := make([]field.Elem, len(pr.slots))
	var body []field.Elem
	for slot := range pr.slots {
		m, err := pr.slots[slot].open(pr.proto.cfg(slot), pr.tables[slot])
		if err != nil {
			return Msg{}, err
		}
		claims[slot] = m.Elems[0]
		body = append(body, m.Elems[1:]...)
	}
	return Msg{Elems: append(claims, body...)}, nil
}

// Step folds the shared challenge into every slot and emits the batched
// next-round message.
func (pr *MultiFkProver) Step(challenge Msg) (Msg, error) {
	var body []field.Elem
	for slot := range pr.slots {
		m, err := pr.slots[slot].Step(challenge)
		if err != nil {
			return Msg{}, err
		}
		body = append(body, m.Elems...)
	}
	return Msg{Elems: body}, nil
}
