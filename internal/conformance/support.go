// Package conformance is the one suite that checks the service's two
// guarantees on every deployment shape: completeness (an honest service
// is accepted, with a transcript bit-identical to the reference) and
// soundness (a lie told at any hop is rejected). The matrix itself lives
// in this package's tests; this file is the support every transcript
// test in the tree shares: the one kind list, a recording verifier, and
// one transcript comparison.
//
// Only tests import this package. It imports the engine and nothing
// above it, so the internal tests of internal/wire and internal/shard can
// import it without a cycle.
package conformance

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// Field is the field every transcript test runs over.
var Field = field.Mersenne()

// Case is one query: a kind and its parameters.
type Case struct {
	Kind   engine.QueryKind
	Params engine.QueryParams
}

// Cases is the one kind list: every engine.QueryKind constant once, in
// order, then CIRCUIT as the F2 circuit family. Every parameter is valid
// for any universe of at least 200 (200 pads to 256).
var Cases = []Case{
	{engine.QuerySelfJoinSize, engine.QueryParams{}},
	{engine.QueryFk, engine.QueryParams{K: 3}},
	{engine.QueryRangeSum, engine.QueryParams{A: 3, B: 200}},
	{engine.QueryRangeQuery, engine.QueryParams{A: 3, B: 200}},
	{engine.QueryIndex, engine.QueryParams{A: 17}},
	{engine.QueryDictionary, engine.QueryParams{A: 17}},
	{engine.QueryPredecessor, engine.QueryParams{A: 99}},
	{engine.QuerySuccessor, engine.QueryParams{A: 99}},
	{engine.QueryKLargest, engine.QueryParams{K: 4}},
	{engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.02}},
	{engine.QueryF0, engine.QueryParams{}},
	{engine.QueryFmax, engine.QueryParams{}},
	{engine.QueryCircuit, engine.QueryParams{Circuit: circuit.FamilyF2}},
}

// Filter returns the cases keep accepts, in order.
func Filter(keep func(Case) bool) []Case {
	var out []Case
	for _, c := range Cases {
		if keep(c) {
			out = append(out, c)
		}
	}
	return out
}

func (c Case) String() string {
	if c.Kind == engine.QueryCircuit {
		return "circuit-" + c.Params.Circuit
	}
	return fmt.Sprintf("kind%d", c.Kind)
}

// Seam reports whether c is served across a split universe (it has a
// split combiner).
func (c Case) Seam() bool {
	_, err := engine.SplitCombiner(Field, 1<<10, c.Kind, c.Params)
	return !errors.Is(err, engine.ErrNotSplittable)
}

// Ticketed reports whether an engine.Ticket serves c: every kind but
// CIRCUIT.
func (c Case) Ticketed() bool { return c.Kind != engine.QueryCircuit }

// Kinds returns the kinds of cs, in order.
func Kinds(cs []Case) []engine.QueryKind {
	out := make([]engine.QueryKind, len(cs))
	for i, c := range cs {
		out[i] = c.Kind
	}
	return out
}

// Feed streams ups into o.
func Feed(t testing.TB, o interface{ Observe(stream.Update) error }, ups []stream.Update) {
	t.Helper()
	for _, up := range ups {
		if err := o.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
}

// Verifier draws c's verifier over a universe of u from rng and streams
// ups into it.
func Verifier(t testing.TB, u uint64, c Case, rng field.RNG, ups []stream.Update) engine.StreamVerifier {
	t.Helper()
	v, err := engine.NewStreamVerifier(Field, u, c.Kind, c.Params, rng)
	if err != nil {
		t.Fatalf("%v: verifier: %v", c, err)
	}
	Feed(t, v, ups)
	return v
}

// Recorder is a verifier that keeps a copy of every prover message it
// consumes (Msgs) and of every challenge Inner answers with (Said), so
// two conversations can be compared bit for bit, both ways.
type Recorder struct {
	Inner core.VerifierSession
	Msgs  []core.Msg
	Said  []core.Msg
}

func clone(m core.Msg) core.Msg {
	return core.Msg{
		Ints:  append([]uint64(nil), m.Ints...),
		Elems: append([]field.Elem(nil), m.Elems...),
	}
}

// said records a challenge Inner sent: one that asks for another
// message.
func (r *Recorder) said(ch core.Msg, done bool, err error) (core.Msg, bool, error) {
	if err == nil && !done {
		r.Said = append(r.Said, clone(ch))
	}
	return ch, done, err
}

func (r *Recorder) Begin(m core.Msg) (core.Msg, bool, error) {
	r.Msgs = append(r.Msgs, clone(m))
	return r.said(r.Inner.Begin(m))
}

func (r *Recorder) Step(m core.Msg) (core.Msg, bool, error) {
	r.Msgs = append(r.Msgs, clone(m))
	return r.said(r.Inner.Step(m))
}

// Converse runs p against v with core.Run and returns p's messages; a
// rejection fails the test.
func Converse(t testing.TB, p core.ProverSession, v core.VerifierSession) []core.Msg {
	t.Helper()
	rec := &Recorder{Inner: v}
	if _, err := core.Run(p, rec); err != nil {
		t.Fatalf("conversation rejected: %v", err)
	}
	return rec.Msgs
}

// Reference is the transcript every prover of c over ups must
// reproduce: engine.NewReplayProver at Workers 0, driven by core.Run
// against c's verifier drawn from seed.
func Reference(t testing.TB, u uint64, c Case, seed uint64, ups []stream.Update) []core.Msg {
	t.Helper()
	p, err := engine.NewReplayProver(Field, u, c.Kind, c.Params, ups, 0)
	if err != nil {
		t.Fatalf("%v: replay prover: %v", c, err)
	}
	return Converse(t, p, Verifier(t, u, c, field.NewSplitMix64(seed), ups))
}

// Same reports the first difference between two transcripts, or nil.
func Same(a, b []core.Msg) error {
	if len(a) != len(b) {
		return fmt.Errorf("round counts differ: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r].Ints) != len(b[r].Ints) || len(a[r].Elems) != len(b[r].Elems) {
			return fmt.Errorf("round %d shapes differ: (%d,%d) vs (%d,%d)", r,
				len(a[r].Ints), len(a[r].Elems), len(b[r].Ints), len(b[r].Elems))
		}
		for i := range a[r].Ints {
			if a[r].Ints[i] != b[r].Ints[i] {
				return fmt.Errorf("round %d int %d differs: %d vs %d", r, i, a[r].Ints[i], b[r].Ints[i])
			}
		}
		for i := range a[r].Elems {
			if a[r].Elems[i] != b[r].Elems[i] {
				return fmt.Errorf("round %d elem %d differs: %d vs %d", r, i, a[r].Elems[i], b[r].Elems[i])
			}
		}
	}
	return nil
}
