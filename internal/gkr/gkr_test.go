package gkr

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// runF2 drives a complete GKR session conversation for F2 over 2^k
// inputs through core.Run, streaming ups into the verifier. A non-nil
// tamper rewrites the prover's messages in flight.
func runF2(t *testing.T, k int, ups []stream.Update, wiring circuit.Wiring, seed uint64, tamper core.Tamperer) (*VerifierSession, core.Stats, error) {
	t.Helper()
	c, err := circuit.NewF2Circuit(k)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(f61, c, wiring)
	if err != nil {
		t.Fatal(err)
	}
	v, err := proto.NewVerifierSession(field.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]field.Elem, c.InputSize)
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
		input[up.Index] = f61.Add(input[up.Index], f61.FromInt64(up.Delta))
	}
	p, err := proto.NewProverSession(input, 0)
	if err != nil {
		t.Fatal(err)
	}
	var ps core.ProverSession = p
	if tamper != nil {
		ps = &core.TamperedProver{P: p, T: tamper}
	}
	st, err := core.Run(ps, v)
	return v, st, err
}

func refF2(t *testing.T, ups []stream.Update, u uint64) field.Elem {
	t.Helper()
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	var total field.Elem
	for _, v := range a {
		e := f61.FromInt64(v)
		total = f61.Add(total, f61.Mul(e, e))
	}
	return total
}

func TestGKRF2Completeness(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5, 7} {
		u := uint64(1) << k
		rng := field.NewSplitMix64(uint64(400 + k))
		ups := stream.UniformDeltas(u, 50, rng)
		for _, wiring := range []circuit.Wiring{nil, circuit.F2Wiring{K: k}} {
			v, _, err := runF2(t, k, ups, wiring, uint64(500+k), nil)
			if err != nil {
				t.Fatalf("k=%d wiring=%T: rejected: %v", k, wiring, err)
			}
			outs, err := v.Outputs()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := outs[0], refF2(t, ups, u); got != want {
				t.Fatalf("k=%d: F2 = %d, want %d", k, got, want)
			}
		}
	}
}

// TestGKRCommGrowsAsLogSquared: the §3 Remarks gap — GKR communication is
// Θ(log² u) words, so doubling log u should roughly quadruple it.
func TestGKRCommGrowsAsLogSquared(t *testing.T) {
	stats := map[int]core.Stats{}
	for _, k := range []int{4, 8} {
		u := uint64(1) << k
		ups := stream.UniformDeltas(u, 10, field.NewSplitMix64(uint64(k)))
		_, st, err := runF2(t, k, ups, circuit.F2Wiring{K: k}, 7, nil)
		if err != nil {
			t.Fatal(err)
		}
		stats[k] = st
	}
	ratio := float64(stats[8].CommWords()) / float64(stats[4].CommWords())
	if ratio < 2.5 {
		t.Errorf("comm ratio k=8/k=4 is %.2f; expected superlinear (≈3-4×) growth in log u", ratio)
	}
}

// TestGKRWrongOutputRejected: claiming the wrong output passes Begin
// (any vector of the right length is a well-formed claim) and fails at
// the first sum-check message, since the prover's true g1 sums to the
// true value, not the lie.
func TestGKRWrongOutputRejected(t *testing.T) {
	k := 4
	ups := stream.UniformDeltas(uint64(1)<<k, 50, field.NewSplitMix64(9))
	_, st, err := runF2(t, k, ups, circuit.F2Wiring{K: k}, 8, func(round int, m core.Msg) core.Msg {
		if round == 0 {
			m.Elems[0] = f61.Add(m.Elems[0], 1)
		}
		return m
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("lying output not rejected: %v", err)
	}
	if st.Rounds != 2 {
		t.Fatalf("rejected after %d prover messages, want 2 (opening + first sum-check round)", st.Rounds)
	}
}

// TestGKRTamperedSumcheckRejected: flipping g(2) of the second
// sum-check message leaves that round's g(0) + g(1) check intact, so the
// flip must be caught by a later round or the line check.
func TestGKRTamperedSumcheckRejected(t *testing.T) {
	k := 4
	ups := stream.UniformDeltas(uint64(1)<<k, 50, field.NewSplitMix64(12))
	_, st, err := runF2(t, k, ups, circuit.F2Wiring{K: k}, 13, func(round int, m core.Msg) core.Msg {
		if round == 2 {
			m.Elems[2] = f61.Add(m.Elems[2], 1)
		}
		return m
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("tampered sum-check not rejected: %v", err)
	}
	if st.Rounds <= 3 {
		t.Fatalf("rejected after %d prover messages; the flipped g(2) cannot fail its own round", st.Rounds)
	}
}

// TestGKRValidation: construction refusals and out-of-order use of
// either session.
func TestGKRValidation(t *testing.T) {
	c, err := circuit.NewF2Circuit(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(field.Field{}, c, nil); err == nil {
		t.Error("invalid field accepted")
	}
	proto, err := New(f61, c, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.NewProverSession(make([]field.Elem, 3), 0); err == nil {
		t.Error("short input accepted")
	}
	v, err := proto.NewVerifierSession(field.NewSplitMix64(14))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Step(core.Msg{Elems: []field.Elem{1, 2, 3}}); err == nil || errors.Is(err, core.ErrRejected) {
		t.Errorf("sum-check before outputs: %v, want a misuse error", err)
	}
	if _, err := v.Outputs(); err == nil {
		t.Error("outputs available before acceptance")
	}
	p, err := proto.NewProverSession(make([]field.Elem, c.InputSize), 0)
	if err != nil {
		t.Fatal(err)
	}
	opening, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	z0, _, err := v.Begin(opening)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := v.Begin(opening); err == nil {
		t.Error("second Begin accepted")
	}
	if _, err := p.Step(core.Msg{Elems: append(z0.Elems, 1)}); err == nil {
		t.Error("z₀ of the wrong length accepted")
	}
	if _, err := p.Step(core.Msg{Ints: []uint64{1}, Elems: z0.Elems}); err == nil {
		t.Error("integer payload in a challenge accepted")
	}
	msg, err := p.Step(z0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Step(core.Msg{Elems: []field.Elem{1, 2}}); err == nil {
		t.Error("two-element sum-check challenge accepted")
	}
	if _, _, err := v.Step(core.Msg{Elems: msg.Elems[:2]}); !errors.Is(err, core.ErrRejected) {
		t.Errorf("two-evaluation sum-check message: %v, want core.ErrRejected", err)
	}
}
