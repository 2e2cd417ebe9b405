package gkr

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// runF2 drives a complete GKR session conversation for F2 over 2^k
// inputs through core.Run, streaming ups into the verifier.
func runF2(t *testing.T, k int, ups []stream.Update, wiring circuit.Wiring, seed uint64) (*VerifierSession, core.Stats, error) {
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
	p, err := proto.NewProverSession(input)
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.Run(p, v)
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
			v, _, err := runF2(t, k, ups, wiring, uint64(500+k))
			if err != nil {
				t.Fatalf("k=%d wiring=%T: rejected: %v", k, wiring, err)
			}
			got, err := v.Output()
			if err != nil {
				t.Fatal(err)
			}
			if want := refF2(t, ups, u); got != want {
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
		_, st, err := runF2(t, k, ups, circuit.F2Wiring{K: k}, 7)
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

// TestGKRWrongOutputRejected: claiming the wrong output fails immediately
// or at latest at the input check.
func TestGKRWrongOutputRejected(t *testing.T) {
	k := 4
	u := uint64(1) << k
	c, err := circuit.NewF2Circuit(k)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(f61, c, circuit.F2Wiring{K: k})
	if err != nil {
		t.Fatal(err)
	}
	v, err := proto.NewVerifier(field.NewSplitMix64(8))
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(9))
	input := make([]field.Elem, u)
	for _, up := range ups {
		if err := v.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
		input[up.Index] = f61.Add(input[up.Index], f61.FromInt64(up.Delta))
	}
	p, err := proto.NewProver(input)
	if err != nil {
		t.Fatal(err)
	}
	outs := p.Outputs()
	outs[0] = f61.Add(outs[0], 1)
	if err := v.ReceiveOutputs(outs); err != nil {
		t.Fatalf("output receipt itself should succeed: %v", err)
	}
	// Play the rest honestly: the first sum-check round must fail, since
	// the prover's true g1 sums to the true value, not the lie.
	if err := p.StartLayer(0, v.zs[0]); err != nil {
		t.Fatal(err)
	}
	msg, err := p.SumcheckMsg()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := v.ReceiveSumcheck(msg); !errors.Is(err, ErrRejected) {
		t.Fatalf("lying output not rejected: %v", err)
	}
}

// TestGKRWrongStreamRejected: the prover evaluates the circuit on a
// different input; the final streamed-input check catches it.
func TestGKRWrongStreamRejected(t *testing.T) {
	k := 5
	u := uint64(1) << k
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(10))
	c, err := circuit.NewF2Circuit(k)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(f61, c, circuit.F2Wiring{K: k})
	if err != nil {
		t.Fatal(err)
	}
	v, err := proto.NewVerifierSession(field.NewSplitMix64(11))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]field.Elem, u)
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
		input[up.Index] = f61.Add(input[up.Index], f61.FromInt64(up.Delta))
	}
	input[3] = f61.Add(input[3], 1) // prover's data differs in one cell
	p, err := proto.NewProverSession(input)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := core.Run(p, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("wrong-stream prover not rejected: %v", err)
	}
}

// TestGKRTamperedSumcheckRejected: flipping a sum-check evaluation mid-
// protocol is caught.
func TestGKRTamperedSumcheckRejected(t *testing.T) {
	k := 4
	u := uint64(1) << k
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(12))
	c, err := circuit.NewF2Circuit(k)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := New(f61, c, circuit.F2Wiring{K: k})
	if err != nil {
		t.Fatal(err)
	}
	v, err := proto.NewVerifier(field.NewSplitMix64(13))
	if err != nil {
		t.Fatal(err)
	}
	input := make([]field.Elem, u)
	for _, up := range ups {
		if err := v.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
		input[up.Index] = f61.Add(input[up.Index], f61.FromInt64(up.Delta))
	}
	p, err := proto.NewProver(input)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ReceiveOutputs(p.Outputs()); err != nil {
		t.Fatal(err)
	}
	if err := p.StartLayer(0, v.zs[0]); err != nil {
		t.Fatal(err)
	}
	rejected := false
	for round := 0; round < 2*proto.C.VarCount(1); round++ {
		msg, err := p.SumcheckMsg()
		if err != nil {
			t.Fatal(err)
		}
		if round == 1 {
			msg[2] = f61.Add(msg[2], 1)
		}
		r, err := v.ReceiveSumcheck(msg)
		if err != nil {
			if round >= 1 && errors.Is(err, ErrRejected) {
				rejected = true
				break
			}
			t.Fatal(err)
		}
		if err := p.Bind(r); err != nil {
			t.Fatal(err)
		}
	}
	if !rejected {
		// The flip corrupts g(2) only, so the round-1 sum check passes but
		// the next round (or the line check) must fail. Finish the layer.
		line, err := p.LinePoly(v.xs[0], v.ys[0])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.ReceiveLine(line); !errors.Is(err, ErrRejected) {
			t.Fatalf("tampered sum-check not rejected: %v", err)
		}
	}
}

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
	v, err := proto.NewVerifier(field.NewSplitMix64(14))
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Observe(8, 1); err == nil || strings.Contains(err.Error(), "rejected") {
		t.Errorf("out-of-range observe: %v", err)
	}
	if _, err := v.ReceiveSumcheck([]field.Elem{1, 2, 3}); err == nil {
		t.Error("sum-check before outputs accepted")
	}
	if _, err := proto.NewProver(make([]field.Elem, 3)); err == nil {
		t.Error("short input accepted")
	}
}
