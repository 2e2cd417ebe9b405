package core

import (
	"errors"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestMultiFkEndToEnd: a batch of F2, F3 and F4 queries over two distinct
// streams, verified in one conversation sharing a single random point
// (§7 "Multiple Queries").
func TestMultiFkEndToEnd(t *testing.T) {
	const u = 512
	proto, err := NewMultiFk(f61, u, []int{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(601)
	upsA := stream.UniformDeltas(u, 30, rng)
	upsB := stream.UnitIncrements(u, 2000, rng)

	v := proto.NewVerifier(rng)
	// Slots 0 and 1 watch stream A; slot 2 watches stream B.
	for _, up := range upsA {
		for _, slot := range []int{0, 1} {
			if err := v.Observe(slot, up); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, up := range upsB {
		if err := v.Observe(2, up); err != nil {
			t.Fatal(err)
		}
	}
	a, b := elemsOf(t, upsA, u), elemsOf(t, upsB, u)
	p := must(proto.NewProverFromTables(a, a, b))
	stats, err := Run(p, v)
	if err != nil {
		t.Fatalf("batch rejected: %v", err)
	}
	results, err := v.Results()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFk(t, upsA, u, 2); results[0] != want {
		t.Fatalf("slot 0 (F2) = %d, want %d", results[0], want)
	}
	if want := refFk(t, upsA, u, 3); results[1] != want {
		t.Fatalf("slot 1 (F3) = %d, want %d", results[1], want)
	}
	if want := refFk(t, upsB, u, 4); results[2] != want {
		t.Fatalf("slot 2 (F4) = %d, want %d", results[2], want)
	}
	// Direct-sum accounting: d rounds total (not 3d), message sizes sum.
	d := proto.Params.D
	if stats.Rounds != d {
		t.Fatalf("rounds = %d, want %d (shared schedule)", stats.Rounds, d)
	}
	wantWords := 3 + d*(3+4+5) + (d - 1)
	if stats.CommWords() != wantWords {
		t.Fatalf("comm = %d words, want %d", stats.CommWords(), wantWords)
	}
}

// TestMultiFkTamperOneSlot: corrupting any single slot's polynomial in
// the batch rejects the whole conversation.
func TestMultiFkTamperOneSlot(t *testing.T) {
	const u = 128
	proto, err := NewMultiFk(f61, u, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(602)
	ups := stream.UniformDeltas(u, 20, rng)
	for _, corruptPos := range []int{2, 5} { // slot 0's g, then slot 1's g
		v := proto.NewVerifier(field.NewSplitMix64(603))
		for _, up := range ups {
			for slot := 0; slot < 2; slot++ {
				if err := v.Observe(slot, up); err != nil {
					t.Fatal(err)
				}
			}
		}
		table := elemsOf(t, ups, u)
		p := must(proto.NewProverFromTables(table, table))
		pos := corruptPos
		tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
			if r == 2 && pos < len(m.Elems) {
				m.Elems[pos]++
			}
			return m
		}}
		if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
			t.Fatalf("corrupting batched position %d not rejected: %v", pos, err)
		}
	}
}

func TestMultiFkValidation(t *testing.T) {
	if _, err := NewMultiFk(f61, 64, nil); err == nil {
		t.Error("empty batch accepted")
	}
	if _, err := NewMultiFk(f61, 64, []int{2, 0}); err == nil {
		t.Error("zero-order moment accepted")
	}
	proto, err := NewMultiFk(f61, 64, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(field.NewSplitMix64(604))
	if err := v.Observe(1, stream.Update{}); err == nil {
		t.Error("out-of-range slot accepted")
	}
	if _, _, err := v.Begin(Msg{Elems: make([]field.Elem, 2)}); err == nil {
		t.Error("short opening accepted")
	}
	table := elemsOf(t, nil, 64)
	if _, err := proto.NewProverFromTables(table, table); err == nil {
		t.Error("two tables for one slot accepted")
	}
	p := must(proto.NewProverFromTables(table))
	if _, err := p.Step(Msg{Elems: []field.Elem{1}}); err == nil {
		t.Error("step before open accepted")
	}
}
