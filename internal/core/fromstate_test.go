package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/sumcheck"
)

// Every prover is built from aggregated state: a field table
// (NewProverFromTable/NewProverFromTables) or a count table
// (NewProverFromCounts), borrowed read-only. This pins strict length
// validation; the per-kind transcript matrix and the immutability of the
// borrowed tables are checked in internal/engine.

func TestFromStateLengthValidation(t *testing.T) {
	f := field.Mersenne()
	const u = 128
	short := make([]field.Elem, 7)
	shortCounts := sumcheck.Flat(make([]int64, 7))

	fk, err := NewFk(f, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fk.NewProverFromTable(shortCounts, nil); err == nil {
		t.Error("Fk accepted a short table")
	}
	// A table in chunks is refused at construction too, with its scan
	// supplied: 64 entries for the whole 128, 32 for the slice [64, 128).
	live := func() sumcheck.LivePairs { return sumcheck.LivePairs{} }
	if _, err := fk.NewProverFromTable(sumcheck.Counts{Width: 32, Chunks: make([][]int64, 2)}, live); err == nil {
		t.Error("Fk accepted a short table in chunks")
	}
	if _, err := fk.NewPartialProverFromTable(sumcheck.Counts{Width: 16, Chunks: make([][]int64, 2)}, live, 64, 128, 1); err == nil {
		t.Error("Fk accepted a short slice table in chunks")
	}
	rs, err := NewRangeSum(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.NewProverFromTable(shortCounts); err == nil {
		t.Error("RangeSum accepted a short table")
	}
	sv, err := NewSubVector(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.NewProverFromCounts(shortCounts); err == nil {
		t.Error("SubVector accepted a short count table")
	}
	hh, err := NewHeavyHitters(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hh.NewProverFromCounts(shortCounts, 0); err == nil {
		t.Error("HeavyHitters accepted a short count table")
	}
	fb, err := NewF0(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.NewProverFromCounts(shortCounts, 0); err == nil {
		t.Error("FrequencyBased accepted a short count table")
	}
	fm, err := NewFmax(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.NewProverFromCounts(shortCounts, 0); err == nil {
		t.Error("Fmax accepted a short count table")
	}
	ip, err := NewInnerProduct(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.NewProverFromTables(make([]field.Elem, u), short); err == nil {
		t.Error("InnerProduct accepted a short table")
	}
	mf, err := NewMultiFk(f, u, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mf.NewProverFromTables(short); err == nil {
		t.Error("MultiFk accepted a short table")
	}
}
