package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/sumcheck"
)

// Every prover is built from aggregated state: a field table
// (NewProverFromTable/NewProverFromTables) or a count table
// or its tree skeleton (NewProverFromSkeleton), borrowed read-only. This
// pins strict length validation; the per-kind transcript matrix and the immutability of the
// borrowed tables are checked in internal/engine.

func TestFromStateLengthValidation(t *testing.T) {
	f := field.Mersenne()
	const u = 128
	short := make([]field.Elem, 7)
	shortCounts := sumcheck.Flat(make([]int64, 7))
	shortTree := flatSkeleton(t, f, hashtree.Params{D: 3, U: 8}, make([]int64, 8))

	fk, err := NewFk(f, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fk.NewProverFromTable(shortCounts, nil, 0); err == nil {
		t.Error("Fk accepted a short table")
	}
	// A table in chunks is refused at construction too, with its scan
	// supplied: 64 entries for the whole 128, 32 for the slice [64, 128).
	live := func() sumcheck.LivePairs { return sumcheck.LivePairs{} }
	if _, err := fk.NewProverFromTable(sumcheck.Counts{Width: 32, Chunks: make([][]int64, 2)}, live, 0); err == nil {
		t.Error("Fk accepted a short table in chunks")
	}
	if _, err := fk.NewPartialProverFromTable(sumcheck.Counts{Width: 16, Chunks: make([][]int64, 2)}, live, 64, 128, 1, 0, 0); err == nil {
		t.Error("Fk accepted a short slice table in chunks")
	}
	rs, err := NewRangeSum(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.NewProverFromTable(shortCounts, 0); err == nil {
		t.Error("RangeSum accepted a short table")
	}
	sv, err := NewSubVector(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.NewProverFromSkeleton(shortTree, 0); err == nil {
		t.Error("SubVector accepted a short tree skeleton")
	}
	hh, err := NewHeavyHitters(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hh.NewProverFromSkeleton(shortTree, 0, 0); err == nil {
		t.Error("HeavyHitters accepted a short tree skeleton")
	}
	fb, err := NewF0(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fb.NewProverFromSkeleton(shortTree, 0, 0); err == nil {
		t.Error("FrequencyBased accepted a short tree skeleton")
	}
	fm, err := NewFmax(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.NewProverFromSkeleton(shortTree, 0, 0); err == nil {
		t.Error("Fmax accepted a short tree skeleton")
	}
	ip, err := NewInnerProduct(f, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ip.NewProverFromTables(make([]field.Elem, u), short); err == nil {
		t.Error("InnerProduct accepted a short table")
	}
}
