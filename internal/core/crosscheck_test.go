package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestPolarizationIdentity verifies §3.2's observation that the inner
// product reduces to three F2 computations:
//
//	F2(a+b) = F2(a) + F2(b) + 2·⟨a,b⟩
//
// by running four independent verified protocols (three F2, one inner
// product) and checking the identity between their *verified* outputs.
func TestPolarizationIdentity(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(701)
	upsA := stream.UniformDeltas(u, 40, rng)
	upsB := stream.UniformDeltas(u, 40, rng)
	both := append(append([]stream.Update(nil), upsA...), upsB...)

	runF2 := func(ups []stream.Update, seed uint64) field.Elem {
		proto, err := NewFk(f61, u, 2)
		if err != nil {
			t.Fatal(err)
		}
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, field.NewSplitMix64(seed)))
		p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), nil, 0))
		observeAll(t, v, ups)
		if _, err := Run(p, v); err != nil {
			t.Fatalf("F2 rejected: %v", err)
		}
		res, err := v.Result()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	f2A := runF2(upsA, 702)
	f2B := runF2(upsB, 703)
	f2AB := runF2(both, 704)

	ipProto, err := NewInnerProduct(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	v := ipProto.NewVerifier(field.NewSplitMix64(705))
	for _, up := range upsA {
		if err := v.ObserveA(up); err != nil {
			t.Fatal(err)
		}
	}
	for _, up := range upsB {
		if err := v.ObserveB(up); err != nil {
			t.Fatal(err)
		}
	}
	p := must(ipProto.NewProverFromTables(elemsOf(t, upsA, u), elemsOf(t, upsB, u)))
	if _, err := Run(p, v); err != nil {
		t.Fatalf("inner product rejected: %v", err)
	}
	ip, err := v.Result()
	if err != nil {
		t.Fatal(err)
	}

	lhs := f2AB
	rhs := f61.Add(f61.Add(f2A, f2B), f61.Mul(2, ip))
	if lhs != rhs {
		t.Fatalf("polarization identity violated: F2(a+b)=%d, F2(a)+F2(b)+2⟨a,b⟩=%d", lhs, rhs)
	}
}

// TestRangeSumEqualsInnerProduct verifies that RANGE-SUM is "a special
// case of INNER PRODUCT" (§3.2): running the generic inner-product
// protocol with an explicitly streamed indicator vector must agree with
// the range-sum protocol, whose verifier computes the indicator's LDE
// analytically in O(log² u).
func TestRangeSumEqualsInnerProduct(t *testing.T) {
	const u = 512
	qL, qR := uint64(100), uint64(300)
	rng := field.NewSplitMix64(706)
	pairs, err := stream.DistinctKV(u, 80, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.KVUpdates(pairs)

	// Range-sum protocol.
	rsProto, err := NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rsV := rsProto.Adopt(DrawSummary(rsProto.F, rsProto.Params.D, FamilyPoint, field.NewSplitMix64(707)))
	rsP := must(rsProto.NewProverFromTable(countsOf(t, ups, u), 0))
	observeAll(t, rsV, ups)
	if err := rsV.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	if err := rsP.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(rsP, rsV); err != nil {
		t.Fatalf("range-sum rejected: %v", err)
	}
	rsResult, err := rsV.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Generic inner product with the indicator streamed as vector b.
	ipProto, err := NewInnerProduct(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	ipV := ipProto.NewVerifier(field.NewSplitMix64(708))
	var indicator []stream.Update
	for i := qL; i <= qR; i++ {
		indicator = append(indicator, stream.Update{Index: i, Delta: 1})
	}
	for _, up := range ups {
		if err := ipV.ObserveA(up); err != nil {
			t.Fatal(err)
		}
	}
	for _, ind := range indicator {
		if err := ipV.ObserveB(ind); err != nil {
			t.Fatal(err)
		}
	}
	ipP := must(ipProto.NewProverFromTables(elemsOf(t, ups, u), elemsOf(t, indicator, u)))
	if _, err := Run(ipP, ipV); err != nil {
		t.Fatalf("inner product rejected: %v", err)
	}
	ipResult, err := ipV.Result()
	if err != nil {
		t.Fatal(err)
	}
	if rsResult != ipResult {
		t.Fatalf("range-sum %d ≠ inner product with indicator %d", rsResult, ipResult)
	}
}

// TestF2PaddedUniverseMixedStream: SELF-JOIN SIZE (F_k at k = 2) over a
// universe that is not a power of two verifies the reference answer on a
// stream that mixes insertions and deletions.
func TestF2PaddedUniverseMixedStream(t *testing.T) {
	const u = 300 // not a power of two: the protocol pads the universe
	rng := field.NewSplitMix64(709)
	ups := stream.UniformDeltas(u, 25, rng)
	for i := uint64(0); i < u; i += 7 {
		ups = append(ups, stream.Update{Index: i, Delta: -40})
	}

	f2, err := NewFk(f61, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	f2V := f2.Adopt(DrawSummary(f2.F, f2.Params.D, FamilyPoint, field.NewSplitMix64(710)))
	observeAll(t, f2V, ups)
	if _, err := Run(must(f2.NewProverFromTable(countsOf(t, ups, f2.Params.U), nil, 0)), f2V); err != nil {
		t.Fatalf("F2 rejected: %v", err)
	}
	f2Result, err := f2V.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFk(t, ups, u, 2); f2Result != want {
		t.Fatalf("F2 = %d, want %d", f2Result, want)
	}
}
