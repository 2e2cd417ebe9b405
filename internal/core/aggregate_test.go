package core

import (
	"errors"
	"testing"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

var f61 = field.Mersenne()

type observer interface {
	Observe(stream.Update) error
}

func observeAll(t *testing.T, obs observer, ups []stream.Update) {
	t.Helper()
	for _, u := range ups {
		if err := obs.Observe(u); err != nil {
			t.Fatal(err)
		}
	}
}

// countsOf is the one prover input of these tests: ups aggregated over
// the protocol's padded universe n. Every prover borrows it read-only.
func countsOf(t *testing.T, ups []stream.Update, n uint64) sumcheck.Counts {
	t.Helper()
	return sumcheck.Flat(applied(t, ups, n))
}

// skeletonOf is the tree provers' one input in these tests: the tree
// skeleton of ups' frequency vector over params. Every prover borrows it
// read-only.
func skeletonOf(t *testing.T, f field.Field, ups []stream.Update, params hashtree.Params) *hashtree.Skeleton {
	t.Helper()
	return flatSkeleton(t, f, params, applied(t, ups, params.U))
}

// flatSkeleton is the tree skeleton of a flat frequency vector.
func flatSkeleton(t *testing.T, f field.Field, params hashtree.Params, counts []int64) *hashtree.Skeleton {
	t.Helper()
	sk, err := hashtree.NewSkeleton(f, params, sumcheck.Flat(counts))
	if err != nil {
		t.Fatal(err)
	}
	return sk
}

// applied is the frequency vector of ups over n entries.
func applied(t *testing.T, ups []stream.Update, n uint64) []int64 {
	t.Helper()
	a, err := stream.Apply(ups, n)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// elemsOf is the field image of ups' frequency vector, the flat table of
// the provers that take field elements.
func elemsOf(t *testing.T, ups []stream.Update, n uint64) []field.Elem {
	t.Helper()
	out := make([]field.Elem, n)
	f61.FromInt64Slice(out, applied(t, ups, n))
	return out
}

// must unwraps a prover constructor. Every table here is built to the
// constructor's length, so an error is a bug in the test.
func must[P any](p P, err error) P {
	if err != nil {
		panic(err)
	}
	return p
}

func refFk(t *testing.T, ups []stream.Update, u uint64, k int) field.Elem {
	t.Helper()
	var total field.Elem
	for _, v := range applied(t, ups, u) {
		total = f61.Add(total, f61.Pow(f61.FromInt64(v), uint64(k)))
	}
	return total
}

func TestSelfJoinSizeEndToEnd(t *testing.T) {
	const u = 1 << 10
	proto, err := NewFk(f61, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(101)
	ups := stream.UniformDeltas(u, 1000, rng)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), nil, 0))
	observeAll(t, v, ups)
	stats, err := Run(p, v)
	if err != nil {
		t.Fatalf("honest F2 run rejected: %v", err)
	}
	got, err := v.Result()
	if err != nil {
		t.Fatal(err)
	}
	if want := refFk(t, ups, u, 2); got != want {
		t.Fatalf("F2 = %d, want %d", got, want)
	}
	// Theorem 4 accounting: d rounds of 3 words plus claim, d-1 challenges.
	d := proto.Params.D
	if stats.Rounds != d {
		t.Errorf("rounds = %d, want %d", stats.Rounds, d)
	}
	if want := 3*d + 1; stats.WordsToVerifier != want {
		t.Errorf("prover→verifier words = %d, want %d", stats.WordsToVerifier, want)
	}
	if want := d - 1; stats.WordsToProver != want {
		t.Errorf("verifier→prover words = %d, want %d", stats.WordsToProver, want)
	}
	if v.SpaceWords() > 4*d+10 {
		t.Errorf("verifier space %d words not O(log u)", v.SpaceWords())
	}
}

func TestFkEndToEndOrders(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(102)
	ups := stream.UnitIncrements(u, 3000, rng)
	for k := 1; k <= 5; k++ {
		proto, err := NewFk(f61, u, k)
		if err != nil {
			t.Fatal(err)
		}
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
		p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), nil, 0))
		observeAll(t, v, ups)
		if _, err := Run(p, v); err != nil {
			t.Fatalf("F%d rejected: %v", k, err)
		}
		got, err := v.Result()
		if err != nil {
			t.Fatal(err)
		}
		if want := refFk(t, ups, u, k); got != want {
			t.Fatalf("F%d = %d, want %d", k, got, want)
		}
	}
}

func TestFkTinyUniverse(t *testing.T) {
	// u rounds up to 2: a single-round protocol (d=1).
	proto, err := NewFk(f61, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(103)
	ups := []stream.Update{{Index: 0, Delta: 3}, {Index: 1, Delta: 4}, {Index: 0, Delta: 2}}
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), nil, 0))
	observeAll(t, v, ups)
	if _, err := Run(p, v); err != nil {
		t.Fatalf("d=1 F2 rejected: %v", err)
	}
	got, _ := v.Result()
	if got != 25+16 {
		t.Fatalf("F2 = %d, want 41", got)
	}
}

func TestInnerProductEndToEnd(t *testing.T) {
	const u = 512
	proto, err := NewInnerProduct(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(104)
	upsA := stream.UniformDeltas(u, 50, rng)
	upsB := stream.UniformDeltas(u, 50, rng)
	v := proto.NewVerifier(rng)
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
	p := must(proto.NewProverFromTables(elemsOf(t, upsA, proto.Params.U), elemsOf(t, upsB, proto.Params.U)))
	if _, err := Run(p, v); err != nil {
		t.Fatalf("inner product rejected: %v", err)
	}
	a, _ := stream.Apply(upsA, u)
	b, _ := stream.Apply(upsB, u)
	var want field.Elem
	for i := range a {
		want = f61.Add(want, f61.Mul(f61.FromInt64(a[i]), f61.FromInt64(b[i])))
	}
	got, err := v.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("inner product = %d, want %d", got, want)
	}
}

func TestRangeSumEndToEnd(t *testing.T) {
	const u = 1 << 12
	proto, err := NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(105)
	pairs, err := stream.DistinctKV(u, 500, 10000, rng)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.KVUpdates(pairs)
	for _, q := range []struct{ lo, hi uint64 }{{0, u - 1}, {100, 200}, {0, 0}, {u - 1, u - 1}, {u / 2, u/2 + 999}} {
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
		p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), 0))
		observeAll(t, v, ups)
		if err := v.SetQuery(q.lo, q.hi); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(q.lo, q.hi); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, v); err != nil {
			t.Fatalf("range [%d,%d] rejected: %v", q.lo, q.hi, err)
		}
		var want int64
		for _, pr := range pairs {
			if pr.Key >= q.lo && pr.Key <= q.hi {
				want += int64(pr.Value)
			}
		}
		got, err := v.SignedResult()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("range [%d,%d] sum = %d, want %d", q.lo, q.hi, got, want)
		}
	}
}

func TestRangeSumNegativeValues(t *testing.T) {
	const u = 64
	proto, err := NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(106)
	ups := []stream.Update{{Index: 3, Delta: -50}, {Index: 9, Delta: 20}, {Index: 40, Delta: 7}}
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(0, 20); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(0, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, v); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	got, err := v.SignedResult()
	if err != nil || got != -30 {
		t.Fatalf("signed sum = %d, %v; want -30", got, err)
	}
}

func TestRangeSumQueryValidation(t *testing.T) {
	proto, err := NewRangeSum(f61, 64)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(107)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	if err := v.SetQuery(5, 4); err == nil {
		t.Error("inverted range accepted")
	}
	if err := v.SetQuery(0, 64); err == nil {
		t.Error("out-of-universe range accepted")
	}
	if _, _, err := v.Begin(Msg{}); err == nil {
		t.Error("Begin without query accepted")
	}
	p := must(proto.NewProverFromTable(countsOf(t, nil, proto.Params.U), 0))
	if _, err := p.Open(); err == nil {
		t.Error("prover Open without query accepted")
	}
}

// TestAggregateTamperMatrix drives the §5 robustness experiment across the
// aggregation protocols: every single-word modification of any prover
// message must be rejected.
func TestAggregateTamperMatrix(t *testing.T) {
	const u = 128
	rng := field.NewSplitMix64(108)
	ups := stream.UniformDeltas(u, 100, rng)

	newRun := func() (ProverSession, VerifierSession) {
		proto, err := NewFk(f61, u, 2)
		if err != nil {
			t.Fatal(err)
		}
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
		p := must(proto.NewProverFromTable(countsOf(t, ups, proto.Params.U), nil, 0))
		observeAll(t, v, ups)
		return p, v
	}

	// Tamper each round (0 = opening) at each message position.
	for round := 0; round <= 7; round++ {
		for pos := 0; pos < 4; pos++ {
			p, v := newRun()
			hit := false
			tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
				if r == round && pos < len(m.Elems) {
					m.Elems[pos] = f61.Add(m.Elems[pos], 1)
					hit = true
				}
				return m
			}}
			_, err := Run(tp, v)
			if hit && !errors.Is(err, ErrRejected) {
				t.Fatalf("tamper round %d pos %d accepted: %v", round, pos, err)
			}
			if !hit && err != nil {
				t.Fatalf("untouched run rejected: %v", err)
			}
		}
	}
}

// TestAggregateWrongStreamProver: the prover "misses out some data" (the
// paper's core threat) and is caught.
func TestAggregateWrongStreamProver(t *testing.T) {
	const u = 256
	proto, err := NewFk(f61, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(109)
	ups := stream.UniformDeltas(u, 100, rng)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	observeAll(t, v, ups)
	// Prover never sees the last 3 updates.
	p := must(proto.NewProverFromTable(countsOf(t, ups[:len(ups)-3], proto.Params.U), nil, 0))
	if _, err := Run(p, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("prover with missing data not rejected: %v", err)
	}
}

func TestVerifierSessionMisuse(t *testing.T) {
	proto, err := NewFk(f61, 16, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(110)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
	if _, err := v.Result(); err == nil {
		t.Error("result before conversation accepted")
	}
	if _, _, err := v.Step(Msg{}); err == nil {
		t.Error("step before begin accepted")
	}
	if _, _, err := v.Begin(Msg{Elems: make([]field.Elem, 2)}); err == nil {
		t.Error("malformed opening accepted")
	}
	p := must(proto.NewProverFromTable(countsOf(t, nil, proto.Params.U), nil, 0))
	if _, err := p.Step(Msg{Elems: []field.Elem{1}}); err == nil {
		t.Error("prover step before open accepted")
	}
}

func TestMsgWordsAndClone(t *testing.T) {
	m := Msg{Ints: []uint64{1, 2}, Elems: []field.Elem{3}}
	if m.Words() != 3 {
		t.Errorf("Words = %d, want 3", m.Words())
	}
	c := cloneMsg(m)
	c.Ints[0] = 99
	c.Elems[0] = 99
	if m.Ints[0] != 1 || m.Elems[0] != 3 {
		t.Error("cloneMsg did not deep-copy")
	}
	var s Stats
	s.WordsToVerifier, s.WordsToProver = 5, 2
	if s.CommWords() != 7 || s.CommBytes() != 56 {
		t.Errorf("stats accounting wrong: %d words %d bytes", s.CommWords(), s.CommBytes())
	}
}
