package core

import (
	"fmt"
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

// recordingProver captures every message a prover session emits.
type recordingProver struct {
	inner ProverSession
	msgs  []Msg
}

func (rp *recordingProver) Open() (Msg, error) {
	m, err := rp.inner.Open()
	rp.msgs = append(rp.msgs, cloneMsg(m))
	return m, err
}

func (rp *recordingProver) Step(ch Msg) (Msg, error) {
	m, err := rp.inner.Step(ch)
	rp.msgs = append(rp.msgs, cloneMsg(m))
	return m, err
}

func sameTranscript(t *testing.T, name string, a, b []Msg) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d messages vs %d", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Ints) != len(b[i].Ints) || len(a[i].Elems) != len(b[i].Elems) {
			t.Fatalf("%s: message %d shape differs", name, i)
		}
		for j := range a[i].Ints {
			if a[i].Ints[j] != b[i].Ints[j] {
				t.Fatalf("%s: message %d int %d differs: %d vs %d", name, i, j, a[i].Ints[j], b[i].Ints[j])
			}
		}
		for j := range a[i].Elems {
			if a[i].Elems[j] != b[i].Elems[j] {
				t.Fatalf("%s: message %d elem %d differs: %d vs %d", name, i, j, a[i].Elems[j], b[i].Elems[j])
			}
		}
	}
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

// TestFkEndToEndOrders: the verified F_k is Σ a_i^k for k = 1…5 on unit
// increments, on a universe that is not a power of two under a stream
// mixing insertions and deletions, and at u = 2, a one-round protocol.
func TestFkEndToEndOrders(t *testing.T) {
	rng := field.NewSplitMix64(102)
	tiny := []stream.Update{{Index: 0, Delta: 3}, {Index: 1, Delta: 4}, {Index: 0, Delta: 2}}
	for _, tc := range []struct {
		u   uint64
		ups []stream.Update
	}{{256, stream.UnitIncrements(256, 3000, rng)}, {1000, stream.UniformDeltas(1000, 300, rng)}, {2, tiny}} {
		for k := 1; k <= 5; k++ {
			t.Run(fmt.Sprintf("u=%d/F%d", tc.u, k), func(t *testing.T) {
				proto, err := NewFk(f61, tc.u, k)
				if err != nil {
					t.Fatal(err)
				}
				v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
				p := must(proto.NewProverFromTable(countsOf(t, tc.ups, proto.Params.U), nil, 0))
				observeAll(t, v, tc.ups)
				if _, err := Run(p, v); err != nil {
					t.Fatalf("u=%d: F%d rejected: %v", tc.u, k, err)
				}
				got, err := v.Result()
				if err != nil {
					t.Fatal(err)
				}
				if want := refFk(t, tc.ups, tc.u, k); got != want {
					t.Fatalf("u=%d: F%d = %d, want %d", tc.u, k, got, want)
				}
			})
		}
	}
}

// TestRangeSumEndToEnd: the verified range sum is the signed sum of the
// counts in [lo, hi], for ranges over key-value pairs and over counts
// that sum negative.
func TestRangeSumEndToEnd(t *testing.T) {
	rng := field.NewSplitMix64(105)
	pairs, err := stream.DistinctKV(1<<12, 500, 10000, rng)
	if err != nil {
		t.Fatal(err)
	}
	negative := []stream.Update{{Index: 3, Delta: -50}, {Index: 9, Delta: 20}, {Index: 40, Delta: 7}}
	for _, tc := range []struct {
		u      uint64
		ups    []stream.Update
		ranges [][2]uint64
	}{
		{1 << 12, stream.KVUpdates(pairs), [][2]uint64{{0, 1<<12 - 1}, {100, 200}, {0, 0}, {1<<12 - 1, 1<<12 - 1}, {1 << 11, 1<<11 + 999}}},
		{64, negative, [][2]uint64{{0, 20}}},
	} {
		proto, err := NewRangeSum(f61, tc.u)
		if err != nil {
			t.Fatal(err)
		}
		counts := applied(t, tc.ups, tc.u)
		for _, q := range tc.ranges {
			t.Run(fmt.Sprintf("u=%d/%d-%d", tc.u, q[0], q[1]), func(t *testing.T) {
				v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, rng))
				p := must(proto.NewProverFromTable(countsOf(t, tc.ups, proto.Params.U), 0))
				observeAll(t, v, tc.ups)
				if err := v.SetQuery(q[0], q[1]); err != nil {
					t.Fatal(err)
				}
				if err := p.SetQuery(q[0], q[1]); err != nil {
					t.Fatal(err)
				}
				if _, err := Run(p, v); err != nil {
					t.Fatalf("range %v rejected: %v", q, err)
				}
				var want int64
				for _, c := range counts[q[0] : q[1]+1] {
					want += c
				}
				if got, err := v.SignedResult(); err != nil || got != want {
					t.Fatalf("range %v sum = %d, %v; want %d", q, got, err, want)
				}
			})
		}
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
