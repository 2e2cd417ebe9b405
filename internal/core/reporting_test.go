package core

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// runSubVector drives one honest SUB-VECTOR conversation and returns the
// verified entries and stats.
func runSubVector(t *testing.T, u uint64, ups []stream.Update, qL, qR uint64) ([]Entry, Stats, error) {
	t.Helper()
	proto, err := NewSubVector(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(200 + qL + qR)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyTree, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.Params), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(p, v)
	if err != nil {
		return nil, stats, err
	}
	entries, err := v.Result()
	return entries, stats, err
}

func refEntries(t *testing.T, ups []stream.Update, u uint64, qL, qR uint64) []Entry {
	t.Helper()
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	var out []Entry
	for i := qL; i <= qR; i++ {
		if a[i] != 0 {
			out = append(out, Entry{Index: i, Value: a[i]})
		}
	}
	return out
}

// TestSubVectorEndToEnd: the verified entries of [lo, hi] are the
// nonzero counts there, on a dense stream with a negative count, a
// stream entirely outside the range, an empty stream, and at u = 2,
// where the conversation finishes at Begin.
func TestSubVectorEndToEnd(t *testing.T) {
	const u = 1 << 10
	dense := append(stream.UnitIncrements(u, 3000, field.NewSplitMix64(201)), stream.Update{Index: 17, Delta: -2})
	outside := []stream.Update{{Index: 200, Delta: 5}, {Index: 201, Delta: 1}}
	tiny := []stream.Update{{Index: 0, Delta: 7}, {Index: 1, Delta: 9}}
	for _, tc := range []struct {
		u      uint64
		ups    []stream.Update
		ranges [][2]uint64
		rounds int // 0 = not checked
	}{
		{u, dense, [][2]uint64{{0, u - 1}, {0, 0}, {u - 1, u - 1}, {1, 2}, {100, 400}, {511, 512}, {3, 3}}, 0},
		{256, outside, [][2]uint64{{10, 50}}, 0},
		{256, nil, [][2]uint64{{0, 255}}, 0},
		{2, tiny, [][2]uint64{{0, 1}}, 1},
	} {
		for _, q := range tc.ranges {
			t.Run(fmt.Sprintf("u=%d/%d-%d", tc.u, q[0], q[1]), func(t *testing.T) {
				entries, stats, err := runSubVector(t, tc.u, tc.ups, q[0], q[1])
				if err != nil {
					t.Fatalf("u=%d range %v rejected: %v", tc.u, q, err)
				}
				want := refEntries(t, tc.ups, tc.u, q[0], q[1])
				if len(entries) != len(want) {
					t.Fatalf("u=%d range %v: %d entries, want %d", tc.u, q, len(entries), len(want))
				}
				for i := range want {
					if entries[i] != want[i] {
						t.Fatalf("u=%d range %v entry %d: %+v, want %+v", tc.u, q, i, entries[i], want[i])
					}
				}
				if tc.rounds != 0 && stats.Rounds != tc.rounds {
					t.Fatalf("u=%d: rounds = %d, want %d", tc.u, stats.Rounds, tc.rounds)
				}
			})
		}
	}
}

// TestSubVectorCommunication: Theorem 5's (log u, log u + k) bound. The
// conversation beyond the k reported values is O(1) words per level.
func TestSubVectorCommunication(t *testing.T) {
	const u = 1 << 14
	rng := field.NewSplitMix64(202)
	ups := stream.UniformDeltas(u, 100, rng)
	qL, qR := uint64(5000), uint64(5999)
	entries, stats, err := runSubVector(t, u, ups, qL, qR)
	if err != nil {
		t.Fatal(err)
	}
	k := len(entries)
	d := 14
	// Answer: 2k words (index+value); overhead: ≤ 2 boundary values plus
	// ≤ 3 words per round (index+hash each side) plus d-1 challenges.
	maxOverhead := 2 + 5*d
	if got := stats.CommWords() - 2*k; got > maxOverhead {
		t.Errorf("non-answer communication %d words exceeds O(log u) bound %d", got, maxOverhead)
	}
}

// TestSubVectorTamperMatrix: modifying the claimed answer (values or
// indices) or any sibling hash must be caught.
func TestSubVectorTamperMatrix(t *testing.T) {
	const u = 512
	rng := field.NewSplitMix64(203)
	// Sparse stream with known gaps so every tamper mode can fire.
	ups := []stream.Update{
		{Index: 100, Delta: 7}, {Index: 105, Delta: 3}, {Index: 110, Delta: 1},
		{Index: 120, Delta: 9}, {Index: 140, Delta: 2}, {Index: 300, Delta: 4},
	}
	qL, qR := uint64(100), uint64(140)

	mk := func() (ProverSession, VerifierSession) {
		proto, err := NewSubVector(f61, u)
		if err != nil {
			t.Fatal(err)
		}
		v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyTree, rng))
		p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.Params), 0))
		observeAll(t, v, ups)
		if err := v.SetQuery(qL, qR); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(qL, qR); err != nil {
			t.Fatal(err)
		}
		return p, v
	}

	tampers := map[string]Tamperer{
		"flip answer value": func(r int, m Msg) Msg {
			if r == 0 && len(m.Elems) > 0 {
				m.Elems[0] = f61.Add(m.Elems[0], 1)
			}
			return m
		},
		"drop an entry": func(r int, m Msg) Msg {
			if r == 0 && len(m.Ints) > 0 {
				m.Ints = m.Ints[1:]
				m.Elems = m.Elems[1:]
			}
			return m
		},
		"shift an index": func(r int, m Msg) Msg {
			if r == 0 && len(m.Ints) > 1 && m.Ints[1] > m.Ints[0]+1 {
				m.Ints[0]++
			}
			return m
		},
		"flip round-2 sibling hash": func(r int, m Msg) Msg {
			if r == 2 && len(m.Elems) > 0 {
				m.Elems[0] = f61.Add(m.Elems[0], 1)
			}
			return m
		},
		"flip round-5 sibling hash": func(r int, m Msg) Msg {
			if r == 5 && len(m.Elems) > 0 {
				m.Elems[0] = f61.Add(m.Elems[0], 1)
			}
			return m
		},
	}
	for name, tamper := range tampers {
		p, v := mk()
		if _, err := Run(&TamperedProver{P: p, T: tamper}, v); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: not rejected (%v)", name, err)
		}
	}
}

func TestIndexEndToEnd(t *testing.T) {
	const u = 1 << 8
	proto, err := NewIndex(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(205)
	ups := stream.UniformDeltas(u, 100, rng)
	a, _ := stream.Apply(ups, u)
	for _, q := range []uint64{0, 1, 100, 255} {
		v := proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
		p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
		observeAll(t, v, ups)
		if err := v.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, v); err != nil {
			t.Fatalf("INDEX(%d) rejected: %v", q, err)
		}
		got, err := v.Value()
		if err != nil {
			t.Fatal(err)
		}
		if got != a[q] {
			t.Fatalf("INDEX(%d) = %d, want %d", q, got, a[q])
		}
	}
}

func TestDictionaryEndToEnd(t *testing.T) {
	const u = 1 << 10
	proto, err := NewDictionary(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(206)
	pairs, err := stream.DistinctKV(u, 100, u-1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Include a pair with value 0 to exercise the "not found" distinction.
	pairs[0].Value = 0
	kv := map[uint64]uint64{}
	var ups []stream.Update
	for _, pr := range pairs {
		up, err := proto.PutUpdate(pr.Key, pr.Value)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, up)
		kv[pr.Key] = pr.Value
	}
	queries := []uint64{pairs[0].Key, pairs[1].Key, pairs[99].Key}
	// Add a key guaranteed absent.
	for q := uint64(0); q < u; q++ {
		if _, ok := kv[q]; !ok {
			queries = append(queries, q)
			break
		}
	}
	for _, q := range queries {
		v := proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
		p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
		observeAll(t, v, ups)
		if err := v.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(q); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, v); err != nil {
			t.Fatalf("DICTIONARY(%d) rejected: %v", q, err)
		}
		got, found, err := v.Value()
		if err != nil {
			t.Fatal(err)
		}
		want, wantFound := kv[q]
		if found != wantFound || got != want {
			t.Fatalf("DICTIONARY(%d) = (%d,%v), want (%d,%v)", q, got, found, want, wantFound)
		}
	}
}

func TestDictionaryValidation(t *testing.T) {
	proto, err := NewDictionary(f61, 64)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proto.PutUpdate(64, 1); err == nil {
		t.Error("out-of-universe key accepted")
	}
	if _, err := proto.PutUpdate(1, 64); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := NewDictionary(f61, field.Mersenne61); err == nil {
		t.Error("dictionary universe ≥ p/2 accepted")
	}
}

// neighbourVerifier and neighbourProver are the halves of PREDECESSOR
// and SUCCESSOR.
type neighbourVerifier interface {
	VerifierSession
	observer
	SetQuery(q uint64) error
	Result() (uint64, bool, error)
}

type neighbourProver interface {
	ProverSession
	SetQuery(q uint64) error
}

// TestNeighboursEndToEnd: the verified predecessor and successor of each
// query point are the nearest present items at or below (above) it, or
// none.
func TestNeighboursEndToEnd(t *testing.T) {
	rng := field.NewSplitMix64(207)
	type query struct {
		q     uint64
		want  uint64
		found bool
	}
	for _, tc := range []struct {
		succ    bool
		u       uint64
		present []uint64
		queries []query
	}{
		{false, 1 << 9, []uint64{0, 17, 100, 101, 300, 511}, []query{
			{0, 0, true}, {5, 0, true}, {17, 17, true}, {18, 17, true},
			{99, 17, true}, {100, 100, true}, {200, 101, true}, {511, 511, true}}},
		{false, 256, []uint64{200}, []query{{100, 0, false}}},
		{true, 1 << 9, []uint64{3, 17, 100, 500}, []query{
			{0, 3, true}, {3, 3, true}, {4, 17, true}, {101, 500, true}, {500, 500, true}, {501, 0, false}}},
	} {
		var ups []stream.Update
		for _, i := range tc.present {
			ups = append(ups, stream.Update{Index: i, Delta: 1})
		}
		for _, c := range tc.queries {
			t.Run(fmt.Sprintf("succ=%v/q=%d", tc.succ, c.q), func(t *testing.T) {
				var (
					v neighbourVerifier
					p neighbourProver
				)
				if tc.succ {
					proto := must(NewSuccessor(f61, tc.u))
					v = proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
					p = must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
				} else {
					proto := must(NewPredecessor(f61, tc.u))
					v = proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
					p = must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
				}
				observeAll(t, v, ups)
				if err := v.SetQuery(c.q); err != nil {
					t.Fatal(err)
				}
				if err := p.SetQuery(c.q); err != nil {
					t.Fatal(err)
				}
				if _, err := Run(p, v); err != nil {
					t.Fatalf("succ=%v q=%d rejected: %v", tc.succ, c.q, err)
				}
				got, found, err := v.Result()
				if err != nil || got != c.want || found != c.found {
					t.Fatalf("succ=%v q=%d = (%d,%v), %v; want (%d,%v)", tc.succ, c.q, got, found, err, c.want, c.found)
				}
			})
		}
	}
}

// TestPredecessorLyingProver: claiming a stale predecessor (skipping a
// present element) must be rejected — there is a nonzero entry between
// the claim and the query.
func TestPredecessorLyingProver(t *testing.T) {
	const u = 256
	proto, err := NewPredecessor(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(209)
	ups := []stream.Update{{Index: 10, Delta: 1}, {Index: 50, Delta: 1}}
	v := proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(60); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(60); err != nil {
		t.Fatal(err)
	}
	// The honest answer is 50; the tamperer rewrites the claim to 10 and
	// filters the reported entries accordingly.
	tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
		if r == 0 {
			// Claim predecessor 10: subvector [10,60] must report only 10,
			// so drop the entry at 50.
			m.Ints = []uint64{10, 10}
			m.Elems = m.Elems[:1]
		}
		return m
	}}
	if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("lying predecessor not rejected: %v", err)
	}
}

func TestKLargestEndToEnd(t *testing.T) {
	const u = 1 << 9
	proto, err := NewKLargest(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(211)
	present := []uint64{5, 100, 200, 300, 400}
	var ups []stream.Update
	for _, i := range present {
		ups = append(ups, stream.Update{Index: i, Delta: 1})
		ups = append(ups, stream.Update{Index: i, Delta: 2}) // multiplicity > 1
	}
	for k := 1; k <= 5; k++ {
		v := proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
		p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
		observeAll(t, v, ups)
		if err := v.SetQuery(k); err != nil {
			t.Fatal(err)
		}
		if err := p.SetQuery(k); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(p, v); err != nil {
			t.Fatalf("KLARGEST(%d) rejected: %v", k, err)
		}
		got, err := v.Result()
		if err != nil {
			t.Fatal(err)
		}
		if want := present[len(present)-k]; got != want {
			t.Fatalf("KLARGEST(%d) = %d, want %d", k, got, want)
		}
	}
	// k exceeding the number of distinct elements: honest prover errors.
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
	if err := p.SetQuery(6); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Open(); err == nil {
		t.Error("k > distinct accepted by prover")
	}
}

// TestKLargestLyingProver: claiming a too-large location requires omitting
// a present element and is caught by the hash check.
func TestKLargestLyingProver(t *testing.T) {
	const u = 256
	proto, err := NewKLargest(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(212)
	ups := []stream.Update{{Index: 10, Delta: 1}, {Index: 50, Delta: 1}, {Index: 90, Delta: 1}}
	v := proto.Adopt(DrawSummary(proto.sv.F, proto.sv.Params.D, FamilyTree, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.sv.F, ups, proto.sv.Params), 0))
	observeAll(t, v, ups)
	// Honest 2nd largest is 50. Tamper the claim to 90 (pretending 90 is
	// the 2nd largest by inventing an entry above it is impossible, so the
	// cheater reports k=2 entries starting at 90 — duplicating 90's pair).
	if err := v.SetQuery(2); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(2); err != nil {
		t.Fatal(err)
	}
	tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
		if r == 0 {
			m.Ints = []uint64{90, 90, 91}
			m.Elems = []field.Elem{1, 1}
		}
		return m
	}}
	if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("lying k-largest not rejected: %v", err)
	}
}
