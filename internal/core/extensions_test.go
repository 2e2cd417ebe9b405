package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// refHeavyHitters returns the items with count ≥ threshold.
func refHeavyHitters(t *testing.T, ups []stream.Update, u uint64, threshold int64) []HeavyHitter {
	t.Helper()
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	var out []HeavyHitter
	for i, c := range a {
		if c >= threshold {
			out = append(out, HeavyHitter{Index: uint64(i), Count: c})
		}
	}
	return out
}

func runHeavyHitters(t *testing.T, u uint64, ups []stream.Update, phi float64, seed uint64) ([]HeavyHitter, int64, Stats, error) {
	t.Helper()
	proto, err := NewHeavyHitters(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(seed)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyAug, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.Params), stream.SumDeltas(ups), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(phi); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(phi); err != nil {
		t.Fatal(err)
	}
	stats, err := Run(p, v)
	if err != nil {
		return nil, 0, stats, err
	}
	hh, thr, err := v.Result()
	return hh, thr, stats, err
}

// TestHeavyHittersEndToEnd: the verified heavy hitters are the items
// whose count reaches the threshold, on a skewed stream at three φ, a
// flat stream with none, one dominating item and an empty stream.
func TestHeavyHittersEndToEnd(t *testing.T) {
	zipf, err := stream.Zipf(1<<10, 20000, 1.1, field.NewSplitMix64(301))
	if err != nil {
		t.Fatal(err)
	}
	var flat []stream.Update // every item once, none reaching φn
	for i := uint64(0); i < 256; i++ {
		flat = append(flat, stream.Update{Index: i, Delta: 1})
	}
	dominator := []stream.Update{{Index: 77, Delta: 1000}}
	for i := uint64(0); i < 50; i++ {
		dominator = append(dominator, stream.Update{Index: i, Delta: 1})
	}
	cases := []struct {
		name string
		u    uint64
		ups  []stream.Update
		phi  float64
		want int // heavy hitters
	}{
		{"zipf/0.01", 1 << 10, zipf, 0.01, -1},
		{"zipf/0.05", 1 << 10, zipf, 0.05, -1},
		{"zipf/0.2", 1 << 10, zipf, 0.2, -1},
		{"flat", 256, flat, 0.05, 0},
		{"dominator", 128, dominator, 0.5, 1},
		{"empty", 64, nil, 0.1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hh, thr, _, err := runHeavyHitters(t, tc.u, tc.ups, tc.phi, 302)
			if err != nil {
				t.Fatalf("%s rejected: %v", tc.name, err)
			}
			want := refHeavyHitters(t, tc.ups, tc.u, thr)
			if len(hh) != len(want) || tc.want >= 0 && len(want) != tc.want {
				t.Fatalf("%s: %d heavy hitters, reference %d, want %d", tc.name, len(hh), len(want), tc.want)
			}
			for i := range want {
				if hh[i] != want[i] {
					t.Fatalf("%s hitter %d: %+v, want %+v", tc.name, i, hh[i], want[i])
				}
			}
		})
	}
}

// TestHeavyHittersCommunication: the proof is O(1/φ · log u) words.
func TestHeavyHittersCommunication(t *testing.T) {
	const u = 1 << 12
	rng := field.NewSplitMix64(306)
	ups, err := stream.Zipf(u, 50000, 1.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	phi := 0.02
	_, _, stats, err := runHeavyHitters(t, u, ups, phi, 307)
	if err != nil {
		t.Fatal(err)
	}
	d := 12
	// Each level reveals ≤ 2/φ + 2 nodes of 3 words; plus 2(d-1) challenge
	// words.
	bound := d*(3*(2*int(1/phi)+2)) + 2*(d-1)
	if stats.CommWords() > bound {
		t.Errorf("communication %d words exceeds O(1/φ·log u) bound %d", stats.CommWords(), bound)
	}
}

// TestHeavyHittersOmissionCaught: a prover that hides one heavy hitter
// (rewriting its subtree as light) must be rejected.
func TestHeavyHittersOmissionCaught(t *testing.T) {
	const u = 256
	ups := []stream.Update{
		{Index: 10, Delta: 500}, {Index: 200, Delta: 400}, {Index: 3, Delta: 40},
	}
	proto, err := NewHeavyHitters(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(308)
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyAug, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.Params), stream.SumDeltas(ups), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(0.3); err != nil { // threshold = 282
		t.Fatal(err)
	}
	if err := p.SetQuery(0.3); err != nil {
		t.Fatal(err)
	}
	// Tamper: wherever index 200's subtree appears, understate its count.
	tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
		for i := 0; i+1 < len(m.Ints); i += 2 {
			if m.Ints[i+1] >= 282 && m.Ints[i] != 10 && r > 0 {
				m.Ints[i+1] = 1
			}
		}
		return m
	}}
	if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("omitted heavy hitter not rejected: %v", err)
	}
}

// TestHeavyHittersInflationCaught: inflating a count to fake a heavy
// hitter breaks the count-augmented hash chain.
func TestHeavyHittersInflationCaught(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(309)
	ups, err := stream.Zipf(u, 5000, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewHeavyHitters(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyAug, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.Params), stream.SumDeltas(ups), 0))
	observeAll(t, v, ups)
	if err := v.SetQuery(0.05); err != nil {
		t.Fatal(err)
	}
	if err := p.SetQuery(0.05); err != nil {
		t.Fatal(err)
	}
	tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
		if r == 0 && len(m.Ints) >= 2 {
			m.Ints[1] += 5 // inflate the first leaf count
		}
		return m
	}}
	if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("inflated count not rejected: %v", err)
	}
}

func TestThreshold(t *testing.T) {
	cases := []struct {
		phi  float64
		n    int64
		want int64
	}{
		{0.1, 100, 10}, {0.1, 101, 11}, {0.5, 3, 2}, {0.001, 10, 1}, {1, 7, 7},
	}
	for _, c := range cases {
		if got := Threshold(c.phi, c.n); got != c.want {
			t.Errorf("Threshold(%v,%d) = %d, want %d", c.phi, c.n, got, c.want)
		}
	}
}

// ---------------------------------------------------------------------
// Frequency-based functions

func runF0(t *testing.T, u uint64, ups []stream.Update, phi float64, seed uint64) (field.Elem, Stats, error) {
	t.Helper()
	proto, err := NewF0(f61, u, phi)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(seed)
	v := proto.Adopt(DrawSummary(proto.F, proto.TreeParams.D, FamilyPoint|FamilyAug, rng))
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.TreeParams), stream.SumDeltas(ups), 0))
	observeAll(t, v, ups)
	stats, err := Run(p, v)
	if err != nil {
		return 0, stats, err
	}
	res, err := v.Result()
	return res, stats, err
}

// TestF0EndToEnd: the verified F0 is the number of nonzero counts, on a
// skewed stream, a stream of distinct items, and one giant item beside
// singletons (the heavy removal and the residual sum-check both run).
func TestF0EndToEnd(t *testing.T) {
	zipf, err := stream.Zipf(256, 1000, 1.2, field.NewSplitMix64(310))
	if err != nil {
		t.Fatal(err)
	}
	var distinct []stream.Update
	for i := uint64(0); i < 128; i += 2 {
		distinct = append(distinct, stream.Update{Index: i, Delta: 1})
	}
	skew := []stream.Update{{Index: 5, Delta: 300}, {Index: 9, Delta: 1}, {Index: 60, Delta: 2}}
	for _, tc := range []struct {
		u   uint64
		ups []stream.Update
	}{{256, zipf}, {128, distinct}, {64, skew}} {
		t.Run(fmt.Sprintf("u=%d", tc.u), func(t *testing.T) {
			got, _, err := runF0(t, tc.u, tc.ups, 0, 311) // default φ = u^{-1/2}
			if err != nil {
				t.Fatalf("u=%d: F0 rejected: %v", tc.u, err)
			}
			a, _ := stream.Apply(tc.ups, tc.u)
			var want field.Elem
			for _, c := range a {
				if c != 0 {
					want++
				}
			}
			if got != want {
				t.Fatalf("u=%d: F0 = %d, want %d", tc.u, got, want)
			}
		})
	}
}

func TestInverseDistributionEndToEnd(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(314)
	ups, err := stream.Zipf(u, 2000, 1.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := stream.Apply(ups, u)
	for _, k := range []int64{1, 2, 3, 7} {
		proto, err := NewInverseDistribution(f61, u, 0, k)
		if err != nil {
			t.Fatal(err)
		}
		rng2 := field.NewSplitMix64(315)
		v := proto.Adopt(DrawSummary(proto.F, proto.TreeParams.D, FamilyPoint|FamilyAug, rng2))
		p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, ups, proto.TreeParams), stream.SumDeltas(ups), 0))
		observeAll(t, v, ups)
		if _, err := Run(p, v); err != nil {
			t.Fatalf("inverse-dist k=%d rejected: %v", k, err)
		}
		var want field.Elem
		for _, c := range a {
			if c == k {
				want++
			}
		}
		got, err := v.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("inverse-dist k=%d = %d, want %d", k, got, want)
		}
	}
	if _, err := NewInverseDistribution(f61, u, 0, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

// ---------------------------------------------------------------------
// Fmax

// TestFmaxEndToEnd: the verified Fmax is the largest count, on a skewed
// stream and on a stream of distinct items (lb = 1, and the residual
// check must pass).
func TestFmaxEndToEnd(t *testing.T) {
	zipf, err := stream.Zipf(256, 3000, 1.5, field.NewSplitMix64(319))
	if err != nil {
		t.Fatal(err)
	}
	var distinct []stream.Update
	for i := uint64(0); i < 40; i++ {
		distinct = append(distinct, stream.Update{Index: i, Delta: 1})
	}
	for _, tc := range []struct {
		u   uint64
		ups []stream.Update
	}{{256, zipf}, {64, distinct}} {
		t.Run(fmt.Sprintf("u=%d", tc.u), func(t *testing.T) {
			proto, err := NewFmax(f61, tc.u, 0)
			if err != nil {
				t.Fatal(err)
			}
			v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyTree|FamilyPoint|FamilyAug, field.NewSplitMix64(320)))
			p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, tc.ups, proto.Params), stream.SumDeltas(tc.ups), 0))
			observeAll(t, v, tc.ups)
			if _, err := Run(p, v); err != nil {
				t.Fatalf("u=%d: Fmax rejected: %v", tc.u, err)
			}
			a, _ := stream.Apply(tc.ups, tc.u)
			want := slices.Max(a)
			if got, err := v.Result(); err != nil || got != want {
				t.Fatalf("u=%d: Fmax = %d, %v; want %d", tc.u, got, err, want)
			}
		})
	}
}

func TestFmaxEmptyStreamProverErrors(t *testing.T) {
	proto, err := NewFmax(f61, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := must(proto.NewProverFromSkeleton(skeletonOf(t, proto.F, nil, proto.Params), 0, 0))
	if _, err := p.Open(); err == nil {
		t.Error("empty-stream Fmax accepted by prover")
	}
}
