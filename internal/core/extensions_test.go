package core

import (
	"errors"
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
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.Params.U), stream.SumDeltas(ups)))
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

func TestHeavyHittersEndToEnd(t *testing.T) {
	const u = 1 << 10
	rng := field.NewSplitMix64(301)
	ups, err := stream.Zipf(u, 20000, 1.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.01, 0.05, 0.2} {
		hh, thr, _, err := runHeavyHitters(t, u, ups, phi, 302)
		if err != nil {
			t.Fatalf("φ=%v rejected: %v", phi, err)
		}
		want := refHeavyHitters(t, ups, u, thr)
		if len(hh) != len(want) {
			t.Fatalf("φ=%v: %d heavy hitters, want %d", phi, len(hh), len(want))
		}
		for i := range want {
			if hh[i] != want[i] {
				t.Fatalf("φ=%v hitter %d: %+v, want %+v", phi, i, hh[i], want[i])
			}
		}
	}
}

func TestHeavyHittersNoHeavyItems(t *testing.T) {
	const u = 256
	// Perfectly flat stream: every item occurs once, none reaches φn.
	var ups []stream.Update
	for i := uint64(0); i < u; i++ {
		ups = append(ups, stream.Update{Index: i, Delta: 1})
	}
	hh, thr, _, err := runHeavyHitters(t, u, ups, 0.05, 303)
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if thr != 13 { // ceil(0.05·256)
		t.Fatalf("threshold = %d, want 13", thr)
	}
	if len(hh) != 0 {
		t.Fatalf("expected no heavy hitters, got %+v", hh)
	}
}

func TestHeavyHittersSingleDominator(t *testing.T) {
	const u = 128
	ups := []stream.Update{{Index: 77, Delta: 1000}}
	for i := uint64(0); i < 50; i++ {
		ups = append(ups, stream.Update{Index: i, Delta: 1})
	}
	hh, _, _, err := runHeavyHitters(t, u, ups, 0.5, 304)
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if len(hh) != 1 || hh[0].Index != 77 || hh[0].Count != 1000 {
		t.Fatalf("heavy hitters = %+v", hh)
	}
}

func TestHeavyHittersEmptyStream(t *testing.T) {
	hh, _, _, err := runHeavyHitters(t, 64, nil, 0.1, 305)
	if err != nil {
		t.Fatalf("empty stream rejected: %v", err)
	}
	if len(hh) != 0 {
		t.Fatalf("heavy hitters = %+v", hh)
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
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.Params.U), stream.SumDeltas(ups)))
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
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.Params.U), stream.SumDeltas(ups)))
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
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.TreeParams.U), stream.SumDeltas(ups)))
	observeAll(t, v, ups)
	stats, err := Run(p, v)
	if err != nil {
		return 0, stats, err
	}
	res, err := v.Result()
	return res, stats, err
}

func TestF0EndToEnd(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(310)
	ups, err := stream.Zipf(u, 1000, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := runF0(t, u, ups, 0, 311) // default φ = u^{-1/2}
	if err != nil {
		t.Fatalf("F0 rejected: %v", err)
	}
	a, _ := stream.Apply(ups, u)
	var want field.Elem
	for _, c := range a {
		if c != 0 {
			want++
		}
	}
	if got != want {
		t.Fatalf("F0 = %d, want %d", got, want)
	}
}

func TestF0AllDistinct(t *testing.T) {
	const u = 128
	var ups []stream.Update
	for i := uint64(0); i < u; i += 2 {
		ups = append(ups, stream.Update{Index: i, Delta: 1})
	}
	got, _, err := runF0(t, u, ups, 0, 312)
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if got != 64 {
		t.Fatalf("F0 = %d, want 64", got)
	}
}

func TestF0WithHeavySkew(t *testing.T) {
	// One giant item plus a few singletons: exercises both the heavy
	// removal (F' path) and the residual sum-check.
	const u = 64
	ups := []stream.Update{{Index: 5, Delta: 300}, {Index: 9, Delta: 1}, {Index: 60, Delta: 2}}
	got, _, err := runF0(t, u, ups, 0, 313)
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if got != 3 {
		t.Fatalf("F0 = %d, want 3", got)
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
		v := proto.NewVerifier(rng2)
		p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.TreeParams.U), stream.SumDeltas(ups)))
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

// TestFrequencyBasedTamper: tampering either phase (heavy-hitter counts
// or sum-check evaluations) is caught.
func TestFrequencyBasedTamper(t *testing.T) {
	const u = 128
	rng := field.NewSplitMix64(316)
	ups, err := stream.Zipf(u, 1000, 1.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range []int{0, 3, 9, 12} {
		proto, err := NewF0(f61, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		rng2 := field.NewSplitMix64(317)
		v := proto.NewVerifier(rng2)
		p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.TreeParams.U), stream.SumDeltas(ups)))
		observeAll(t, v, ups)
		hit := false
		tp := &TamperedProver{P: p, T: func(r int, m Msg) Msg {
			if r == round && len(m.Elems) > 0 {
				m.Elems[0] = f61.Add(m.Elems[0], 1)
				hit = true
			}
			return m
		}}
		_, err = Run(tp, v)
		if hit && !errors.Is(err, ErrRejected) {
			t.Fatalf("tamper at round %d not rejected: %v", round, err)
		}
		if !hit && err != nil {
			t.Fatalf("untouched round %d rejected: %v", round, err)
		}
	}
}

// TestFrequencyBasedWrongStream: prover missing one update is caught by
// one of the two phases.
func TestFrequencyBasedWrongStream(t *testing.T) {
	const u = 128
	rng := field.NewSplitMix64(318)
	ups, err := stream.Zipf(u, 500, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewF0(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups[:len(ups)-1], proto.TreeParams.U), stream.SumDeltas(ups[:len(ups)-1])))
	observeAll(t, v, ups)
	if _, err := Run(p, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("not rejected: %v", err)
	}
}

// ---------------------------------------------------------------------
// Fmax

func TestFmaxEndToEnd(t *testing.T) {
	const u = 256
	rng := field.NewSplitMix64(319)
	ups, err := stream.Zipf(u, 3000, 1.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	proto, err := NewFmax(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.Params.U), stream.SumDeltas(ups)))
	observeAll(t, v, ups)
	if _, err := Run(p, v); err != nil {
		t.Fatalf("Fmax rejected: %v", err)
	}
	a, _ := stream.Apply(ups, u)
	var want int64
	for _, c := range a {
		if c > want {
			want = c
		}
	}
	got, err := v.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Fmax = %d, want %d", got, want)
	}
}

func TestFmaxFlatStream(t *testing.T) {
	// Maximum is 1 (all distinct): lb=1 and the residual check must pass.
	const u = 64
	var ups []stream.Update
	for i := uint64(0); i < 40; i++ {
		ups = append(ups, stream.Update{Index: i, Delta: 1})
	}
	proto, err := NewFmax(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(320)
	v := proto.NewVerifier(rng)
	p := must(proto.NewProverFromCounts(countsOf(t, ups, proto.Params.U), stream.SumDeltas(ups)))
	observeAll(t, v, ups)
	if _, err := Run(p, v); err != nil {
		t.Fatalf("rejected: %v", err)
	}
	got, err := v.Result()
	if err != nil || got != 1 {
		t.Fatalf("Fmax = %d, %v; want 1", got, err)
	}
}

// TestFmaxUnderclaimCaught: claiming a smaller maximum leaves an item
// above the bound, which the h-check counts.
func TestFmaxUnderclaimCaught(t *testing.T) {
	const u = 64
	ups := []stream.Update{{Index: 7, Delta: 9}, {Index: 12, Delta: 5}, {Index: 30, Delta: 1}}
	proto, err := NewFmax(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(321)
	v := proto.NewVerifier(rng)
	observeAll(t, v, ups)
	// The dishonest prover pretends the stream topped out at 5: it
	// proves from a doctored stream where item 7 has count 5.
	doctored := []stream.Update{{Index: 7, Delta: 5}, {Index: 12, Delta: 5}, {Index: 30, Delta: 1}}
	p := must(proto.NewProverFromCounts(countsOf(t, doctored, proto.Params.U), stream.SumDeltas(doctored)))
	if _, err := Run(p, v); !errors.Is(err, ErrRejected) {
		t.Fatalf("underclaimed Fmax not rejected: %v", err)
	}
}

func TestFmaxEmptyStreamProverErrors(t *testing.T) {
	proto, err := NewFmax(f61, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := must(proto.NewProverFromCounts(countsOf(t, nil, proto.Params.U), 0))
	if _, err := p.Open(); err == nil {
		t.Error("empty-stream Fmax accepted by prover")
	}
}
