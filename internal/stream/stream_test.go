package stream

import (
	"slices"
	"testing"

	"repro/internal/field"
)

func TestApply(t *testing.T) {
	ups := []Update{{0, 5}, {3, 2}, {0, -3}, {7, 1}}
	a, err := Apply(ups, 8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 0, 0, 2, 0, 0, 0, 1}
	for i := range want {
		if a[i] != want[i] {
			t.Errorf("a[%d] = %d, want %d", i, a[i], want[i])
		}
	}
	if _, err := Apply([]Update{{8, 1}}, 8); err == nil {
		t.Error("out-of-universe index accepted")
	}
}

func TestSumDeltas(t *testing.T) {
	if got := SumDeltas([]Update{{0, 5}, {1, -2}, {2, 3}}); got != 6 {
		t.Errorf("SumDeltas = %d, want 6", got)
	}
	if got := SumDeltas(nil); got != 0 {
		t.Errorf("SumDeltas(nil) = %d", got)
	}
}

func TestUniformDeltas(t *testing.T) {
	rng := field.NewSplitMix64(1)
	ups := UniformDeltas(100, 1000, rng)
	if len(ups) != 100 {
		t.Fatalf("len = %d", len(ups))
	}
	for i, u := range ups {
		if u.Index != uint64(i) {
			t.Fatalf("index %d = %d", i, u.Index)
		}
		if u.Delta < 0 || u.Delta > 1000 {
			t.Fatalf("delta %d out of [0,1000]", u.Delta)
		}
	}
	// Deterministic under the same seed.
	again := UniformDeltas(100, 1000, field.NewSplitMix64(1))
	for i := range ups {
		if ups[i] != again[i] {
			t.Fatal("not deterministic")
		}
	}
}

func TestUnitIncrements(t *testing.T) {
	rng := field.NewSplitMix64(2)
	ups := UnitIncrements(50, 500, rng)
	if len(ups) != 500 {
		t.Fatalf("len = %d", len(ups))
	}
	for _, u := range ups {
		if u.Delta != 1 {
			t.Fatalf("delta = %d, want 1", u.Delta)
		}
		if u.Index >= 50 {
			t.Fatalf("index %d out of range", u.Index)
		}
	}
	if SumDeltas(ups) != 500 {
		t.Fatal("unit increments must sum to n")
	}
}

func TestZipfSkew(t *testing.T) {
	rng := field.NewSplitMix64(3)
	ups, err := Zipf(1000, 20000, 1.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Apply(ups, 1000)
	if err != nil {
		t.Fatal(err)
	}
	// Zipf mass concentrates at low indices: item 0 should dominate the
	// tail item 999 by a large factor, and the head should hold most mass.
	if a[0] < 50*max64(a[999], 1) {
		t.Errorf("zipf not skewed: a[0]=%d a[999]=%d", a[0], a[999])
	}
	var head int64
	for _, v := range a[:10] {
		head += v
	}
	if head < 20000/4 {
		t.Errorf("top-10 mass %d too small for zipf(1.2)", head)
	}
	if _, err := Zipf(0, 10, 1.0, rng); err == nil {
		t.Error("u=0 accepted")
	}
	if _, err := Zipf(10, 10, 0, rng); err == nil {
		t.Error("s=0 accepted")
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// TestDistinctKV: n pairs with distinct keys below u, sorted by key,
// values at most maxValue, the same for the same seed — up to n = u,
// where every key appears once — and n > u is refused.
func TestDistinctKV(t *testing.T) {
	for _, tc := range []struct{ u, n, maxValue uint64 }{{1000, 200, 99}, {64, 64, 3}} {
		pairs, err := DistinctKV(tc.u, int(tc.n), tc.maxValue, field.NewSplitMix64(4))
		if err != nil {
			t.Fatal(err)
		}
		again, err := DistinctKV(tc.u, int(tc.n), tc.maxValue, field.NewSplitMix64(4))
		if err != nil || !slices.Equal(pairs, again) {
			t.Fatalf("%+v: a second draw on the seed differs (%v)", tc, err)
		}
		if uint64(len(pairs)) != tc.n {
			t.Fatalf("%+v: len = %d", tc, len(pairs))
		}
		for i, p := range pairs {
			if p.Key >= tc.u || p.Value > tc.maxValue || i > 0 && pairs[i-1].Key >= p.Key {
				t.Fatalf("%+v: pair %d = %+v out of range or order", tc, i, p)
			}
		}
	}
	if _, err := DistinctKV(10, 11, 5, field.NewSplitMix64(5)); err == nil {
		t.Error("n > u accepted")
	}
}

func TestKVUpdates(t *testing.T) {
	pairs := []KVPair{{Key: 2, Value: 0}, {Key: 5, Value: 17}, {Key: 9, Value: 1 << 40}}
	ups := KVUpdates(pairs)
	want := []Update{{2, 0}, {5, 17}, {9, 1 << 40}}
	if len(ups) != len(want) {
		t.Fatalf("len = %d, want %d", len(ups), len(want))
	}
	for i := range want {
		if ups[i] != want[i] {
			t.Errorf("update %d = %v, want %v", i, ups[i], want[i])
		}
	}
	if got := KVUpdates(nil); len(got) != 0 {
		t.Errorf("KVUpdates(nil) has %d updates", len(got))
	}
}
