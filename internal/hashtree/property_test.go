package hashtree

import (
	"testing"
	"testing/quick"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestRootLinearityQuick: the root hash is linear in the leaf vector —
// t(a+b) = t(a) + t(b) — with and without augmentation.
// Linearity is the property that makes streaming maintenance (Eq. 8)
// possible at all.
func TestRootLinearityQuick(t *testing.T) {
	params, err := NewParams(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, augmented := range []bool{false, true} {
		hrng := field.NewSplitMix64(91)
		var h *Hasher
		if augmented {
			h = NewAugmentedHasher(f61, params, hrng)
		} else {
			h = NewHasher(f61, params, hrng)
		}
		check := func(seed uint64) bool {
			rng := field.NewSplitMix64(seed)
			upsA := stream.UnitIncrements(params.U, 30, rng)
			upsB := stream.UnitIncrements(params.U, 30, rng)
			evA, evB, evAB := NewRootEvaluator(h), NewRootEvaluator(h), NewRootEvaluator(h)
			for _, u := range upsA {
				_ = evA.Update(u.Index, u.Delta)
				_ = evAB.Update(u.Index, u.Delta)
			}
			for _, u := range upsB {
				_ = evB.Update(u.Index, u.Delta)
				_ = evAB.Update(u.Index, u.Delta)
			}
			return evAB.Root() == f61.Add(evA.Root(), evB.Root())
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
			t.Errorf("aug=%v: %v", augmented, err)
		}
	}
}

// TestRootOrderInvarianceQuick: the root does not depend on the order of
// stream updates (it is a function of the aggregated vector only).
func TestRootOrderInvarianceQuick(t *testing.T) {
	params, err := NewParams(6)
	if err != nil {
		t.Fatal(err)
	}
	h := NewAugmentedHasher(f61, params, field.NewSplitMix64(92))
	check := func(seed uint64) bool {
		rng := field.NewSplitMix64(seed)
		ups := stream.UnitIncrements(params.U, 40, rng)
		fwd, rev := NewRootEvaluator(h), NewRootEvaluator(h)
		for _, u := range ups {
			_ = fwd.Update(u.Index, u.Delta)
		}
		for i := len(ups) - 1; i >= 0; i-- {
			_ = rev.Update(ups[i].Index, ups[i].Delta)
		}
		return fwd.Root() == rev.Root() && fwd.Total() == rev.Total()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestCancellationQuick: inserting then deleting the same item restores
// the root exactly (turnstile updates).
func TestCancellationQuick(t *testing.T) {
	params, err := NewParams(6)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHasher(f61, params, field.NewSplitMix64(93))
	check := func(seed uint64) bool {
		rng := field.NewSplitMix64(seed)
		base := stream.UnitIncrements(params.U, 20, rng)
		ev := NewRootEvaluator(h)
		for _, u := range base {
			_ = ev.Update(u.Index, u.Delta)
		}
		before := ev.Root()
		idx := rng.Uint64() % params.U
		_ = ev.Update(idx, 5)
		_ = ev.Update(idx, -5)
		return ev.Root() == before
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
