package hashtree

import (
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestIncrementalMatchesBatch: revealing the randomness level by level
// produces exactly the tree that Build produces with full knowledge.
func TestIncrementalMatchesBatch(t *testing.T) {
	params, err := NewParams(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, augmented := range []bool{false, true} {
		rng := field.NewSplitMix64(81)
		var h *Hasher
		if augmented {
			h = NewAugmentedHasher(f61, params, rng)
		} else {
			h = NewHasher(f61, params, rng)
		}
		ups := stream.UnitIncrements(params.U, 400, rng)
		batch, err := Build(h, ups)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(f61, params, ups)
		if err != nil {
			t.Fatal(err)
		}
		if inc.BuiltLevels() != 0 {
			t.Fatalf("fresh incremental tree has %d levels", inc.BuiltLevels())
		}
		for j := 1; j <= params.D; j++ {
			var q field.Elem
			if augmented {
				q = h.Q[j-1]
			}
			if err := inc.Extend(h.R[j-1], q); err != nil {
				t.Fatal(err)
			}
			lv := inc.levels[j]
			want := batch.Level(j)
			if len(lv) != len(want) {
				t.Fatalf("aug=%v level %d: %d nodes, want %d", augmented, j, len(lv), len(want))
			}
			for i := range lv {
				if lv[i] != want[i] {
					t.Fatalf("aug=%v level %d node %d: %+v, want %+v", augmented, j, i, lv[i], want[i])
				}
			}
		}
		if err := inc.Extend(1, 0); err == nil {
			t.Error("extend past root accepted")
		}
	}
}

func TestIncrementalAccess(t *testing.T) {
	params, err := NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	ups := []stream.Update{{Index: 1, Delta: 3}, {Index: 9, Delta: 4}}
	inc, err := NewIncremental(f61, params, ups)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Node(1, 0); err == nil {
		t.Error("unbuilt level access accepted")
	}
	// Level-0 hashes (the leaf values) are available before any Extend, so
	// HeavyChildren(0, ·) works immediately — the heavy-hitters prover
	// depends on this. Level 1 requires randomness.
	if kids, err := inc.HeavyChildren(0, 1); err != nil || len(kids) != 4 {
		t.Errorf("HeavyChildren(0,1) = %v, %v; want both sibling pairs", kids, err)
	}
	if _, err := inc.HeavyChildren(1, 1); err == nil {
		t.Error("heavy children on unbuilt level accepted")
	}
	if c := inc.lookup(1, 0).Count; c != 3 {
		t.Errorf("count at (1,0) = %d; want 3", c)
	}
	if c := inc.lookup(4, 0).Count; c != 7 {
		t.Errorf("root count = %d; want 7", c)
	}
	n, err := inc.Node(0, 1)
	if err != nil || n.Count != 3 {
		t.Fatalf("leaf 1 = %+v, %v", n, err)
	}
	got := inc.LeavesInRange(0, 8)
	if len(got) != 1 || got[0].Index != 1 {
		t.Fatalf("LeavesInRange = %+v", got)
	}
	if err := inc.Extend(7, 0); err != nil {
		t.Fatal(err)
	}
	n, err = inc.Node(1, 0)
	if err != nil || n.Hash != f61.Add(0, f61.Mul(7, 3)) {
		t.Fatalf("level-1 node 0 = %+v, %v", n, err)
	}
	if _, err := NewIncremental(f61, params, []stream.Update{{Index: 99, Delta: 1}}); err == nil {
		t.Error("out-of-universe update accepted")
	}
}
