package hashtree

import (
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// TestIncrementalMatchesBatch: revealing the randomness level by level
// produces exactly the tree that Build produces with full knowledge, plain
// and augmented, and at Workers 2 on a dense 2^14-leaf table, whose wide
// levels Extend splits into blocks.
func TestIncrementalMatchesBatch(t *testing.T) {
	for _, tc := range []struct {
		d         int
		augmented bool
		workers   int
	}{{7, false, 0}, {7, true, 0}, {14, true, 2}} {
		params, err := NewParams(tc.d)
		if err != nil {
			t.Fatal(err)
		}
		rng := field.NewSplitMix64(81)
		var h *Hasher
		if tc.augmented {
			h = NewAugmentedHasher(f61, params, rng)
		} else {
			h = NewHasher(f61, params, rng)
		}
		ups := stream.UnitIncrements(params.U, 400, rng)
		if tc.workers > 0 {
			ups = stream.UniformDeltas(params.U, 100, rng)
		}
		batch, err := Build(h, ups)
		if err != nil {
			t.Fatal(err)
		}
		inc, err := NewIncremental(f61, params, ups)
		if err != nil {
			t.Fatal(err)
		}
		inc.Workers = tc.workers
		if inc.BuiltLevels() != 0 {
			t.Fatalf("fresh incremental tree has %d levels", inc.BuiltLevels())
		}
		for j := 1; j <= params.D; j++ {
			var q field.Elem
			if tc.augmented {
				q = h.Q[j-1]
			}
			if err := inc.Extend(h.R[j-1], q); err != nil {
				t.Fatal(err)
			}
			lv := heldNodes(inc)
			want := batch.Level(j)
			if len(lv) != len(want) {
				t.Fatalf("%+v level %d: %d nodes, want %d", tc, j, len(lv), len(want))
			}
			for i := range lv {
				if lv[i] != want[i] {
					t.Fatalf("%+v level %d node %d: %+v, want %+v", tc, j, i, lv[i], want[i])
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
	if c := inc.sk.countAt(1, 0); c != 3 {
		t.Errorf("count at (1,0) = %d; want 3", c)
	}
	if c := inc.sk.countAt(4, 0); c != 7 {
		t.Errorf("root count = %d; want 7", c)
	}
	n, err := inc.Node(0, 1)
	if err != nil || n.Count != 3 {
		t.Fatalf("leaf 1 = %+v, %v", n, err)
	}
	got, vals := inc.sk.LeavesInRange(0, 8)
	if len(got) != 1 || got[0] != 1 || len(vals) != 1 || vals[0] != 3 {
		t.Fatalf("LeavesInRange = %v, %v", got, vals)
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

// TestHeldLevelOnly: a tree holds the hashes of one level, the one it
// last built, and Node and HeavyChildren refuse every other level, below
// it as well as above.
func TestHeldLevelOnly(t *testing.T) {
	params, err := NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	ups := []stream.Update{{Index: 1, Delta: 3}, {Index: 2, Delta: 5}, {Index: 9, Delta: 4}}
	inc, err := NewIncremental(f61, params, ups)
	if err != nil {
		t.Fatal(err)
	}
	for j := 1; j <= 2; j++ {
		if err := inc.Extend(field.Elem(j+6), 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, level := range []int{0, 1, 3} {
		if _, err := inc.Node(level, 0); err == nil {
			t.Errorf("Node(%d, 0) accepted while holding level 2", level)
		}
		if _, err := inc.HeavyChildren(level, 1); err == nil {
			t.Errorf("HeavyChildren(%d, 1) accepted while holding level 2", level)
		}
	}
	if n, err := inc.Node(2, 0); err != nil || n.Count != 8 {
		t.Fatalf("held node (2,0) = %+v, %v", n, err)
	}
	if kids, err := inc.HeavyChildren(2, 1); err != nil || len(kids) != 4 {
		t.Fatalf("HeavyChildren(2,1) = %+v, %v; want both sibling pairs", kids, err)
	}
}

// TestSkeletonFromChunks: a table held in chunks — nil, dense and sparse,
// negative counts included — builds the skeleton of the same table held
// flat, and the skeleton allocates what SkeletonBytes says.
func TestSkeletonFromChunks(t *testing.T) {
	params, err := NewParams(6)
	if err != nil {
		t.Fatal(err)
	}
	flat := make([]int64, params.U)
	flat[17], flat[20], flat[31] = 4, -2, 1 // chunk 1, dense
	flat[40], flat[45] = 7, 9               // chunk 2, sparse
	dense := slices.Clone(flat[16:32])
	chunked := sumcheck.Counts{
		Width:   16,
		Chunks:  [][]int64{nil, dense, {7, 9}, {}},
		Offsets: [][]uint16{nil, nil, {8, 13}, {}},
	}
	want, err := NewSkeleton(f61, params, sumcheck.Flat(flat))
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewSkeleton(f61, params, chunked)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.idx, want.idx) || !slices.Equal(got.counts, want.counts) ||
		!slices.Equal(got.off, want.off) || !slices.Equal(got.vals, want.vals) {
		t.Fatalf("chunked skeleton %+v, flat %+v", got, want)
	}
	leaves, counts := got.Leaves()
	if !slices.Equal(leaves, []uint64{17, 20, 31, 40, 45}) || !slices.Equal(counts, []int64{4, -2, 1, 7, 9}) {
		t.Fatalf("leaves %v, counts %v", leaves, counts)
	}
	if b := 16*int64(cap(got.idx)) + 8*int64(cap(got.vals)); b != SkeletonBytes(params, len(leaves)) {
		t.Errorf("skeleton allocates %d bytes, SkeletonBytes says %d", b, SkeletonBytes(params, len(leaves)))
	}
	bad := chunked
	bad.Offsets = [][]uint16{nil, nil, {8}, {}}
	if _, err := NewSkeleton(f61, params, bad); err == nil {
		t.Error("sparse chunk with fewer offsets than counts accepted")
	}
	if _, err := NewSkeleton(f61, params, sumcheck.Flat(flat[:32])); err == nil {
		t.Error("short count table accepted")
	}
}
