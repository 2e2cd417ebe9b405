package hashtree

import (
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

func TestParams(t *testing.T) {
	p, err := NewParams(10)
	if err != nil || p.U != 1024 {
		t.Fatalf("NewParams(10) = %+v, %v", p, err)
	}
	for _, bad := range []int{0, -1, 62} {
		if _, err := NewParams(bad); err == nil {
			t.Errorf("NewParams(%d) accepted", bad)
		}
	}
	p, err = ParamsForUniverse(1000)
	if err != nil || p.D != 10 {
		t.Fatalf("ParamsForUniverse(1000) = %+v, %v", p, err)
	}
	p, err = ParamsForUniverse(1)
	if err != nil || p.D != 1 {
		t.Fatalf("ParamsForUniverse(1) = %+v, %v", p, err)
	}
	if _, err := ParamsForUniverse(0); err == nil {
		t.Error("ParamsForUniverse(0) accepted")
	}
}

// TestPaperExample reproduces Figure 1 of the paper: vector
// [2,3,8,1,7,6,4,3] with all hash parameters fixed to 1 gives a root of 34
// and the internal hashes shown in the figure.
func TestPaperExample(t *testing.T) {
	params, err := NewParams(3)
	if err != nil {
		t.Fatal(err)
	}
	h := &Hasher{F: f61, Params: params, Kind: Affine, R: []field.Elem{1, 1, 1}}
	vals := []int64{2, 3, 8, 1, 7, 6, 4, 3}
	var ups []stream.Update
	for i, v := range vals {
		ups = append(ups, stream.Update{Index: uint64(i), Delta: v})
	}
	tree, err := Build(h, ups)
	if err != nil {
		t.Fatal(err)
	}
	if got := tree.Root(); got != 34 {
		t.Fatalf("root = %d, want 34 (paper Figure 1)", got)
	}
	// Level-1 hashes in the figure: 5, 9, 13, 7.
	for i, want := range []field.Elem{5, 9, 13, 7} {
		if got := tree.Node(1, uint64(i)).Hash; got != want {
			t.Errorf("level-1 node %d = %d, want %d", i, got, want)
		}
	}
	// Level-2 hashes: 14, 20.
	for i, want := range []field.Elem{14, 20} {
		if got := tree.Node(2, uint64(i)).Hash; got != want {
			t.Errorf("level-2 node %d = %d, want %d", i, got, want)
		}
	}
	// Streaming evaluator agrees.
	ev := NewRootEvaluator(h)
	for _, u := range ups {
		if err := ev.Update(u.Index, u.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if ev.Root() != 34 {
		t.Fatalf("streaming root = %d, want 34", ev.Root())
	}
}

// TestStreamingMatchesTree: the O(log u)-space streaming root equals the
// materialized tree's root for random streams, for plain and augmented
// hashers of both kinds, over the Mersenne and a generic field.
func TestStreamingMatchesTree(t *testing.T) {
	params, err := NewParams(9)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := field.New(1000003)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []field.Field{f61, generic} {
		for _, kind := range []Kind{Affine, Multilinear} {
			for _, augmented := range []bool{false, true} {
				rng := field.NewSplitMix64(61)
				var h *Hasher
				if augmented {
					h = NewAugmentedHasher(f, params, kind, rng)
				} else {
					h = NewHasher(f, params, kind, rng)
				}
				ups := stream.UnitIncrements(params.U, 2000, rng)
				ups = append(ups, stream.Update{Index: 5, Delta: -3})
				ev := NewRootEvaluator(h)
				for _, u := range ups {
					if err := ev.Update(u.Index, u.Delta); err != nil {
						t.Fatal(err)
					}
				}
				tree, err := Build(h, ups)
				if err != nil {
					t.Fatal(err)
				}
				if ev.Root() != tree.Root() {
					t.Fatalf("p=%d kind=%v aug=%v: streaming root %d ≠ tree root %d", f.Modulus(), kind, augmented, ev.Root(), tree.Root())
				}
				if ev.Total() != stream.SumDeltas(ups) {
					t.Fatalf("Total() = %d, want %d", ev.Total(), stream.SumDeltas(ups))
				}
			}
		}
	}
}

// TestMultilinearRootIsLDE verifies the App. B.2 remark: with the
// multilinear hash, the root equals the multilinear extension f_a(r)
// evaluated at the level randomness — tying this package to internal/lde.
func TestMultilinearRootIsLDE(t *testing.T) {
	params, err := NewParams(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(62)
	h := NewHasher(f61, params, Multilinear, rng)
	ups := stream.UnitIncrements(params.U, 500, rng)
	ev := NewRootEvaluator(h)
	for _, u := range ups {
		if err := ev.Update(u.Index, u.Delta); err != nil {
			t.Fatal(err)
		}
	}
	ldeParams, err := lde.NewParams(2, params.D)
	if err != nil {
		t.Fatal(err)
	}
	// Level j of the tree consumes bit j-1, i.e. LDE dimension j-1.
	pt, err := lde.NewPoint(f61, ldeParams, h.R)
	if err != nil {
		t.Fatal(err)
	}
	lev := lde.NewEvaluator(pt)
	for _, u := range ups {
		if err := lev.Update(u.Index, u.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if ev.Root() != lev.Value() {
		t.Fatalf("multilinear root %d ≠ LDE value %d", ev.Root(), lev.Value())
	}
}

func TestTreeNodeLookupAndCounts(t *testing.T) {
	params, err := NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(63)
	h := NewAugmentedHasher(f61, params, Affine, rng)
	ups := []stream.Update{{Index: 3, Delta: 5}, {Index: 3, Delta: 2}, {Index: 12, Delta: 4}, {Index: 7, Delta: 1}, {Index: 9, Delta: 3}, {Index: 0, Delta: 2}, {Index: 1, Delta: -2}}
	tree, err := Build(h, ups)
	if err != nil {
		t.Fatal(err)
	}
	// Aggregated: a[0]=2, a[1]=-2, a[3]=7, a[7]=1, a[9]=3, a[12]=4.
	if n := tree.Node(0, 3); n.Count != 7 || n.Hash != 7 {
		t.Fatalf("leaf 3 = %+v", n)
	}
	if n := tree.Node(0, 1); n.Count != -2 || n.Hash != f61.FromInt64(-2) {
		t.Fatalf("leaf 1 = %+v", n)
	}
	if n := tree.Node(0, 2); n.Count != 0 || n.Hash != 0 {
		t.Fatalf("absent leaf 2 = %+v", n)
	}
	// Root count is the sum of all deltas.
	root := tree.Node(params.D, 0)
	if root.Count != stream.SumDeltas(ups) {
		t.Fatalf("root count %d, want %d", root.Count, stream.SumDeltas(ups))
	}
	// Counts are consistent up the tree: parent count = children counts.
	for j := 1; j <= params.D; j++ {
		for _, n := range tree.Level(j) {
			want := tree.Node(j-1, 2*n.Index).Count + tree.Node(j-1, 2*n.Index+1).Count
			if n.Count != want {
				t.Fatalf("level %d node %d count %d, want %d", j, n.Index, n.Count, want)
			}
		}
	}
}

func TestLeavesInRange(t *testing.T) {
	params, err := NewParams(5)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHasher(f61, params, Affine, field.NewSplitMix64(64))
	ups := []stream.Update{{Index: 2, Delta: 1}, {Index: 5, Delta: 1}, {Index: 6, Delta: 1}, {Index: 20, Delta: 1}, {Index: 31, Delta: 1}}
	tree, err := Build(h, ups)
	if err != nil {
		t.Fatal(err)
	}
	got := tree.LeavesInRange(5, 20)
	if len(got) != 3 || got[0].Index != 5 || got[1].Index != 6 || got[2].Index != 20 {
		t.Fatalf("LeavesInRange(5,20) = %+v", got)
	}
	if got := tree.LeavesInRange(7, 19); len(got) != 0 {
		t.Fatalf("empty range returned %+v", got)
	}
	if got := tree.LeavesInRange(0, 31); len(got) != 5 {
		t.Fatalf("full range returned %d leaves", len(got))
	}
}

func TestHeavyChildren(t *testing.T) {
	params, err := NewParams(3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewAugmentedHasher(f61, params, Affine, field.NewSplitMix64(65))
	// a = [10, 0, 0, 0, 3, 3, 0, 1]: total 17.
	ups := []stream.Update{{Index: 0, Delta: 10}, {Index: 4, Delta: 3}, {Index: 5, Delta: 3}, {Index: 7, Delta: 1}}
	tree, err := Build(h, ups)
	if err != nil {
		t.Fatal(err)
	}
	// threshold 6: heavy level-1 nodes: (0) count 10, (2) count 6.
	kids := tree.HeavyChildren(0, 6)
	if len(kids) != 4 {
		t.Fatalf("HeavyChildren(0,6) = %+v", kids)
	}
	wantIdx := []uint64{0, 1, 4, 5}
	for i, n := range kids {
		if n.Index != wantIdx[i] {
			t.Fatalf("child %d index %d, want %d", i, n.Index, wantIdx[i])
		}
	}
	// threshold 6 at level 1: heavy level-2 nodes: (0) count 10, (1) 7.
	kids = tree.HeavyChildren(1, 6)
	if len(kids) != 4 {
		t.Fatalf("HeavyChildren(1,6) = %+v", kids)
	}
	// Zero-subtree siblings must be materialized.
	if kids[1].Index != 1 || kids[1].Count != 0 || kids[1].Hash != 0 {
		t.Fatalf("zero sibling = %+v", kids[1])
	}
}

func TestBuildValidation(t *testing.T) {
	params, err := NewParams(3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHasher(f61, params, Affine, field.NewSplitMix64(66))
	if _, err := Build(h, []stream.Update{{Index: 8, Delta: 1}}); err == nil {
		t.Error("out-of-universe update accepted")
	}
	if _, err := BuildFromLeaves(h, []Node{{Index: 3, Hash: 1, Count: 1}, {Index: 3, Hash: 1, Count: 1}}); err == nil {
		t.Error("duplicate leaves accepted")
	}
	if _, err := BuildFromLeaves(h, []Node{{Index: 3, Hash: 2, Count: 1}}); err == nil {
		t.Error("hash/count mismatch accepted")
	}
	if _, err := BuildFromLeaves(h, []Node{{Index: 9, Hash: 1, Count: 1}}); err == nil {
		t.Error("out-of-universe leaf accepted")
	}
	// Cancelling updates produce an empty tree with root 0.
	tree, err := Build(h, []stream.Update{{Index: 2, Delta: 5}, {Index: 2, Delta: -5}})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root() != 0 || tree.Size() != 0 {
		t.Errorf("cancelled tree root=%d size=%d", tree.Root(), tree.Size())
	}
}

func TestRootEvaluatorValidation(t *testing.T) {
	params, err := NewParams(3)
	if err != nil {
		t.Fatal(err)
	}
	h := NewHasher(f61, params, Affine, field.NewSplitMix64(67))
	ev := NewRootEvaluator(h)
	if err := ev.Update(8, 1); err == nil {
		t.Error("out-of-universe update accepted")
	}
	if got, want := ev.SpaceWords(), params.D+2; got != want {
		t.Errorf("plain SpaceWords = %d, want %d", got, want)
	}
	aug := NewRootEvaluator(NewAugmentedHasher(f61, params, Affine, field.NewSplitMix64(68)))
	if got, want := aug.SpaceWords(), 2*params.D+2; got != want {
		t.Errorf("augmented SpaceWords = %d, want %d", got, want)
	}
}

// TestRootSensitivity: changing any single leaf changes the root (with
// overwhelming probability over the hasher randomness) — the collision
// property soundness rests on.
func TestRootSensitivity(t *testing.T) {
	params, err := NewParams(6)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(69)
	h := NewHasher(f61, params, Affine, rng)
	base := stream.UnitIncrements(params.U, 100, rng)
	tree, err := Build(h, base)
	if err != nil {
		t.Fatal(err)
	}
	root := tree.Root()
	for i := uint64(0); i < params.U; i += 7 {
		perturbed := append(append([]stream.Update(nil), base...), stream.Update{Index: i, Delta: 1})
		tree2, err := Build(h, perturbed)
		if err != nil {
			t.Fatal(err)
		}
		if tree2.Root() == root {
			t.Fatalf("perturbing leaf %d left root unchanged", i)
		}
	}
}

// TestTreeSizeSparse: Theorem 5's prover space bound — for n ≪ u the tree
// materializes O(n log(u/n)) nodes, far below 2u.
func TestTreeSizeSparse(t *testing.T) {
	params, err := NewParams(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(70)
	h := NewHasher(f61, params, Affine, rng)
	const n = 64
	ups := stream.UnitIncrements(params.U, n, rng)
	tree, err := Build(h, ups)
	if err != nil {
		t.Fatal(err)
	}
	// Loose upper bound: every leaf contributes at most one node per level.
	if tree.Size() > n*(params.D+1) {
		t.Fatalf("tree size %d exceeds n(d+1) = %d", tree.Size(), n*(params.D+1))
	}
	if tree.Size() < params.D {
		t.Fatalf("tree suspiciously small: %d", tree.Size())
	}
}

func BenchmarkRootEvaluatorUpdate(b *testing.B) {
	params, err := NewParams(20)
	if err != nil {
		b.Fatal(err)
	}
	h := NewHasher(f61, params, Affine, field.NewSplitMix64(71))
	ev := NewRootEvaluator(h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.Update(uint64(i)&(params.U-1), 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTreeBuild(b *testing.B) {
	params, err := NewParams(16)
	if err != nil {
		b.Fatal(err)
	}
	rng := field.NewSplitMix64(72)
	h := NewHasher(f61, params, Affine, rng)
	ups := stream.UniformDeltas(params.U, 1000, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(h, ups); err != nil {
			b.Fatal(err)
		}
	}
}
