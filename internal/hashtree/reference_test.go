package hashtree

import (
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// The tests' reference trees. A prover builds a Skeleton from maintained
// counts (NewSkeleton) and hashes an IncrementalTree over it one level
// per revealed round; the tests check it against Tree, hashed whole with
// all the randomness known, and derive both trees' leaves by aggregating
// a raw update stream (Build, NewIncremental).

// NewParams returns the shape for height d ∈ [1, 61].
func NewParams(d int) (Params, error) {
	if d < 1 || d > 61 {
		return Params{}, fmt.Errorf("hashtree: height %d out of [1,61]", d)
	}
	return Params{D: d, U: 1 << d}, nil
}

// leavesOf aggregates updates over [0, u) into sorted nonzero leaves.
func leavesOf(f field.Field, u uint64, updates []stream.Update) ([]Node, error) {
	agg := make(map[uint64]int64, len(updates))
	for _, up := range updates {
		if up.Index >= u {
			return nil, fmt.Errorf("hashtree: index %d outside universe [0,%d)", up.Index, u)
		}
		agg[up.Index] += up.Delta
	}
	leaves := make([]Node, 0, len(agg))
	for i, c := range agg {
		if c == 0 {
			continue
		}
		leaves = append(leaves, Node{Index: i, Hash: f.FromInt64(c), Count: c})
	}
	sort.Slice(leaves, func(a, b int) bool { return leaves[a].Index < leaves[b].Index })
	return leaves, nil
}

// Build constructs the tree bottom-up from the leaf multiset defined by
// the updates (aggregated, zero entries dropped).
func Build(h *Hasher, updates []stream.Update) (*Tree, error) {
	leaves, err := leavesOf(h.F, h.Params.U, updates)
	if err != nil {
		return nil, err
	}
	return BuildFromLeaves(h, leaves)
}

// NewIncremental aggregates the updates into a flat count table and
// builds a serial tree over its skeleton, as a prover does from
// maintained counts.
func NewIncremental(f field.Field, params Params, updates []stream.Update) (*IncrementalTree, error) {
	counts, err := stream.Apply(updates, params.U)
	if err != nil {
		return nil, err
	}
	sk, err := NewSkeleton(f, params, sumcheck.Flat(counts))
	if err != nil {
		return nil, err
	}
	return sk.NewTree(0), nil
}

// heldNodes returns the level t holds as nodes, sorted by index.
func heldNodes(t *IncrementalTree) []Node {
	idx, counts := t.sk.level(t.level)
	out := make([]Node, len(idx))
	for k := range idx {
		out[k] = Node{Index: idx[k], Hash: t.hashes[k], Count: counts[k]}
	}
	return out
}

// countAt returns the subtree count of the node at (level, index), 0 for
// an absent node.
func (s *Skeleton) countAt(level int, index uint64) int64 {
	idx, counts := s.level(level)
	k := sort.Search(len(idx), func(i int) bool { return idx[i] >= index })
	if k < len(idx) && idx[k] == index {
		return counts[k]
	}
	return 0
}

// Tree is the whole tree at once, every level hashed with all the
// randomness known: per level, the nodes with nonzero subtrees, sorted by
// index. It is the reference the prover's IncrementalTree, which hashes
// one level per revealed round, is checked against. Size is O(min(u, n·log(u/n))) as in
// Theorem 5. Absent nodes hash to 0 (an all-zero subtree hashes to 0
// with count 0).
type Tree struct {
	H      *Hasher
	levels [][]Node
}

// BuildFromLeaves constructs the tree from pre-aggregated leaves, which
// must be sorted by index with distinct indices; a leaf's Hash must be the
// field image of its Count.
func BuildFromLeaves(h *Hasher, leaves []Node) (*Tree, error) {
	for i := range leaves {
		if leaves[i].Index >= h.Params.U {
			return nil, fmt.Errorf("hashtree: leaf index %d outside universe", leaves[i].Index)
		}
		if i > 0 && leaves[i-1].Index >= leaves[i].Index {
			return nil, fmt.Errorf("hashtree: leaves not sorted/distinct at %d", i)
		}
		if leaves[i].Hash != h.F.FromInt64(leaves[i].Count) {
			return nil, fmt.Errorf("hashtree: leaf %d hash/count mismatch", leaves[i].Index)
		}
	}
	t := &Tree{H: h, levels: make([][]Node, h.Params.D+1)}
	t.levels[0] = leaves
	f := h.F
	for j := 1; j <= h.Params.D; j++ {
		prev := t.levels[j-1]
		var cur []Node
		for i := 0; i < len(prev); {
			parent := prev[i].Index >> 1
			var left, right field.Elem
			var count int64
			for ; i < len(prev) && prev[i].Index>>1 == parent; i++ {
				if prev[i].Index&1 == 0 {
					left = prev[i].Hash
				} else {
					right = prev[i].Hash
				}
				count += prev[i].Count
			}
			cur = append(cur, Node{
				Index: parent,
				Hash:  h.Combine(j, left, right, f.FromInt64(count)),
				Count: count,
			})
		}
		t.levels[j] = cur
	}
	return t, nil
}

// Root returns the root hash (0 for an empty tree).
func (t *Tree) Root() field.Elem {
	top := t.levels[t.H.Params.D]
	if len(top) == 0 {
		return 0
	}
	return top[0].Hash
}

// Node returns the node at (level, index); absent nodes are the implicit
// all-zero node.
func (t *Tree) Node(level int, index uint64) Node {
	nodes := t.levels[level]
	k := sort.Search(len(nodes), func(i int) bool { return nodes[i].Index >= index })
	if k < len(nodes) && nodes[k].Index == index {
		return nodes[k]
	}
	return Node{Index: index}
}

// Level returns the materialized nodes of one level (sorted by index).
func (t *Tree) Level(level int) []Node { return t.levels[level] }

// LeavesInRange returns the nonzero leaves with qL ≤ index ≤ qR.
func (t *Tree) LeavesInRange(qL, qR uint64) []Node {
	leaves := t.levels[0]
	lo := sort.Search(len(leaves), func(i int) bool { return leaves[i].Index >= qL })
	hi := sort.Search(len(leaves), func(i int) bool { return leaves[i].Index > qR })
	return leaves[lo:hi]
}

// HeavyChildren returns, for level l, all nodes that are children of
// level-(l+1) nodes with Count ≥ threshold — the per-round message of the
// §6.1 heavy-hitters protocol. Children with zero subtrees are
// materialized explicitly so the verifier always sees complete sibling
// pairs.
func (t *Tree) HeavyChildren(l int, threshold int64) []Node {
	parents := t.levels[l+1]
	var out []Node
	for _, p := range parents {
		if p.Count < threshold {
			continue
		}
		out = append(out, t.Node(l, 2*p.Index), t.Node(l, 2*p.Index+1))
	}
	return out
}

// Size returns the total number of materialized nodes, the prover's space
// in Theorem 5's accounting.
func (t *Tree) Size() int {
	n := 0
	for _, lv := range t.levels {
		n += len(lv)
	}
	return n
}
