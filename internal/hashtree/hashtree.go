// Package hashtree implements the algebraic hash tree of §4 of
// Cormode–Thaler–Yi, used by the SUB-VECTOR protocol (and hence INDEX,
// DICTIONARY, PREDECESSOR and RANGE QUERY) and, in its augmented form with
// subtree counts, by the heavy-hitters protocol of §6.1.
//
// The verifier conceptually builds a binary tree over the vector a. The
// i-th leaf holds a_i, and an internal node v at level j (leaves at level
// 0) hashes its children as
//
//	v = vL + r_j · vR                          (plain, Eq. 7)
//	v = vL + r_j · vR + q_j · c_v              (augmented, §6.1)
//
// where r_j, q_j are per-level random field elements and c_v is the
// subtree count of v. The root t is a degree-1-per-level polynomial hash
// of the whole vector; crucially it is linear in a, so the verifier can
// maintain it over the stream in O(log u) words (Eq. 8) while the prover
// materializes the (sparse) tree.
//
// The package also implements the multilinear variant
// v = (1-r_j)·vL + r_j·vR noted in the paper's App. B.2 remarks, under
// which the root equals the multilinear extension f_a(r) — a property the
// tests use to cross-check this package against internal/lde.
package hashtree

import (
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/stream"
)

// Kind selects the per-level combining function.
type Kind int

const (
	// Affine is the paper's hash: v = vL + r_j·vR (Eq. 7).
	Affine Kind = iota
	// Multilinear is the variant v = (1-r_j)·vL + r_j·vR, whose root is
	// the multilinear extension of the leaf vector (App. B.2 remarks).
	Multilinear
)

// Params fixes the tree shape: u = 2^d leaves, levels 0 (leaves) … d
// (root).
type Params struct {
	D int    // tree height = log2 u
	U uint64 // number of leaves
}

// NewParams returns the shape for height d ∈ [1, 61].
func NewParams(d int) (Params, error) {
	if d < 1 || d > 61 {
		return Params{}, fmt.Errorf("hashtree: height %d out of [1,61]", d)
	}
	return Params{D: d, U: 1 << d}, nil
}

// ParamsForUniverse returns the smallest tree covering u leaves.
func ParamsForUniverse(u uint64) (Params, error) {
	if u == 0 {
		return Params{}, fmt.Errorf("hashtree: empty universe")
	}
	d := 1
	for uint64(1)<<d < u {
		d++
		if d > 61 {
			return Params{}, fmt.Errorf("hashtree: universe %d too large", u)
		}
	}
	return Params{D: d, U: 1 << d}, nil
}

// Hasher carries the per-level randomness. R has length d (R[j-1] combines
// level j-1 children into a level-j node); Q is nil for plain trees and
// length d for augmented trees.
type Hasher struct {
	F      field.Field
	Params Params
	Kind   Kind
	R      []field.Elem
	Q      []field.Elem
}

// NewHasher samples the d level parameters r_1..r_d.
func NewHasher(f field.Field, params Params, kind Kind, rng field.RNG) *Hasher {
	return &Hasher{F: f, Params: params, Kind: kind, R: f.RandVec(rng, params.D)}
}

// NewAugmentedHasher additionally samples q_1..q_d for the subtree-count
// children of §6.1.
func NewAugmentedHasher(f field.Field, params Params, kind Kind, rng field.RNG) *Hasher {
	h := NewHasher(f, params, kind, rng)
	h.Q = f.RandVec(rng, params.D)
	return h
}

// Combine hashes the two children of a level-j node (j in 1..d). count is
// the node's subtree count and is ignored for plain hashers.
func (h *Hasher) Combine(j int, left, right, count field.Elem) field.Elem {
	f := h.F
	r := h.R[j-1]
	var v field.Elem
	switch h.Kind {
	case Multilinear:
		v = f.Add(f.Mul(f.Sub(1, r), left), f.Mul(r, right))
	default:
		v = f.Add(left, f.Mul(r, right))
	}
	if h.Q != nil {
		v = f.Add(v, f.Mul(h.Q[j-1], count))
	}
	return v
}

// ---------------------------------------------------------------------
// Streaming root (verifier side)

// RootEvaluator maintains the root hash t over a stream of updates in
// O(d) words and O(d) time per update (Eq. 8, extended to the augmented
// hash). It also tracks n = Σδ, the total count needed by the
// heavy-hitters threshold.
type RootEvaluator struct {
	h *Hasher
	// w holds the factor a level-j node applies to its child on side b:
	// at w[2(j−1)+b] in an augmented tree, in two-level windows in a
	// plain one.
	w   []field.Elem
	acc field.Elem
	n   int64
}

// NewRootEvaluator returns a streaming evaluator for h. It precomputes
// each level's two child factors, so an update selects its path's
// factors by index instead of branching on the bits of its leaf. A plain
// tree keeps them as two-level windows (field.DigitWindows): 4·⌈d/2⌉
// words, and ⌈d/2⌉ multiplies per update. An augmented tree keeps them
// per level, since its recurrence adds a count term at every level.
func NewRootEvaluator(h *Hasher) *RootEvaluator {
	f := h.F
	w := make([]field.Elem, 2*len(h.R))
	for j, r := range h.R {
		w[2*j] = 1
		if h.Kind == Multilinear {
			w[2*j] = f.Sub(1, r)
		}
		w[2*j+1] = r
	}
	if h.Q == nil {
		w = f.DigitWindows(w)
	}
	return &RootEvaluator{h: h, w: w}
}

// Update folds (i, δ) into the running root. A leaf reaches the root
// through one factor per level — the child-side factor of each ancestor —
// and, in an augmented tree, each ancestor's count gains δ at weight
// q_j times the factors above it: bottom-up, the leaf's root weight is
// x_d of x_0 = 1, x_j = x_{j−1}·factor_j + q_j (field.BitHorner), and
// without counts the plain product of the factors, two levels per window
// (field.DigitProduct).
func (e *RootEvaluator) Update(i uint64, delta int64) error {
	h := e.h
	if i >= h.Params.U {
		return fmt.Errorf("hashtree: index %d outside universe [0,%d)", i, h.Params.U)
	}
	f := h.F
	var s field.Elem
	if h.Q != nil {
		s = f.BitHorner(e.w, h.Q, i)
	} else {
		s = f.DigitProduct(e.w, 2, i)
	}
	e.acc = f.Add(e.acc, f.Mul(f.FromInt64(delta), s))
	e.n += delta
	return nil
}

// Root returns the current root hash t.
func (e *RootEvaluator) Root() field.Elem { return e.acc }

// Hasher returns the per-level randomness the root is hashed under.
func (e *RootEvaluator) Hasher() *Hasher { return e.h }

// Total returns n = Σδ (the stream length for insert-only streams).
func (e *RootEvaluator) Total() int64 { return e.n }

// SpaceWords reports the verifier memory in the paper's accounting: the d
// level parameters (2d when augmented), the running root, and n.
func (e *RootEvaluator) SpaceWords() int {
	n := e.h.Params.D + 2
	if e.h.Q != nil {
		n += e.h.Params.D
	}
	return n
}

// ---------------------------------------------------------------------
// Materialized tree (prover side)

// Node is a materialized tree node: Index is the position within its
// level, Hash the node hash, Count the subtree count.
type Node struct {
	Index uint64
	Hash  field.Elem
	Count int64
}

// Tree is the prover's sparse materialization: per level, the nodes with
// nonzero subtrees, sorted by index. Size is O(min(u, n·log(u/n))) as in
// Theorem 5. Absent nodes hash to 0 (an all-zero subtree hashes to 0
// under both kinds, with count 0).
type Tree struct {
	H      *Hasher
	levels [][]Node
}

// Build constructs the tree bottom-up from the leaf multiset defined by
// the updates (aggregated, zero entries dropped). Total time
// O(n·d + n·log n).
func Build(h *Hasher, updates []stream.Update) (*Tree, error) {
	agg := make(map[uint64]int64, len(updates))
	for _, u := range updates {
		if u.Index >= h.Params.U {
			return nil, fmt.Errorf("hashtree: index %d outside universe [0,%d)", u.Index, h.Params.U)
		}
		agg[u.Index] += u.Delta
	}
	leaves := make([]Node, 0, len(agg))
	for i, c := range agg {
		if c == 0 {
			continue
		}
		leaves = append(leaves, Node{Index: i, Hash: h.F.FromInt64(c), Count: c})
	}
	sort.Slice(leaves, func(a, b int) bool { return leaves[a].Index < leaves[b].Index })
	return BuildFromLeaves(h, leaves)
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
