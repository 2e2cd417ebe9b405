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
// The prover's tree is split in two. A Skeleton holds what does not
// depend on the randomness — per level, the nonzero subtrees' indices and
// counts, and the leaf values: O(min(u, n log(u/n))) words (Theorem 5),
// built once per count table and shared read-only. An IncrementalTree is
// one conversation's hash state over it: the hashes of one level at a
// time, O(n) words per conversation.
package hashtree

import (
	"fmt"

	"repro/internal/field"
)

// Params fixes the tree shape: u = 2^d leaves, levels 0 (leaves) … d
// (root).
type Params struct {
	D int    // tree height = log2 u
	U uint64 // number of leaves
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
	R      []field.Elem
	Q      []field.Elem
}

// NewHasher samples the d level parameters r_1..r_d.
func NewHasher(f field.Field, params Params, rng field.RNG) *Hasher {
	return &Hasher{F: f, Params: params, R: f.RandVec(rng, params.D)}
}

// NewAugmentedHasher additionally samples q_1..q_d for the subtree-count
// children of §6.1.
func NewAugmentedHasher(f field.Field, params Params, rng field.RNG) *Hasher {
	h := NewHasher(f, params, rng)
	h.Q = f.RandVec(rng, params.D)
	return h
}

// Combine hashes the two children of a level-j node (j in 1..d). count is
// the node's subtree count and is ignored for plain hashers.
func (h *Hasher) Combine(j int, left, right, count field.Elem) field.Elem {
	f := h.F
	r := h.R[j-1]
	v := f.Add(left, f.Mul(r, right))
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
// words, and ⌈d/2⌉ multiplies per update, δ included. An augmented tree
// keeps them per level, since its recurrence adds a count term at every
// level.
func NewRootEvaluator(h *Hasher) *RootEvaluator {
	f := h.F
	w := make([]field.Elem, 2*len(h.R))
	for j, r := range h.R {
		w[2*j] = 1
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
// (field.DigitProduct). Both kernels take δ as their scale, so no
// multiply trails the weight.
func (e *RootEvaluator) Update(i uint64, delta int64) error {
	h := e.h
	if i >= h.Params.U {
		return fmt.Errorf("hashtree: index %d outside universe [0,%d)", i, h.Params.U)
	}
	f := h.F
	d := f.FromInt64(delta)
	var s field.Elem
	if h.Q != nil {
		s = f.BitHorner(e.w, h.Q, i, d)
	} else {
		s = f.DigitProduct(e.w, 2, i, d)
	}
	e.acc = f.Add(e.acc, s)
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
