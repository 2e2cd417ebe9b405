package hashtree

import (
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/parallel"
	"repro/internal/sumcheck"
)

// IncrementalTree is the prover-side tree for the interactive protocols of
// §4 and §6.1: the level randomness r_j (and q_j for augmented trees) is
// revealed by the verifier one round at a time, so node *hashes* can only
// be computed one level per round. Subtree *counts* are independent of the
// randomness, so the whole count skeleton is built up front — the
// heavy-hitters prover needs level-(l+1) counts to select the children it
// reveals at level l before r_{l+1} is known.
//
// Levels are sparse (only nonzero subtrees are materialized), giving the
// O(min(u, n log(u/n))) prover size of Theorem 5.
type IncrementalTree struct {
	F      field.Field
	Params Params

	// Workers sets the fan-out of Extend: each level's hashes are computed
	// by that many goroutines over contiguous node blocks (0 serial, n < 0
	// runtime.NumCPU()). The hash of each node depends only on its children
	// and the revealed randomness, so every worker count produces identical
	// trees.
	Workers int

	levels [][]Node
	r      []field.Elem
	q      []field.Elem
}

// NewIncrementalFromCounts builds the count skeleton of every level from
// a frequency table held in chunks (sumcheck.Counts: a nil chunk holds
// zeros, a flat table is one chunk), params.U entries in all. The leaves
// are the nonzero entries in index order, so the tree is the one the
// aggregate state defines (the tests check it against a reference built
// by aggregating a raw update stream). Level-0 hashes (the leaf values)
// are available immediately; higher-level hashes require Extend. It
// passes over nil chunks and blocks of 8 zero counts with one test each,
// and reads a sparse chunk's listed counts only.
func NewIncrementalFromCounts(f field.Field, params Params, counts sumcheck.Counts) (*IncrementalTree, error) {
	width, chunks := counts.Width, counts.Chunks
	if width < 1 || uint64(width)*uint64(len(chunks)) != params.U {
		return nil, fmt.Errorf("hashtree: count table has %d chunks of %d entries, want %d entries", len(chunks), width, params.U)
	}
	var leaves []Node
	leaf := func(i int, c int64) {
		leaves = append(leaves, Node{Index: uint64(i), Hash: f.FromInt64(c), Count: c})
	}
	for k, ch := range chunks {
		if offs := counts.Sparse(k); offs != nil {
			if len(ch) != len(offs) {
				return nil, fmt.Errorf("hashtree: sparse count chunk %d lists %d offsets for %d counts", k, len(offs), len(ch))
			}
			for j, c := range ch {
				if c != 0 {
					leaf(k*width+int(offs[j]), c)
				}
			}
			continue
		}
		if ch == nil {
			continue
		}
		if len(ch) != width {
			return nil, fmt.Errorf("hashtree: count chunk %d has %d entries, want %d", k, len(ch), width)
		}
		for i := 0; i < width; i += 8 {
			b := ch[i:min(i+8, width)]
			if len(b) == 8 && b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0 {
				continue
			}
			for j, c := range b {
				if c != 0 {
					leaf(k*width+i+j, c)
				}
			}
		}
	}
	return newFromLeaves(f, params, leaves), nil
}

// newFromLeaves builds the count skeleton above sorted nonzero leaves.
func newFromLeaves(f field.Field, params Params, leaves []Node) *IncrementalTree {
	t := &IncrementalTree{F: f, Params: params, levels: make([][]Node, params.D+1)}
	t.levels[0] = leaves
	for j := 1; j <= params.D; j++ {
		prev := t.levels[j-1]
		var cur []Node
		for i := 0; i < len(prev); {
			parent := prev[i].Index >> 1
			var count int64
			for ; i < len(prev) && prev[i].Index>>1 == parent; i++ {
				count += prev[i].Count
			}
			cur = append(cur, Node{Index: parent, Count: count})
		}
		t.levels[j] = cur
	}
	return t
}

// BuiltLevels returns how many levels above the leaves have hashes.
func (t *IncrementalTree) BuiltLevels() int { return len(t.r) }

// Extend fills in the hashes of the next level using the freshly revealed
// randomness (q is ignored unless the tree uses the augmented hash; pass 0
// for plain trees).
func (t *IncrementalTree) Extend(r, q field.Elem) error {
	j := len(t.r) + 1
	if j > t.Params.D {
		return fmt.Errorf("hashtree: tree already fully built (%d levels)", t.Params.D)
	}
	t.r = append(t.r, r)
	t.q = append(t.q, q)
	h := Hasher{F: t.F, Params: t.Params, R: t.r, Q: t.q}
	prev := t.levels[j-1]
	cur := t.levels[j]
	// Each parent's children occupy a contiguous run of prev, so the level
	// splits into independent blocks: a worker locates the first child of
	// its block's first parent by binary search and then merges forward,
	// exactly as the serial scan would.
	parallel.For(parallel.Workers(t.Workers), len(cur), func(_, lo, hi int) {
		pi := sort.Search(len(prev), func(i int) bool { return prev[i].Index>>1 >= cur[lo].Index })
		for ci := lo; ci < hi; ci++ {
			parent := cur[ci].Index
			var left, right field.Elem
			for ; pi < len(prev) && prev[pi].Index>>1 == parent; pi++ {
				if prev[pi].Index&1 == 0 {
					left = prev[pi].Hash
				} else {
					right = prev[pi].Hash
				}
			}
			cur[ci].Hash = h.Combine(j, left, right, t.F.FromInt64(cur[ci].Count))
		}
	})
	return nil
}

// Node returns the node at (level, index). Counts are always valid;
// requesting a node whose hash is not yet computable is an error. Absent
// nodes are the implicit all-zero node.
func (t *IncrementalTree) Node(level int, index uint64) (Node, error) {
	if level < 0 || level > len(t.r) {
		return Node{}, fmt.Errorf("hashtree: level %d hashes not built (have %d)", level, len(t.r))
	}
	return t.lookup(level, index), nil
}

func (t *IncrementalTree) lookup(level int, index uint64) Node {
	nodes := t.levels[level]
	k := sort.Search(len(nodes), func(i int) bool { return nodes[i].Index >= index })
	if k < len(nodes) && nodes[k].Index == index {
		return nodes[k]
	}
	return Node{Index: index}
}

// LeavesInRange returns the nonzero leaves with qL ≤ index ≤ qR.
func (t *IncrementalTree) LeavesInRange(qL, qR uint64) []Node {
	leaves := t.levels[0]
	lo := sort.Search(len(leaves), func(i int) bool { return leaves[i].Index >= qL })
	hi := sort.Search(len(leaves), func(i int) bool { return leaves[i].Index > qR })
	return leaves[lo:hi]
}

// HeavyChildren returns all level-l nodes that are children of level-(l+1)
// nodes with Count ≥ threshold, with zero siblings materialized — the
// round message of the §6.1 heavy-hitters protocol. The children's hashes
// must already be built (level 0 always is); the parents' counts are
// always available.
func (t *IncrementalTree) HeavyChildren(l int, threshold int64) ([]Node, error) {
	if l < 0 || l > len(t.r) {
		return nil, fmt.Errorf("hashtree: level %d hashes not built (have %d)", l, len(t.r))
	}
	if l+1 > t.Params.D {
		return nil, fmt.Errorf("hashtree: level %d has no parents", l)
	}
	var out []Node
	for _, p := range t.levels[l+1] {
		if p.Count < threshold {
			continue
		}
		out = append(out, t.lookup(l, 2*p.Index), t.lookup(l, 2*p.Index+1))
	}
	return out, nil
}
