package hashtree

import (
	"fmt"
	"sort"

	"repro/internal/field"
	"repro/internal/parallel"
	"repro/internal/sumcheck"
)

// Skeleton is the randomness-free part of the prover's tree for the
// interactive protocols of §4 and §6.1: per level, the indices of the
// nodes with nonzero subtrees and their subtree counts, plus the leaves'
// values (the field images of their counts). Subtree counts do not depend
// on the verifier's randomness, so one skeleton serves every conversation
// over the same counts; it is read-only once built and safe to share
// across goroutines.
//
// Levels are sparse, giving the O(min(u, n log(u/n))) prover size of
// Theorem 5, paid once per count table rather than once per query. All
// levels sit in two flat slices, level j right after level j−1, sized up
// front to the most nodes each level can hold (SkeletonBytes).
type Skeleton struct {
	f      field.Field
	params Params
	idx    []uint64     // every level's node indices, level by level, each level increasing
	counts []int64      // their subtree counts
	off    []int        // level j is idx[off[j]:off[j+1]]
	vals   []field.Elem // the leaves' values: the field image of level 0's counts
}

// NewSkeleton builds the skeleton of every level from a frequency table
// held in chunks (sumcheck.Counts: a nil chunk holds zeros, a flat table
// is one chunk), params.U entries in all. The leaves are the nonzero
// entries in index order, so the tree is the one the aggregate state
// defines (the tests check it against a reference built by aggregating a
// raw update stream). It walks the chunks twice, once to count the leaves
// and once to place them, passing over nil chunks and blocks of 8 zero
// counts with one test each and reading a sparse chunk's listed counts
// only.
func NewSkeleton(f field.Field, params Params, counts sumcheck.Counts) (*Skeleton, error) {
	width, chunks := counts.Width, counts.Chunks
	if width < 1 || uint64(width)*uint64(len(chunks)) != params.U {
		return nil, fmt.Errorf("hashtree: count table has %d chunks of %d entries, want %d entries", len(chunks), width, params.U)
	}
	n := 0
	if err := eachLeaf(counts, func(int, int64) { n++ }); err != nil {
		return nil, err
	}
	nodes := skeletonNodes(params, n)
	s := &Skeleton{
		f:      f,
		params: params,
		idx:    make([]uint64, 0, nodes),
		counts: make([]int64, 0, nodes),
		off:    make([]int, params.D+2),
		vals:   make([]field.Elem, 0, n),
	}
	_ = eachLeaf(counts, func(i int, c int64) {
		s.idx = append(s.idx, uint64(i))
		s.counts = append(s.counts, c)
		s.vals = append(s.vals, f.FromInt64(c))
	})
	s.off[1] = n
	for j := 1; j <= params.D; j++ {
		lo, hi := s.off[j-1], s.off[j]
		for i := lo; i < hi; {
			parent := s.idx[i] >> 1
			var count int64
			for ; i < hi && s.idx[i]>>1 == parent; i++ {
				count += s.counts[i]
			}
			s.idx = append(s.idx, parent)
			s.counts = append(s.counts, count)
		}
		s.off[j+1] = len(s.idx)
	}
	return s, nil
}

// eachLeaf calls fn(i, c) for each nonzero count c of counts, at index i,
// in increasing index order, after checking each chunk's shape.
func eachLeaf(counts sumcheck.Counts, fn func(i int, c int64)) error {
	width := counts.Width
	for k, ch := range counts.Chunks {
		if offs := counts.Sparse(k); offs != nil {
			if len(ch) != len(offs) {
				return fmt.Errorf("hashtree: sparse count chunk %d lists %d offsets for %d counts", k, len(offs), len(ch))
			}
			for j, c := range ch {
				if c != 0 {
					fn(k*width+int(offs[j]), c)
				}
			}
			continue
		}
		if ch == nil {
			continue
		}
		if len(ch) != width {
			return fmt.Errorf("hashtree: count chunk %d has %d entries, want %d", k, len(ch), width)
		}
		for i := 0; i < width; i += 8 {
			b := ch[i:min(i+8, width)]
			if len(b) == 8 && b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0 {
				continue
			}
			for j, c := range b {
				if c != 0 {
					fn(k*width+i+j, c)
				}
			}
		}
	}
	return nil
}

// skeletonNodes is the most nodes a tree of shape params over n leaves
// holds: level j has at most min(n, U/2^j).
func skeletonNodes(params Params, n int) int {
	nodes := 0
	for j := 0; j <= params.D; j++ {
		nodes += int(min(uint64(n), params.U>>j))
	}
	return nodes
}

// SkeletonBytes is what NewSkeleton allocates for a skeleton of shape
// params over n leaves: 16 bytes (an index and a count) for each node
// skeletonNodes allows, and 8 for each leaf's value. It grows with n, so
// it bounds the skeleton of any table with at most n nonzero counts.
func SkeletonBytes(params Params, n int) int64 {
	return 16*int64(skeletonNodes(params, n)) + 8*int64(n)
}

// Params returns the tree shape.
func (s *Skeleton) Params() Params { return s.params }

// level returns level j's node indices and subtree counts.
func (s *Skeleton) level(j int) ([]uint64, []int64) {
	lo, hi := s.off[j], s.off[j+1]
	return s.idx[lo:hi:hi], s.counts[lo:hi:hi]
}

// Leaves returns the nonzero leaves' indices, increasing, and their
// counts: the skeleton's own slices, to be read only.
func (s *Skeleton) Leaves() ([]uint64, []int64) { return s.level(0) }

// LeavesInRange returns the indices and values of the nonzero leaves with
// qL ≤ index ≤ qR: sub-slices of the skeleton's own, to be read only.
func (s *Skeleton) LeavesInRange(qL, qR uint64) ([]uint64, []field.Elem) {
	leaves, _ := s.Leaves()
	lo := sort.Search(len(leaves), func(i int) bool { return leaves[i] >= qL })
	hi := sort.Search(len(leaves), func(i int) bool { return leaves[i] > qR })
	return leaves[lo:hi:hi], s.vals[lo:hi:hi]
}

// IncrementalTree is the per-conversation hash state over a Skeleton: the
// level randomness r_j (and q_j for augmented trees) is revealed by the
// verifier one round at a time, so node hashes can only be computed one
// level per round. The skeleton's counts are all known up front — the
// heavy-hitters prover needs level-(l+1) counts to select the children it
// reveals at level l before r_{l+1} is known.
//
// The tree holds only the hashes of the level it last built: the leaf
// values at first, then each level's in one of two buffers sized to
// level 1, the largest level above the leaves. A conversation thus
// allocates O(n) hash words once, beside the skeleton's O(n log(u/n))
// words, which every conversation over the same counts shares.
type IncrementalTree struct {
	sk *Skeleton

	// Workers sets the fan-out of Extend: each level's hashes are computed
	// by that many goroutines over contiguous node blocks (0 serial, n < 0
	// runtime.NumCPU()). The hash of each node depends only on its children
	// and the revealed randomness, so every worker count produces identical
	// trees.
	Workers int

	level  int             // the held level
	hashes []field.Elem    // its hashes, parallel to the skeleton's level
	bufs   [2][]field.Elem // level j's hashes go to bufs[j&1]
}

// NewTree returns a conversation's hash state over s, holding level 0,
// whose hashes are the leaf values.
func (s *Skeleton) NewTree(workers int) *IncrementalTree {
	return &IncrementalTree{sk: s, Workers: workers, hashes: s.vals}
}

// BuiltLevels returns how many levels above the leaves have hashes: the
// held level.
func (t *IncrementalTree) BuiltLevels() int { return t.level }

// Extend hashes the level above the held one with the freshly revealed
// randomness and holds it instead (q is ignored unless the tree uses the
// augmented hash; pass 0 for plain trees).
func (t *IncrementalTree) Extend(r, q field.Elem) error {
	sk, j := t.sk, t.level+1
	if j > sk.params.D {
		return fmt.Errorf("hashtree: tree already fully built (%d levels)", sk.params.D)
	}
	if t.bufs[0] == nil {
		n1 := sk.off[2] - sk.off[1]
		b := make([]field.Elem, 2*n1)
		t.bufs = [2][]field.Elem{b[:n1:n1], b[n1:]}
	}
	f := sk.f
	prevIdx, _ := sk.level(j - 1)
	curIdx, curCounts := sk.level(j)
	prev, cur := t.hashes, t.bufs[j&1][:len(curIdx)]
	// Each parent's children occupy a contiguous run of the level below,
	// so the level splits into independent blocks: a worker locates the
	// first child of its block's first parent by binary search and then
	// merges forward, exactly as the serial scan would.
	parallel.For(parallel.Workers(t.Workers), len(curIdx), func(_, lo, hi int) {
		pi := sort.Search(len(prevIdx), func(i int) bool { return prevIdx[i]>>1 >= curIdx[lo] })
		for ci := lo; ci < hi; ci++ {
			parent := curIdx[ci]
			var left, right field.Elem
			for ; pi < len(prevIdx) && prevIdx[pi]>>1 == parent; pi++ {
				if prevIdx[pi]&1 == 0 {
					left = prev[pi]
				} else {
					right = prev[pi]
				}
			}
			// Combine's vL + r·vR + q·c_v, written out: a plain tree's q is
			// 0, and calling Combine per node took about a third longer
			// (BenchmarkTreeConversation).
			v := f.Add(left, f.Mul(r, right))
			if q != 0 {
				v = f.Add(v, f.Mul(q, f.FromInt64(curCounts[ci])))
			}
			cur[ci] = v
		}
	})
	t.level, t.hashes = j, cur
	return nil
}

// heldLevel refuses every level but the held one.
func (t *IncrementalTree) heldLevel(level int) error {
	if level != t.level {
		return fmt.Errorf("hashtree: level %d hashes not held (holding level %d)", level, t.level)
	}
	return nil
}

// Node returns the node at (level, index) of the held level; any other
// level is an error. Absent nodes are the implicit all-zero node.
func (t *IncrementalTree) Node(level int, index uint64) (Node, error) {
	if err := t.heldLevel(level); err != nil {
		return Node{}, err
	}
	return t.lookup(index), nil
}

// lookup returns the held level's node at index.
func (t *IncrementalTree) lookup(index uint64) Node {
	idx, counts := t.sk.level(t.level)
	k := sort.Search(len(idx), func(i int) bool { return idx[i] >= index })
	if k < len(idx) && idx[k] == index {
		return Node{Index: index, Hash: t.hashes[k], Count: counts[k]}
	}
	return Node{Index: index}
}

// HeavyChildren returns all level-l nodes that are children of level-(l+1)
// nodes with Count ≥ threshold, with zero siblings materialized — the
// round message of the §6.1 heavy-hitters protocol. l must be the held
// level (level 0 is held before any Extend); the parents' counts come
// from the skeleton.
func (t *IncrementalTree) HeavyChildren(l int, threshold int64) ([]Node, error) {
	if err := t.heldLevel(l); err != nil {
		return nil, err
	}
	if l+1 > t.sk.params.D {
		return nil, fmt.Errorf("hashtree: level %d has no parents", l)
	}
	var out []Node
	parents, counts := t.sk.level(l + 1)
	for k, p := range parents {
		if counts[k] < threshold {
			continue
		}
		out = append(out, t.lookup(2*p), t.lookup(2*p+1))
	}
	return out, nil
}
