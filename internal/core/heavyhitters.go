package core

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// HeavyHitters is the protocol of §6.1: report every item whose frequency
// is at least φn, with frequencies, such that no heavy hitter can be
// omitted. The verifier maintains the root of the count-augmented hash
// tree in O(log u) words; the prover reveals, level by level from the
// leaves, the children of every heavy node (subtree count ≥ φn). Light
// children of heavy parents act as witnesses that none of their
// descendants are heavy. Cost: (1/φ · log u, 1/φ · log u) with log u
// rounds.
//
// Frequencies must be non-negative (insert-only streams, or deletions
// that never drive a count below zero): the count-monotonicity that makes
// "parent of a heavy node is heavy" true is what guarantees completeness.
type HeavyHitters struct {
	F      field.Field
	Params hashtree.Params

	// Workers is the prover's parallel fan-out for building each hash-tree
	// level; see SubVector.Workers.
	Workers int
}

// NewHeavyHitters returns the protocol for universes of size ≥ u.
func NewHeavyHitters(f field.Field, u uint64) (*HeavyHitters, error) {
	params, err := hashtree.ParamsForUniverse(u)
	if err != nil {
		return nil, err
	}
	if !f.Valid() {
		return nil, fmt.Errorf("core: invalid field")
	}
	return &HeavyHitters{F: f, Params: params}, nil
}

// HeavyHitter is one verified heavy item.
type HeavyHitter struct {
	Index uint64
	Count int64
}

// Threshold converts the fraction φ and stream length n into the absolute
// count threshold: an item is heavy iff count ≥ max(1, ⌈φn⌉). Both
// parties derive it identically.
func Threshold(phi float64, n int64) int64 {
	t := int64(math.Ceil(phi * float64(n)))
	if t < 1 {
		t = 1
	}
	return t
}

// hhNode is a parsed (index, count, hash) triple from a round message.
type hhNode struct {
	idx   uint64
	count int64
	hash  field.Elem
}

// parseHHMsg decodes a level message: Ints = [idx0, count0, idx1, count1,
// …], Elems = [hash0, hash1, …]. It validates sortedness, sibling-pair
// completeness, canonical hashes, and non-negative counts.
func parseHHMsg(f field.Field, m Msg, levelSize uint64) ([]hhNode, error) {
	if len(m.Ints)%2 != 0 || len(m.Ints)/2 != len(m.Elems) {
		return nil, reject("heavy-hitters message shape invalid (%d ints, %d elems)", len(m.Ints), len(m.Elems))
	}
	nodes := make([]hhNode, len(m.Elems))
	for i := range nodes {
		idx, cnt := m.Ints[2*i], m.Ints[2*i+1]
		if idx >= levelSize {
			return nil, reject("node index %d outside level of size %d", idx, levelSize)
		}
		if cnt > math.MaxInt64 {
			return nil, reject("count %d out of range", cnt)
		}
		h := m.Elems[i]
		if uint64(h) >= f.Modulus() {
			return nil, reject("node hash not canonical")
		}
		nodes[i] = hhNode{idx: idx, count: int64(cnt), hash: h}
		if i > 0 && nodes[i-1].idx >= idx {
			return nil, reject("nodes not strictly increasing at index %d", idx)
		}
	}
	// Sibling pairs must be complete: (2k, 2k+1) adjacent.
	if len(nodes)%2 != 0 {
		return nil, reject("heavy-hitters message has unpaired node")
	}
	for i := 0; i < len(nodes); i += 2 {
		if nodes[i].idx&1 != 0 || nodes[i+1].idx != nodes[i].idx+1 {
			return nil, reject("nodes %d,%d are not a sibling pair", nodes[i].idx, nodes[i+1].idx)
		}
	}
	return nodes, nil
}

// HeavyHittersVerifier runs the verifier side.
type HeavyHittersVerifier struct {
	proto *HeavyHitters
	h     *hashtree.Hasher
	root  *hashtree.RootEvaluator

	phi      float64
	hasQuery bool

	threshold int64
	level     int               // index l of the next expected message M_l
	computed  map[uint64]hhNode // C_level: heavy nodes at 'level' computed from M_{level-1}
	result    []HeavyHitter
	done      bool
}

// NewVerifier samples the augmented per-level randomness (r_j, q_j) and
// adopts it.
func (p *HeavyHitters) NewVerifier(rng field.RNG) *HeavyHittersVerifier {
	return p.Adopt(DrawSummary(p.F, p.Params.D, FamilyAug, rng))
}

// Adopt returns a verifier over s's augmented tree summary.
func (p *HeavyHitters) Adopt(s Summary) *HeavyHittersVerifier {
	return &HeavyHittersVerifier{proto: p, h: s.Aug.Hasher(), root: s.Aug}
}

// Observe folds one stream update into the augmented root.
func (v *HeavyHittersVerifier) Observe(up stream.Update) error {
	return v.root.Update(up.Index, up.Delta)
}

// SetQuery fixes the heaviness fraction φ ∈ (0, 1].
func (v *HeavyHittersVerifier) SetQuery(phi float64) error {
	if !(phi > 0 && phi <= 1) {
		return fmt.Errorf("core: heavy-hitters fraction %v outside (0,1]", phi)
	}
	v.phi, v.hasQuery = phi, true
	return nil
}

// Begin consumes M_0: the leaf children of every heavy level-1 node.
func (v *HeavyHittersVerifier) Begin(opening Msg) (Msg, bool, error) {
	if !v.hasQuery {
		return Msg{}, false, fmt.Errorf("core: heavy-hitters query not set")
	}
	if v.computed != nil || v.done {
		return Msg{}, false, fmt.Errorf("core: heavy-hitters verifier already started")
	}
	n := v.root.Total()
	if n < 0 {
		return Msg{}, false, fmt.Errorf("core: heavy hitters undefined for negative total %d", n)
	}
	v.threshold = Threshold(v.phi, n)
	nodes, err := parseHHMsg(v.proto.F, opening, v.proto.Params.U)
	if err != nil {
		return Msg{}, false, err
	}
	f := v.proto.F
	for _, nd := range nodes {
		// Leaf hashes are the field image of the count.
		if nd.hash != f.FromInt64(nd.count) {
			return Msg{}, false, reject("leaf %d hash/count mismatch", nd.idx)
		}
		if nd.count < 0 {
			return Msg{}, false, reject("leaf %d has negative count", nd.idx)
		}
		if nd.count >= v.threshold {
			v.result = append(v.result, HeavyHitter{Index: nd.idx, Count: nd.count})
		}
	}
	return v.fold(nodes, nil)
}

// Step consumes M_level for level = 1 .. D-1.
func (v *HeavyHittersVerifier) Step(response Msg) (Msg, bool, error) {
	if v.computed == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: heavy-hitters verifier not mid-conversation")
	}
	levelSize := v.proto.Params.U >> v.level
	nodes, err := parseHHMsg(v.proto.F, response, levelSize)
	if err != nil {
		return Msg{}, false, err
	}
	// Cross-check against the nodes computed from the previous message:
	// every computed heavy node must reappear with identical hash and
	// count; new nodes must be light.
	seen := 0
	for _, nd := range nodes {
		if c, ok := v.computed[nd.idx]; ok {
			if c.count != nd.count || c.hash != nd.hash {
				return Msg{}, false, reject("level %d node %d mismatches computed value", v.level, nd.idx)
			}
			seen++
		} else {
			if nd.count < 0 {
				return Msg{}, false, reject("level %d node %d has negative count", v.level, nd.idx)
			}
			if nd.count >= v.threshold {
				return Msg{}, false, reject("level %d node %d claims heavy but its children were never revealed", v.level, nd.idx)
			}
		}
	}
	if seen != len(v.computed) {
		return Msg{}, false, reject("level %d omits %d verified heavy nodes", v.level, len(v.computed)-seen)
	}
	return v.fold(nodes, v.computed)
}

// fold computes the parents of the provided sibling pairs, checks they are
// heavy, and either finishes at the root or emits the next (r, q) reveal.
func (v *HeavyHittersVerifier) fold(nodes []hhNode, _ map[uint64]hhNode) (Msg, bool, error) {
	f := v.proto.F
	childLevel := v.level
	parents := make(map[uint64]hhNode, len(nodes)/2)
	for i := 0; i < len(nodes); i += 2 {
		l, r := nodes[i], nodes[i+1]
		count := l.count + r.count
		hash := v.h.Combine(childLevel+1, l.hash, r.hash, f.FromInt64(count))
		parents[l.idx>>1] = hhNode{idx: l.idx >> 1, count: count, hash: hash}
	}
	// Every revealed pair must justify itself: its parent is heavy.
	for _, p := range parents {
		if p.count < v.threshold {
			return Msg{}, false, reject("level %d node %d revealed children but is light (%d < %d)",
				childLevel+1, p.idx, p.count, v.threshold)
		}
	}
	v.level++
	v.computed = parents

	if v.level == v.proto.Params.D {
		// The parents are the root (or nothing, for an empty stream).
		var rootHash field.Elem
		var rootCount int64
		if p, ok := parents[0]; ok {
			rootHash, rootCount = p.hash, p.count
		}
		if len(parents) > 1 {
			return Msg{}, false, reject("multiple roots reconstructed")
		}
		if rootHash != v.root.Root() {
			return Msg{}, false, reject("reconstructed root %d ≠ streamed root %d", rootHash, v.root.Root())
		}
		if rootCount != v.root.Total() {
			return Msg{}, false, reject("reconstructed total %d ≠ streamed total %d", rootCount, v.root.Total())
		}
		v.done = true
		return Msg{}, true, nil
	}
	// Reveal (r_level, q_level) so the prover can hash the current level.
	return Msg{Elems: []field.Elem{v.h.R[v.level-1], v.h.Q[v.level-1]}}, false, nil
}

// Result returns the verified heavy hitters (ascending index order) and
// the threshold that was applied.
func (v *HeavyHittersVerifier) Result() ([]HeavyHitter, int64, error) {
	if !v.done {
		return nil, 0, fmt.Errorf("core: heavy-hitters result unavailable before acceptance")
	}
	return v.result, v.threshold, nil
}

// SpaceWords reports the verifier's working memory: the 2d level
// parameters, root and n, plus the per-level frontier of heavy nodes
// (O(1/φ) words, as in the paper's (1/φ log u, 1/φ log u) accounting).
func (v *HeavyHittersVerifier) SpaceWords() int {
	return v.root.SpaceWords() + 3*len(v.computed)
}

// ---------------------------------------------------------------------

// HeavyHittersProver runs the prover side: it holds the dense frequency
// table and total Σδ of the stream (O(u) words, independent of stream
// length), builds the count skeleton at Open, and hashes one level per
// revealed (r, q).
type HeavyHittersProver struct {
	proto    *HeavyHitters
	counts   sumcheck.Counts // borrowed read-only
	total    int64
	tree     *hashtree.IncrementalTree
	phi      float64
	hasQuery bool

	threshold int64
}

// NewProverFromCounts returns a prover over a count table (Params.U
// entries) held in chunks, borrowed read-only, with the given stream
// total Σδ — the maintained state of a dataset engine.
func (p *HeavyHitters) NewProverFromCounts(counts sumcheck.Counts, total int64) (*HeavyHittersProver, error) {
	if uint64(counts.Len()) != p.Params.U {
		return nil, fmt.Errorf("core: count table has %d entries, want %d", counts.Len(), p.Params.U)
	}
	return &HeavyHittersProver{proto: p, counts: counts, total: total}, nil
}

// SetQuery fixes the heaviness fraction φ.
func (pr *HeavyHittersProver) SetQuery(phi float64) error {
	if !(phi > 0 && phi <= 1) {
		return fmt.Errorf("core: heavy-hitters fraction %v outside (0,1]", phi)
	}
	pr.phi, pr.hasQuery = phi, true
	return nil
}

// Open builds the count skeleton and emits M_0.
func (pr *HeavyHittersProver) Open() (Msg, error) {
	if !pr.hasQuery {
		return Msg{}, fmt.Errorf("core: heavy-hitters query not set")
	}
	tree, err := hashtree.NewIncrementalFromCounts(pr.proto.F, pr.proto.Params, hashtree.Affine, pr.counts.Width, pr.counts.Chunks)
	if err != nil {
		return Msg{}, err
	}
	tree.Workers = pr.proto.Workers
	pr.tree = tree
	pr.threshold = Threshold(pr.phi, pr.total)
	return pr.levelMsg(0)
}

// Step consumes the revealed (r_l, q_l), hashes level l, and emits M_l.
func (pr *HeavyHittersProver) Step(challenge Msg) (Msg, error) {
	if pr.tree == nil {
		return Msg{}, fmt.Errorf("core: heavy-hitters prover not opened")
	}
	if len(challenge.Elems) != 2 {
		return Msg{}, fmt.Errorf("core: heavy-hitters challenge has %d elems, want 2", len(challenge.Elems))
	}
	if err := pr.tree.Extend(challenge.Elems[0], challenge.Elems[1]); err != nil {
		return Msg{}, err
	}
	return pr.levelMsg(pr.tree.BuiltLevels())
}

func (pr *HeavyHittersProver) levelMsg(l int) (Msg, error) {
	kids, err := pr.tree.HeavyChildren(l, pr.threshold)
	if err != nil {
		return Msg{}, err
	}
	var msg Msg
	for _, nd := range kids {
		if nd.Count < 0 {
			return Msg{}, fmt.Errorf("core: heavy hitters require non-negative frequencies (node %d has %d)", nd.Index, nd.Count)
		}
		msg.Ints = append(msg.Ints, nd.Index, uint64(nd.Count))
		msg.Elems = append(msg.Elems, nd.Hash)
	}
	return msg, nil
}
