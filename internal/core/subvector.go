package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/stream"
)

// SubVector is the reporting-query protocol of §4: after the stream, the
// verifier asks for the (nonzero entries of the) sub-vector
// (a_qL, …, a_qR). The prover answers with the k nonzero entries plus the
// boundary values needed to complete sibling pairs; over log u − 1 further
// rounds the verifier releases the per-level hash randomness r_j, receives
// the two boundary sibling hashes per level, reconstructs the root t′ of
// the algebraic hash tree, and accepts iff t′ equals the root t it
// maintained over the stream (Theorem 5: a (log u, log u + k) protocol).
type SubVector struct {
	F      field.Field
	Params hashtree.Params

	// Workers is the prover's parallel fan-out: each hash-tree level built
	// during the conversation is hashed by that many goroutines (0 serial,
	// n < 0 runtime.NumCPU()). Hashes are bit-identical for every value.
	Workers int
}

// NewSubVector returns the protocol for universes of size ≥ u.
func NewSubVector(f field.Field, u uint64) (*SubVector, error) {
	params, err := hashtree.ParamsForUniverse(u)
	if err != nil {
		return nil, err
	}
	if !f.Valid() {
		return nil, fmt.Errorf("core: invalid field")
	}
	return &SubVector{F: f, Params: params}, nil
}

// Entry is one reported sub-vector entry. Value is the aggregated count
// lifted to the centered signed representative.
type Entry struct {
	Index uint64
	Value int64
}

// frontierNode is a known (nonzero-hash) node at the verifier's current
// reconstruction level.
type frontierNode struct {
	idx  uint64
	hash field.Elem
}

// SubVectorVerifier maintains the streamed root in O(log u) words and
// reconstructs the root from the claimed answer. Its working state beyond
// the answer itself is O(k′ + log u) where k′ is the number of nonzero
// hashes still unmerged — the paper's accounting charges O(log u) since
// the answer is output, not retained state.
type SubVectorVerifier struct {
	proto *SubVector
	h     *hashtree.Hasher
	root  *hashtree.RootEvaluator

	qL, qR   uint64
	hasQuery bool

	frontier []frontierNode
	level    int
	lo, hi   uint64 // ancestor range [qL>>level, qR>>level]
	entries  []Entry
	done     bool
}

// NewVerifier samples the per-level hash randomness (before the stream)
// and returns a verifier ready to observe updates.
func (p *SubVector) NewVerifier(rng field.RNG) *SubVectorVerifier {
	h := hashtree.NewHasher(p.F, p.Params, hashtree.Affine, rng)
	return &SubVectorVerifier{proto: p, h: h, root: hashtree.NewRootEvaluator(h)}
}

// Observe folds one stream update into the running root hash.
func (v *SubVectorVerifier) Observe(up stream.Update) error {
	return v.root.Update(up.Index, up.Delta)
}

// Challenges returns every message this verifier will send, in order:
// the level randomness r_1..r_{d-1} (r_d hashes the root and never
// travels). Fixed at NewVerifier, independent of the stream, the query
// and the prover.
func (v *SubVectorVerifier) Challenges() []Msg { return revealOneByOne(v.h.R) }

// SetQuery fixes the queried range [qL, qR]; it must be called after the
// stream and before Begin.
func (v *SubVectorVerifier) SetQuery(qL, qR uint64) error {
	if err := checkRange(qL, qR, v.proto.Params.U); err != nil {
		return err
	}
	v.qL, v.qR, v.hasQuery = qL, qR, true
	return nil
}

// boundaryNeeds reports which sibling indices at the given level the
// verifier requires to complete its pairs: the left sibling when the left
// ancestor is odd, the right sibling when the right ancestor is even.
func boundaryNeeds(qL, qR uint64, level int) []uint64 {
	lo, hi := qL>>level, qR>>level
	var need []uint64
	if lo&1 == 1 {
		need = append(need, lo-1)
	}
	if hi&1 == 0 {
		need = append(need, hi+1)
	}
	return need
}

// Begin consumes the opening message. Layout:
//
//	Ints:  indices of the claimed nonzero entries in [qL,qR], strictly
//	       increasing;
//	Elems: the corresponding values, followed by the boundary leaf values
//	       (a_{qL-1} if qL is odd, then a_{qR+1} if qR is even).
func (v *SubVectorVerifier) Begin(opening Msg) (Msg, bool, error) {
	if !v.hasQuery {
		return Msg{}, false, fmt.Errorf("core: sub-vector query not set")
	}
	if v.frontier != nil || v.done {
		return Msg{}, false, fmt.Errorf("core: sub-vector verifier already started")
	}
	f := v.proto.F
	needs := boundaryNeeds(v.qL, v.qR, 0)
	k := len(opening.Ints)
	if len(opening.Elems) != k+len(needs) {
		return Msg{}, false, reject("sub-vector opening has %d values for %d indices and %d boundary slots",
			len(opening.Elems), k, len(needs))
	}
	v.frontier = make([]frontierNode, 0, k+2)
	v.entries = make([]Entry, 0, k)
	prev := uint64(0)
	for i, idx := range opening.Ints {
		if idx < v.qL || idx > v.qR {
			return Msg{}, false, reject("claimed entry %d outside range [%d,%d]", idx, v.qL, v.qR)
		}
		if i > 0 && idx <= prev {
			return Msg{}, false, reject("claimed entries not strictly increasing at %d", idx)
		}
		prev = idx
		val := opening.Elems[i]
		if val == 0 {
			return Msg{}, false, reject("claimed entry %d has zero value", idx)
		}
		if uint64(val) >= f.Modulus() {
			return Msg{}, false, reject("claimed entry %d not a canonical field element", idx)
		}
		v.entries = append(v.entries, Entry{Index: idx, Value: f.Centered(val)})
		v.frontier = append(v.frontier, frontierNode{idx: idx, hash: val})
	}
	// Boundary values slot in before/after the claimed range.
	for i, idx := range needs {
		val := opening.Elems[k+i]
		if uint64(val) >= f.Modulus() {
			return Msg{}, false, reject("boundary value not canonical")
		}
		if val == 0 {
			continue
		}
		if idx < v.qL {
			// Left sibling precedes all claimed entries.
			v.frontier = append([]frontierNode{{idx: idx, hash: val}}, v.frontier...)
		} else {
			v.frontier = append(v.frontier, frontierNode{idx: idx, hash: val})
		}
	}
	v.level, v.lo, v.hi = 0, v.qL, v.qR
	return v.advance()
}

// Step consumes the boundary sibling hashes for the current level.
// Layout: Ints = sibling indices (exactly the ones the verifier needs, in
// ascending order), Elems = their hashes.
func (v *SubVectorVerifier) Step(response Msg) (Msg, bool, error) {
	if v.frontier == nil && !v.done {
		return Msg{}, false, fmt.Errorf("core: sub-vector verifier not started")
	}
	if v.done {
		return Msg{}, false, fmt.Errorf("core: sub-vector conversation already finished")
	}
	needs := boundaryNeeds(v.qL, v.qR, v.level)
	if len(response.Ints) != len(needs) || len(response.Elems) != len(needs) {
		return Msg{}, false, reject("level %d response has %d siblings, want %d", v.level, len(response.Ints), len(needs))
	}
	for i, idx := range needs {
		if response.Ints[i] != idx {
			return Msg{}, false, reject("level %d sibling %d: got index %d, want %d", v.level, i, response.Ints[i], idx)
		}
		hash := response.Elems[i]
		if uint64(hash) >= v.proto.F.Modulus() {
			return Msg{}, false, reject("level %d sibling hash not canonical", v.level)
		}
		if hash == 0 {
			continue
		}
		if idx < v.lo {
			v.frontier = append([]frontierNode{{idx: idx, hash: hash}}, v.frontier...)
		} else {
			v.frontier = append(v.frontier, frontierNode{idx: idx, hash: hash})
		}
	}
	return v.advance()
}

// advance folds the completed frontier up one level and either finishes
// (root comparison) or emits the next challenge r_{level}.
func (v *SubVectorVerifier) advance() (Msg, bool, error) {
	// Fold: combine sibling pairs into parents. The frontier is sorted and
	// pair-complete by construction; absent nodes hash to zero.
	next := v.frontier[:0]
	for i := 0; i < len(v.frontier); {
		parent := v.frontier[i].idx >> 1
		var left, right field.Elem
		for ; i < len(v.frontier) && v.frontier[i].idx>>1 == parent; i++ {
			if v.frontier[i].idx&1 == 0 {
				left = v.frontier[i].hash
			} else {
				right = v.frontier[i].hash
			}
		}
		hash := v.h.Combine(v.level+1, left, right, 0)
		if hash != 0 {
			next = append(next, frontierNode{idx: parent, hash: hash})
		}
	}
	v.frontier = next
	v.level++
	v.lo, v.hi = v.qL>>v.level, v.qR>>v.level

	if v.level == v.proto.Params.D {
		var t field.Elem
		if len(v.frontier) > 0 {
			t = v.frontier[0].hash
		}
		if t != v.root.Root() {
			return Msg{}, false, reject("reconstructed root %d ≠ streamed root %d", t, v.root.Root())
		}
		v.done = true
		return Msg{}, true, nil
	}
	// Reveal r_{level} so the prover can hash the current level, and wait
	// for the boundary siblings.
	return Msg{Elems: []field.Elem{v.h.R[v.level-1]}}, false, nil
}

// Result returns the verified sub-vector entries.
func (v *SubVectorVerifier) Result() ([]Entry, error) {
	if !v.done {
		return nil, fmt.Errorf("core: sub-vector result unavailable before acceptance")
	}
	return v.entries, nil
}

// SpaceWords reports the verifier's persistent working memory in the
// paper's accounting: the d level parameters, the streamed root and n,
// and O(1) boundary-path state per level (the reported answer is output,
// not state).
func (v *SubVectorVerifier) SpaceWords() int {
	return v.root.SpaceWords() + 2*v.proto.Params.D
}

// ---------------------------------------------------------------------

// SubVectorProver holds the dense frequency table (O(u) words, like the
// aggregation provers) and builds the hash tree one level per round as
// the randomness is revealed. Holding aggregated counts instead of the
// raw stream keeps prover memory independent of stream length and lets a
// dataset engine hand the same table to many query sessions.
type SubVectorProver struct {
	proto    *SubVector
	counts   []int64 // the aggregated frequency vector, borrowed read-only
	tree     *hashtree.IncrementalTree
	qL, qR   uint64
	hasQuery bool
}

// NewProverFromCounts returns a prover whose frequency table is the given
// dense count vector (length Params.U), borrowed read-only — typically a
// dataset-engine snapshot. Construction is O(1).
func (p *SubVector) NewProverFromCounts(counts []int64) (*SubVectorProver, error) {
	if uint64(len(counts)) != p.Params.U {
		return nil, fmt.Errorf("core: count table has %d entries, want %d", len(counts), p.Params.U)
	}
	return &SubVectorProver{proto: p, counts: counts}, nil
}

// SetQuery fixes the queried range.
func (pr *SubVectorProver) SetQuery(qL, qR uint64) error {
	if err := checkRange(qL, qR, pr.proto.Params.U); err != nil {
		return err
	}
	pr.qL, pr.qR, pr.hasQuery = qL, qR, true
	return nil
}

// Open aggregates the leaves and emits the claimed sub-vector plus
// boundary leaf values.
func (pr *SubVectorProver) Open() (Msg, error) {
	if !pr.hasQuery {
		return Msg{}, fmt.Errorf("core: sub-vector query not set")
	}
	tree, err := hashtree.NewIncrementalFromCounts(pr.proto.F, pr.proto.Params, hashtree.Affine, pr.counts)
	if err != nil {
		return Msg{}, err
	}
	tree.Workers = pr.proto.Workers
	pr.tree = tree
	var msg Msg
	for _, leaf := range tree.LeavesInRange(pr.qL, pr.qR) {
		msg.Ints = append(msg.Ints, leaf.Index)
		msg.Elems = append(msg.Elems, leaf.Hash)
	}
	for _, idx := range boundaryNeeds(pr.qL, pr.qR, 0) {
		n, err := tree.Node(0, idx)
		if err != nil {
			return Msg{}, err
		}
		msg.Elems = append(msg.Elems, n.Hash)
	}
	return msg, nil
}

// Step consumes the revealed r_j, builds level j, and returns the
// boundary sibling hashes the verifier needs.
func (pr *SubVectorProver) Step(challenge Msg) (Msg, error) {
	if pr.tree == nil {
		return Msg{}, fmt.Errorf("core: sub-vector prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: sub-vector challenge has %d elems, want 1", len(challenge.Elems))
	}
	if err := pr.tree.Extend(challenge.Elems[0], 0); err != nil {
		return Msg{}, err
	}
	level := pr.tree.BuiltLevels()
	var msg Msg
	for _, idx := range boundaryNeeds(pr.qL, pr.qR, level) {
		n, err := pr.tree.Node(level, idx)
		if err != nil {
			return Msg{}, err
		}
		msg.Ints = append(msg.Ints, idx)
		msg.Elems = append(msg.Elems, n.Hash)
	}
	return msg, nil
}
