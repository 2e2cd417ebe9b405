package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/stream"
)

// This file implements the §4.2 reductions of the reporting queries to
// SUB-VECTOR, plus the k-largest query of §6.1:
//
//   - RANGE QUERY:  SUB-VECTOR verbatim (each element is a δ=1 update);
//   - INDEX:        RANGE QUERY with qL = qR = q;
//   - DICTIONARY:   values are stored shifted by +1 so that "not found"
//     (entry 0) is distinguishable from a stored value of 0;
//   - PREDECESSOR:  the prover claims the predecessor q′ and the verifier
//     checks the sub-vector (a_q′,…,a_q) has exactly one nonzero entry,
//     at q′ — O(log u) communication since k ≤ 1;
//   - SUCCESSOR:    symmetric;
//   - k-LARGEST:    the prover claims the location j of the k-th largest
//     item and the verifier checks the sub-vector (a_j,…,a_{u-1}) has
//     exactly k nonzero entries, the smallest at j.

// NewRangeQuery returns the RANGE QUERY protocol, which is SUB-VECTOR
// applied to a multiset stream (δ=1 per element); reported values are
// multiplicities.
func NewRangeQuery(f field.Field, u uint64) (*SubVector, error) {
	return NewSubVector(f, u)
}

// ---------------------------------------------------------------------
// INDEX

// Index is the INDEX protocol: a single-position lookup, the canonical
// hard problem for plain streaming (Ω(u) space [18]).
type Index struct{ sv *SubVector }

// NewIndex returns the protocol for universes of size ≥ u.
func NewIndex(f field.Field, u uint64) (*Index, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	return &Index{sv: sv}, nil
}

// IndexVerifier wraps a sub-vector verifier over the degenerate range
// [q, q].
type IndexVerifier struct {
	*SubVectorVerifier
	q uint64
}

// NewVerifier samples randomness and returns a verifier.
func (p *Index) NewVerifier(rng field.RNG) *IndexVerifier {
	return &IndexVerifier{SubVectorVerifier: p.sv.NewVerifier(rng)}
}

// SetQuery fixes the queried position.
func (v *IndexVerifier) SetQuery(q uint64) error {
	v.q = q
	return v.SubVectorVerifier.SetQuery(q, q)
}

// Value returns the verified a_q (0 when the position is empty).
func (v *IndexVerifier) Value() (int64, error) {
	entries, err := v.SubVectorVerifier.Result()
	if err != nil {
		return 0, err
	}
	if len(entries) == 0 {
		return 0, nil
	}
	return entries[0].Value, nil
}

// IndexProver wraps a sub-vector prover over [q, q].
type IndexProver struct{ *SubVectorProver }

// NewProver returns a prover ready to observe the stream.
func (p *Index) NewProver() *IndexProver {
	return &IndexProver{SubVectorProver: p.sv.NewProver()}
}

// SetQuery fixes the queried position.
func (pr *IndexProver) SetQuery(q uint64) error {
	return pr.SubVectorProver.SetQuery(q, q)
}

// ---------------------------------------------------------------------
// DICTIONARY

// Dictionary is the DICTIONARY protocol — the verified key-value store
// ("exactly captures the case of key-value stores such as Dynamo", §1.1).
// Values are stored internally as value+1; a retrieved 0 means "not
// found".
type Dictionary struct {
	sv       *SubVector
	maxValue uint64
}

// NewDictionary returns the protocol for keys drawn from [0, u). Values
// may range over [0, u) as in the paper's definition (both key and value
// drawn from the universe).
func NewDictionary(f field.Field, u uint64) (*Dictionary, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	// The +1 shift must stay within the centered-lift range.
	if u >= f.Modulus()/2 {
		return nil, fmt.Errorf("core: dictionary universe %d too large for field %d", u, f.Modulus())
	}
	return &Dictionary{sv: sv, maxValue: u - 1}, nil
}

// PutUpdate encodes an insertion of (key, value) as a stream update with
// the +1 shift. Both parties must observe insertions through this
// encoding. Keys must be distinct across the stream (the paper's
// DICTIONARY promise).
func (p *Dictionary) PutUpdate(key, value uint64) (stream.Update, error) {
	if key >= p.sv.Params.U {
		return stream.Update{}, fmt.Errorf("core: key %d outside universe", key)
	}
	if value > p.maxValue {
		return stream.Update{}, fmt.Errorf("core: value %d exceeds maximum %d", value, p.maxValue)
	}
	return stream.Update{Index: key, Delta: int64(value) + 1}, nil
}

// DictionaryVerifier wraps a sub-vector verifier over [q, q].
type DictionaryVerifier struct {
	*SubVectorVerifier
}

// NewVerifier samples randomness and returns a verifier.
func (p *Dictionary) NewVerifier(rng field.RNG) *DictionaryVerifier {
	return &DictionaryVerifier{SubVectorVerifier: p.sv.NewVerifier(rng)}
}

// SetQuery fixes the looked-up key.
func (v *DictionaryVerifier) SetQuery(key uint64) error {
	return v.SubVectorVerifier.SetQuery(key, key)
}

// Value returns the verified lookup result: (value, true) if the key is
// present, (0, false) for "not found".
func (v *DictionaryVerifier) Value() (uint64, bool, error) {
	entries, err := v.SubVectorVerifier.Result()
	if err != nil {
		return 0, false, err
	}
	if len(entries) == 0 {
		return 0, false, nil
	}
	stored := entries[0].Value
	if stored < 1 {
		return 0, false, reject("dictionary entry %d malformed (stored %d)", entries[0].Index, stored)
	}
	return uint64(stored) - 1, true, nil
}

// DictionaryProver wraps a sub-vector prover over [q, q].
type DictionaryProver struct{ *SubVectorProver }

// NewProver returns a prover ready to observe insertions.
func (p *Dictionary) NewProver() *DictionaryProver {
	return &DictionaryProver{SubVectorProver: p.sv.NewProver()}
}

// SetQuery fixes the looked-up key.
func (pr *DictionaryProver) SetQuery(key uint64) error {
	return pr.SubVectorProver.SetQuery(key, key)
}

// ---------------------------------------------------------------------
// PREDECESSOR / SUCCESSOR

// NoneSentinel is the index the prover claims when no predecessor or
// successor exists (the paper sidesteps this by assuming 0 is always
// present; we verify the "none" claim instead of assuming).
const NoneSentinel = ^uint64(0)

// Predecessor is the PREDECESSOR protocol: the largest p ≤ q present in
// the stream.
type Predecessor struct{ sv *SubVector }

// NewPredecessor returns the protocol for universes of size ≥ u.
func NewPredecessor(f field.Field, u uint64) (*Predecessor, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	return &Predecessor{sv: sv}, nil
}

// PredecessorVerifier verifies the claimed predecessor via an embedded
// sub-vector conversation.
type PredecessorVerifier struct {
	sv      *SubVectorVerifier
	q       uint64
	claimed uint64
	started bool
}

// NewVerifier samples randomness and returns a verifier.
func (p *Predecessor) NewVerifier(rng field.RNG) *PredecessorVerifier {
	return &PredecessorVerifier{sv: p.sv.NewVerifier(rng)}
}

// Observe folds one stream element (interpreted as an insertion of the
// element's index; callers pass δ=1 updates).
func (v *PredecessorVerifier) Observe(up stream.Update) error { return v.sv.Observe(up) }

// Challenges is the embedded sub-vector conversation's schedule.
func (v *PredecessorVerifier) Challenges() []Msg { return v.sv.Challenges() }

// SetQuery fixes the query point q.
func (v *PredecessorVerifier) SetQuery(q uint64) error {
	if q >= v.sv.proto.Params.U {
		return fmt.Errorf("core: query %d outside universe", q)
	}
	v.q = q
	return nil
}

// Begin consumes the opening: Ints[0] is the claimed predecessor (or
// NoneSentinel), followed by the embedded sub-vector opening over
// [claimed, q] (respectively [0, q] for a "none" claim, which must report
// an empty sub-vector).
func (v *PredecessorVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.started {
		return Msg{}, false, fmt.Errorf("core: predecessor verifier already started")
	}
	v.started = true
	if len(opening.Ints) < 1 {
		return Msg{}, false, reject("predecessor opening missing claim")
	}
	v.claimed = opening.Ints[0]
	rest := Msg{Ints: opening.Ints[1:], Elems: opening.Elems}
	lo := uint64(0)
	if v.claimed != NoneSentinel {
		if v.claimed > v.q {
			return Msg{}, false, reject("claimed predecessor %d exceeds query %d", v.claimed, v.q)
		}
		lo = v.claimed
		if len(rest.Ints) != 1 || rest.Ints[0] != v.claimed {
			return Msg{}, false, reject("predecessor sub-vector must contain exactly the claimed index")
		}
	} else if len(rest.Ints) != 0 {
		return Msg{}, false, reject("none-claim must report an empty sub-vector")
	}
	if err := v.sv.SetQuery(lo, v.q); err != nil {
		return Msg{}, false, err
	}
	return v.sv.Begin(rest)
}

// Step delegates to the embedded sub-vector conversation.
func (v *PredecessorVerifier) Step(response Msg) (Msg, bool, error) { return v.sv.Step(response) }

// Result returns the verified predecessor; found is false when no element
// ≤ q exists.
func (v *PredecessorVerifier) Result() (pred uint64, found bool, err error) {
	if _, err := v.sv.Result(); err != nil {
		return 0, false, err
	}
	if v.claimed == NoneSentinel {
		return 0, false, nil
	}
	return v.claimed, true, nil
}

// PredecessorProver answers predecessor queries.
type PredecessorProver struct {
	sv *SubVectorProver
	q  uint64
}

// NewProver returns a prover ready to observe the stream.
func (p *Predecessor) NewProver() *PredecessorProver {
	return &PredecessorProver{sv: p.sv.NewProver()}
}

// Observe records one stream element.
func (pr *PredecessorProver) Observe(up stream.Update) error { return pr.sv.Observe(up) }

// SetQuery fixes the query point q.
func (pr *PredecessorProver) SetQuery(q uint64) error {
	if q >= pr.sv.proto.Params.U {
		return fmt.Errorf("core: query %d outside universe", q)
	}
	pr.q = q
	return nil
}

// Open computes the true predecessor and opens the embedded sub-vector
// conversation.
func (pr *PredecessorProver) Open() (Msg, error) {
	pred, found := scanExtreme(pr.sv.counts, func(i uint64) bool { return i <= pr.q }, true)
	lo, claim := uint64(0), NoneSentinel
	if found {
		lo, claim = pred, pred
	}
	if err := pr.sv.SetQuery(lo, pr.q); err != nil {
		return Msg{}, err
	}
	inner, err := pr.sv.Open()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Ints: append([]uint64{claim}, inner.Ints...), Elems: inner.Elems}, nil
}

// Step delegates to the embedded sub-vector conversation.
func (pr *PredecessorProver) Step(challenge Msg) (Msg, error) { return pr.sv.Step(challenge) }

// Successor is the symmetric SUCCESSOR protocol: the smallest p ≥ q
// present in the stream.
type Successor struct{ sv *SubVector }

// NewSuccessor returns the protocol for universes of size ≥ u.
func NewSuccessor(f field.Field, u uint64) (*Successor, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	return &Successor{sv: sv}, nil
}

// SuccessorVerifier verifies the claimed successor.
type SuccessorVerifier struct {
	sv      *SubVectorVerifier
	q       uint64
	claimed uint64
	started bool
}

// NewVerifier samples randomness and returns a verifier.
func (p *Successor) NewVerifier(rng field.RNG) *SuccessorVerifier {
	return &SuccessorVerifier{sv: p.sv.NewVerifier(rng)}
}

// Observe folds one stream element.
func (v *SuccessorVerifier) Observe(up stream.Update) error { return v.sv.Observe(up) }

// Challenges is the embedded sub-vector conversation's schedule.
func (v *SuccessorVerifier) Challenges() []Msg { return v.sv.Challenges() }

// SetQuery fixes the query point q.
func (v *SuccessorVerifier) SetQuery(q uint64) error {
	if q >= v.sv.proto.Params.U {
		return fmt.Errorf("core: query %d outside universe", q)
	}
	v.q = q
	return nil
}

// Begin consumes the opening: Ints[0] is the claimed successor (or
// NoneSentinel), then the sub-vector opening over [q, claimed]
// (respectively [q, u-1] for "none").
func (v *SuccessorVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.started {
		return Msg{}, false, fmt.Errorf("core: successor verifier already started")
	}
	v.started = true
	if len(opening.Ints) < 1 {
		return Msg{}, false, reject("successor opening missing claim")
	}
	v.claimed = opening.Ints[0]
	rest := Msg{Ints: opening.Ints[1:], Elems: opening.Elems}
	hi := v.sv.proto.Params.U - 1
	if v.claimed != NoneSentinel {
		if v.claimed < v.q || v.claimed >= v.sv.proto.Params.U {
			return Msg{}, false, reject("claimed successor %d outside [%d,%d]", v.claimed, v.q, hi)
		}
		hi = v.claimed
		if len(rest.Ints) != 1 || rest.Ints[0] != v.claimed {
			return Msg{}, false, reject("successor sub-vector must contain exactly the claimed index")
		}
	} else if len(rest.Ints) != 0 {
		return Msg{}, false, reject("none-claim must report an empty sub-vector")
	}
	if err := v.sv.SetQuery(v.q, hi); err != nil {
		return Msg{}, false, err
	}
	return v.sv.Begin(rest)
}

// Step delegates to the embedded sub-vector conversation.
func (v *SuccessorVerifier) Step(response Msg) (Msg, bool, error) { return v.sv.Step(response) }

// Result returns the verified successor.
func (v *SuccessorVerifier) Result() (succ uint64, found bool, err error) {
	if _, err := v.sv.Result(); err != nil {
		return 0, false, err
	}
	if v.claimed == NoneSentinel {
		return 0, false, nil
	}
	return v.claimed, true, nil
}

// SuccessorProver answers successor queries.
type SuccessorProver struct {
	sv *SubVectorProver
	q  uint64
}

// NewProver returns a prover ready to observe the stream.
func (p *Successor) NewProver() *SuccessorProver {
	return &SuccessorProver{sv: p.sv.NewProver()}
}

// Observe records one stream element.
func (pr *SuccessorProver) Observe(up stream.Update) error { return pr.sv.Observe(up) }

// SetQuery fixes the query point q.
func (pr *SuccessorProver) SetQuery(q uint64) error {
	if q >= pr.sv.proto.Params.U {
		return fmt.Errorf("core: query %d outside universe", q)
	}
	pr.q = q
	return nil
}

// Open computes the true successor and opens the embedded sub-vector
// conversation.
func (pr *SuccessorProver) Open() (Msg, error) {
	succ, found := scanExtreme(pr.sv.counts, func(i uint64) bool { return i >= pr.q }, false)
	hi, claim := pr.sv.proto.Params.U-1, NoneSentinel
	if found {
		hi, claim = succ, succ
	}
	if err := pr.sv.SetQuery(pr.q, hi); err != nil {
		return Msg{}, err
	}
	inner, err := pr.sv.Open()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Ints: append([]uint64{claim}, inner.Ints...), Elems: inner.Elems}, nil
}

// Step delegates to the embedded sub-vector conversation.
func (pr *SuccessorProver) Step(challenge Msg) (Msg, error) { return pr.sv.Step(challenge) }

// scanExtreme returns the largest (wantMax) or smallest nonzero index of
// the dense frequency table satisfying keep.
func scanExtreme(counts []int64, keep func(uint64) bool, wantMax bool) (uint64, bool) {
	var best uint64
	found := false
	for i, c := range counts {
		idx := uint64(i)
		if c == 0 || !keep(idx) {
			continue
		}
		if !found || (wantMax && idx > best) || (!wantMax && idx < best) {
			best, found = idx, true
		}
	}
	return best, found
}

// ---------------------------------------------------------------------
// k-LARGEST

// KLargest is the k-th largest query of §6.1: the largest p present such
// that at least k-1 larger values are also present. Cost (log u, k+log u).
type KLargest struct{ sv *SubVector }

// NewKLargest returns the protocol for universes of size ≥ u.
func NewKLargest(f field.Field, u uint64) (*KLargest, error) {
	sv, err := NewSubVector(f, u)
	if err != nil {
		return nil, err
	}
	return &KLargest{sv: sv}, nil
}

// KLargestVerifier checks a claimed k-th-largest location by verifying
// that the sub-vector (a_loc,…,a_{u-1}) has exactly k nonzero entries
// with the smallest at loc.
type KLargestVerifier struct {
	sv      *SubVectorVerifier
	k       int
	claimed uint64
	started bool
}

// NewVerifier samples randomness and returns a verifier.
func (p *KLargest) NewVerifier(rng field.RNG) *KLargestVerifier {
	return &KLargestVerifier{sv: p.sv.NewVerifier(rng)}
}

// Observe folds one stream element.
func (v *KLargestVerifier) Observe(up stream.Update) error { return v.sv.Observe(up) }

// Challenges is the embedded sub-vector conversation's schedule.
func (v *KLargestVerifier) Challenges() []Msg { return v.sv.Challenges() }

// SetQuery fixes k ≥ 1.
func (v *KLargestVerifier) SetQuery(k int) error {
	if k < 1 {
		return fmt.Errorf("core: k-largest requires k ≥ 1, got %d", k)
	}
	v.k = k
	return nil
}

// Begin consumes the opening: Ints[0] = claimed location, then the
// sub-vector opening over [loc, u-1].
func (v *KLargestVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.started {
		return Msg{}, false, fmt.Errorf("core: k-largest verifier already started")
	}
	if v.k == 0 {
		return Msg{}, false, fmt.Errorf("core: k-largest query not set")
	}
	v.started = true
	if len(opening.Ints) < 1 {
		return Msg{}, false, reject("k-largest opening missing claim")
	}
	v.claimed = opening.Ints[0]
	if v.claimed >= v.sv.proto.Params.U {
		return Msg{}, false, reject("claimed location %d outside universe", v.claimed)
	}
	rest := Msg{Ints: opening.Ints[1:], Elems: opening.Elems}
	if len(rest.Ints) != v.k {
		return Msg{}, false, reject("k-largest sub-vector has %d entries, want exactly k=%d", len(rest.Ints), v.k)
	}
	if rest.Ints[0] != v.claimed {
		return Msg{}, false, reject("smallest reported entry %d is not the claimed location %d", rest.Ints[0], v.claimed)
	}
	if err := v.sv.SetQuery(v.claimed, v.sv.proto.Params.U-1); err != nil {
		return Msg{}, false, err
	}
	return v.sv.Begin(rest)
}

// Step delegates to the embedded sub-vector conversation.
func (v *KLargestVerifier) Step(response Msg) (Msg, bool, error) { return v.sv.Step(response) }

// Result returns the verified k-th largest element.
func (v *KLargestVerifier) Result() (uint64, error) {
	if _, err := v.sv.Result(); err != nil {
		return 0, err
	}
	return v.claimed, nil
}

// KLargestProver answers k-th largest queries.
type KLargestProver struct {
	sv *SubVectorProver
	k  int
}

// NewProver returns a prover ready to observe the stream.
func (p *KLargest) NewProver() *KLargestProver {
	return &KLargestProver{sv: p.sv.NewProver()}
}

// Observe records one stream element.
func (pr *KLargestProver) Observe(up stream.Update) error { return pr.sv.Observe(up) }

// SetQuery fixes k ≥ 1.
func (pr *KLargestProver) SetQuery(k int) error {
	if k < 1 {
		return fmt.Errorf("core: k-largest requires k ≥ 1, got %d", k)
	}
	pr.k = k
	return nil
}

// Open locates the k-th largest distinct element and opens the sub-vector
// conversation over [loc, u-1]. It reports an error if fewer than k
// distinct elements are present.
func (pr *KLargestProver) Open() (Msg, error) {
	if pr.k == 0 {
		return Msg{}, fmt.Errorf("core: k-largest query not set")
	}
	var loc uint64
	seen := 0
	for i := len(pr.sv.counts) - 1; i >= 0 && seen < pr.k; i-- {
		if pr.sv.counts[i] != 0 {
			seen++
			loc = uint64(i)
		}
	}
	if seen < pr.k {
		return Msg{}, fmt.Errorf("core: only %d distinct elements present, need %d", seen, pr.k)
	}
	if err := pr.sv.SetQuery(loc, pr.sv.proto.Params.U-1); err != nil {
		return Msg{}, err
	}
	inner, err := pr.sv.Open()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Ints: append([]uint64{loc}, inner.Ints...), Elems: inner.Elems}, nil
}

// Step delegates to the embedded sub-vector conversation.
func (pr *KLargestProver) Step(challenge Msg) (Msg, error) { return pr.sv.Step(challenge) }

// ---------------------------------------------------------------------
// Snapshot-backed proving
//
// Each specialization can also construct its prover from a dense count
// table maintained elsewhere (a dataset-engine snapshot) instead of
// observing the stream; see SubVector.NewProverFromCounts.

// NewProverFromCounts returns an INDEX prover over a shared count table.
func (p *Index) NewProverFromCounts(counts []int64) (*IndexProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &IndexProver{SubVectorProver: sv}, nil
}

// NewProverFromCounts returns a DICTIONARY prover over a shared count table.
func (p *Dictionary) NewProverFromCounts(counts []int64) (*DictionaryProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &DictionaryProver{SubVectorProver: sv}, nil
}

// NewProverFromCounts returns a PREDECESSOR prover over a shared count table.
func (p *Predecessor) NewProverFromCounts(counts []int64) (*PredecessorProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &PredecessorProver{sv: sv}, nil
}

// NewProverFromCounts returns a SUCCESSOR prover over a shared count table.
func (p *Successor) NewProverFromCounts(counts []int64) (*SuccessorProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &SuccessorProver{sv: sv}, nil
}

// NewProverFromCounts returns a k-LARGEST prover over a shared count table.
func (p *KLargest) NewProverFromCounts(counts []int64) (*KLargestProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &KLargestProver{sv: sv}, nil
}

// ---------------------------------------------------------------------
// Parallel proving

// SetWorkers sets the prover's parallel fan-out of the underlying
// SUB-VECTOR protocol; see SubVector.Workers.
func (p *Index) SetWorkers(n int) { p.sv.Workers = n }

// SetWorkers sets the prover's parallel fan-out; see SubVector.Workers.
func (p *Dictionary) SetWorkers(n int) { p.sv.Workers = n }

// SetWorkers sets the prover's parallel fan-out; see SubVector.Workers.
func (p *Predecessor) SetWorkers(n int) { p.sv.Workers = n }

// SetWorkers sets the prover's parallel fan-out; see SubVector.Workers.
func (p *Successor) SetWorkers(n int) { p.sv.Workers = n }

// SetWorkers sets the prover's parallel fan-out; see SubVector.Workers.
func (p *KLargest) SetWorkers(n int) { p.sv.Workers = n }
