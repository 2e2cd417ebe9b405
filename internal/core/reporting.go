package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
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

// NewVerifier draws a tree summary and adopts it.
func (p *Index) NewVerifier(rng field.RNG) *IndexVerifier {
	return p.Adopt(p.sv.summary(rng))
}

// Adopt returns a verifier over s's tree summary.
func (p *Index) Adopt(s Summary) *IndexVerifier {
	return &IndexVerifier{SubVectorVerifier: p.sv.Adopt(s)}
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
// the +1 shift. The verifier observes, and the prover's table aggregates,
// insertions through this encoding. Keys must be distinct across the stream (the paper's
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

// NewVerifier draws a tree summary and adopts it.
func (p *Dictionary) NewVerifier(rng field.RNG) *DictionaryVerifier {
	return p.Adopt(p.sv.summary(rng))
}

// Adopt returns a verifier over s's tree summary.
func (p *Dictionary) Adopt(s Summary) *DictionaryVerifier {
	return &DictionaryVerifier{SubVectorVerifier: p.sv.Adopt(s)}
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
	anchorVerifier
	q uint64
}

// NewVerifier draws a tree summary and adopts it.
func (p *Predecessor) NewVerifier(rng field.RNG) *PredecessorVerifier {
	return p.Adopt(p.sv.summary(rng))
}

// Adopt returns a verifier over s's tree summary.
func (p *Predecessor) Adopt(s Summary) *PredecessorVerifier {
	return &PredecessorVerifier{anchorVerifier: anchorVerifier{sv: p.sv.Adopt(s)}}
}

// SetQuery fixes the query point q.
func (v *PredecessorVerifier) SetQuery(q uint64) error { return setPoint(&v.q, q, v.sv.proto.Params.U) }

// Begin consumes the opening: Ints[0] is the claimed predecessor (or
// NoneSentinel), followed by the embedded sub-vector opening over
// [claimed, q], which must report exactly the claimed index (respectively
// [0, q] for a "none" claim, which must report an empty sub-vector).
func (v *PredecessorVerifier) Begin(opening Msg) (Msg, bool, error) {
	return v.begin("predecessor", opening, func(claimed uint64) (uint64, uint64, int, error) {
		switch {
		case claimed == NoneSentinel:
			return 0, v.q, 0, nil
		case claimed > v.q:
			return 0, 0, 0, reject("claimed predecessor %d exceeds query %d", claimed, v.q)
		}
		return claimed, v.q, 1, nil
	})
}

// Result returns the verified predecessor; found is false when no element
// ≤ q exists.
func (v *PredecessorVerifier) Result() (pred uint64, found bool, err error) { return v.found() }

// PredecessorProver answers predecessor queries.
type PredecessorProver struct {
	anchorProver
	q uint64
}

// SetQuery fixes the query point q.
func (pr *PredecessorProver) SetQuery(q uint64) error {
	return setPoint(&pr.q, q, pr.sv.proto.Params.U)
}

// Open computes the true predecessor and opens the embedded sub-vector
// conversation.
func (pr *PredecessorProver) Open() (Msg, error) {
	pred, found := scanExtreme(pr.sv.counts, func(i uint64) bool { return i <= pr.q }, true)
	if !found {
		return pr.open(NoneSentinel, 0, pr.q)
	}
	return pr.open(pred, pred, pr.q)
}

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
	anchorVerifier
	q uint64
}

// NewVerifier draws a tree summary and adopts it.
func (p *Successor) NewVerifier(rng field.RNG) *SuccessorVerifier {
	return p.Adopt(p.sv.summary(rng))
}

// Adopt returns a verifier over s's tree summary.
func (p *Successor) Adopt(s Summary) *SuccessorVerifier {
	return &SuccessorVerifier{anchorVerifier: anchorVerifier{sv: p.sv.Adopt(s)}}
}

// SetQuery fixes the query point q.
func (v *SuccessorVerifier) SetQuery(q uint64) error { return setPoint(&v.q, q, v.sv.proto.Params.U) }

// Begin consumes the opening: Ints[0] is the claimed successor (or
// NoneSentinel), then the sub-vector opening over [q, claimed]
// (respectively [q, u-1] for "none").
func (v *SuccessorVerifier) Begin(opening Msg) (Msg, bool, error) {
	return v.begin("successor", opening, func(claimed uint64) (uint64, uint64, int, error) {
		last := v.sv.proto.Params.U - 1
		switch {
		case claimed == NoneSentinel:
			return v.q, last, 0, nil
		case claimed < v.q || claimed > last:
			return 0, 0, 0, reject("claimed successor %d outside [%d,%d]", claimed, v.q, last)
		}
		return v.q, claimed, 1, nil
	})
}

// Result returns the verified successor.
func (v *SuccessorVerifier) Result() (succ uint64, found bool, err error) { return v.found() }

// SuccessorProver answers successor queries.
type SuccessorProver struct {
	anchorProver
	q uint64
}

// SetQuery fixes the query point q.
func (pr *SuccessorProver) SetQuery(q uint64) error { return setPoint(&pr.q, q, pr.sv.proto.Params.U) }

// Open computes the true successor and opens the embedded sub-vector
// conversation.
func (pr *SuccessorProver) Open() (Msg, error) {
	succ, found := scanExtreme(pr.sv.counts, func(i uint64) bool { return i >= pr.q }, false)
	if !found {
		return pr.open(NoneSentinel, pr.q, pr.sv.proto.Params.U-1)
	}
	return pr.open(succ, pr.q, succ)
}

// scanExtreme returns the largest (wantMax) or smallest nonzero index of
// the frequency table satisfying keep.
func scanExtreme(counts sumcheck.Counts, keep func(uint64) bool, wantMax bool) (best uint64, found bool) {
	eachCount(counts, wantMax, func(i uint64, _ int64) bool {
		if keep(i) {
			best, found = i, true
		}
		return !found
	})
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
	anchorVerifier
	k int
}

// NewVerifier draws a tree summary and adopts it.
func (p *KLargest) NewVerifier(rng field.RNG) *KLargestVerifier {
	return p.Adopt(p.sv.summary(rng))
}

// Adopt returns a verifier over s's tree summary.
func (p *KLargest) Adopt(s Summary) *KLargestVerifier {
	return &KLargestVerifier{anchorVerifier: anchorVerifier{sv: p.sv.Adopt(s)}}
}

// SetQuery fixes k ≥ 1.
func (v *KLargestVerifier) SetQuery(k int) error { return setK(&v.k, k) }

// Begin consumes the opening: Ints[0] = claimed location, then the
// sub-vector opening over [loc, u-1].
func (v *KLargestVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.k == 0 {
		return Msg{}, false, fmt.Errorf("core: k-largest query not set")
	}
	return v.begin("k-largest", opening, func(claimed uint64) (uint64, uint64, int, error) {
		last := v.sv.proto.Params.U - 1
		if claimed > last {
			return 0, 0, 0, reject("claimed location %d outside universe", claimed)
		}
		return claimed, last, v.k, nil
	})
}

// Result returns the verified k-th largest element.
func (v *KLargestVerifier) Result() (uint64, error) {
	loc, _, err := v.found()
	return loc, err
}

// KLargestProver answers k-th largest queries.
type KLargestProver struct {
	anchorProver
	k int
}

// SetQuery fixes k ≥ 1.
func (pr *KLargestProver) SetQuery(k int) error { return setK(&pr.k, k) }

// setK stores a k-LARGEST query's k after checking k ≥ 1.
func setK(dst *int, k int) error {
	if k < 1 {
		return fmt.Errorf("core: k-largest requires k ≥ 1, got %d", k)
	}
	*dst = k
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
	eachCount(pr.sv.counts, true, func(i uint64, _ int64) bool {
		seen++
		loc = i
		return seen < pr.k
	})
	if seen < pr.k {
		return Msg{}, fmt.Errorf("core: only %d distinct elements present, need %d", seen, pr.k)
	}
	return pr.open(loc, loc, pr.sv.proto.Params.U-1)
}

// ---------------------------------------------------------------------
// Provers
//
// Each specialization's prover borrows a count table held in chunks (a
// dataset-engine snapshot's) read-only; see SubVector.NewProverFromCounts.

// NewProverFromCounts returns an INDEX prover over a borrowed count table.
func (p *Index) NewProverFromCounts(counts sumcheck.Counts) (*IndexProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &IndexProver{SubVectorProver: sv}, nil
}

// NewProverFromCounts returns a DICTIONARY prover over a borrowed count table.
func (p *Dictionary) NewProverFromCounts(counts sumcheck.Counts) (*DictionaryProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &DictionaryProver{SubVectorProver: sv}, nil
}

// NewProverFromCounts returns a PREDECESSOR prover over a borrowed count table.
func (p *Predecessor) NewProverFromCounts(counts sumcheck.Counts) (*PredecessorProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &PredecessorProver{anchorProver: anchorProver{sv: sv}}, nil
}

// NewProverFromCounts returns a SUCCESSOR prover over a borrowed count table.
func (p *Successor) NewProverFromCounts(counts sumcheck.Counts) (*SuccessorProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &SuccessorProver{anchorProver: anchorProver{sv: sv}}, nil
}

// NewProverFromCounts returns a k-LARGEST prover over a borrowed count table.
func (p *KLargest) NewProverFromCounts(counts sumcheck.Counts) (*KLargestProver, error) {
	sv, err := p.sv.NewProverFromCounts(counts)
	if err != nil {
		return nil, err
	}
	return &KLargestProver{anchorProver: anchorProver{sv: sv}}, nil
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
