package core

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// Fk is the frequency-moment protocol of §3: SELF-JOIN SIZE for K=2 and
// the k-th frequency moment in general. With the default ℓ=2 it is a
// (log u, log u) protocol (Theorem 4); the per-round message carries
// K(ℓ-1)+1 words, which is how the communication grows to O(K log u) for
// higher moments (§3.2).
type Fk struct {
	F      field.Field
	Params lde.Params
	K      int

	// Workers sets the prover's parallel fan-out (sumcheck.Config.Workers
	// semantics: 0 serial, n > 0 that many goroutines, n < 0
	// runtime.NumCPU()). Set it before the prover opens the conversation.
	// Transcripts are bit-identical for every value; the verifier is
	// unaffected.
	Workers int
}

// NewFk returns the Fk protocol over a universe of size ≥ u with the
// paper's default decomposition ℓ=2, d=⌈log2 u⌉.
func NewFk(f field.Field, u uint64, k int) (*Fk, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	return NewFkWithParams(f, params, k)
}

// NewFkWithParams allows a custom (ℓ, d) decomposition — used by the
// branching-factor ablation of §3.1 footnote 1.
func NewFkWithParams(f field.Field, params lde.Params, k int) (*Fk, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: frequency moment order %d < 1", k)
	}
	p := &Fk{F: f, Params: params, K: k}
	if err := p.scConfig().Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// NewSelfJoinSize returns the SELF-JOIN SIZE (F2) protocol, the paper's
// headline aggregation query.
func NewSelfJoinSize(f field.Field, u uint64) (*Fk, error) {
	return NewFk(f, u, 2)
}

func (p *Fk) scConfig() sumcheck.Config {
	return sumcheck.Config{Field: p.F, Params: p.Params, Combiner: sumcheck.Power{K: p.K}, Workers: p.Workers}
}

// ---------------------------------------------------------------------

// FkVerifier is the verifier session: O(log u) space, O(log u) time per
// stream update.
type FkVerifier struct {
	scVerifier
	proto *Fk
	ev    *lde.Evaluator
}

// NewVerifier samples the secret point r (before the stream, as required)
// and adopts it.
func (p *Fk) NewVerifier(rng field.RNG) *FkVerifier {
	return p.Adopt(Summary{Point: lde.NewEvaluator(lde.RandomPoint(p.F, p.Params, rng))})
}

// Adopt returns a verifier over s's point summary, which must be drawn
// for p.Params and may already have observed updates.
func (p *Fk) Adopt(s Summary) *FkVerifier {
	return &FkVerifier{scVerifier: scVerifier{pt: s.Point.Point()}, proto: p, ev: s.Point}
}

// Observe folds one stream update into the running LDE evaluation.
func (v *FkVerifier) Observe(up stream.Update) error {
	return v.ev.Update(up.Index, up.Delta)
}

// Begin consumes the opening message [claim, g_1(0..deg)]; the final
// check is against f_a(r)^K.
func (v *FkVerifier) Begin(opening Msg) (Msg, bool, error) {
	return v.begin(v.proto.scConfig(), opening, v.proto.F.Pow(v.ev.Value(), uint64(v.proto.K)))
}

// SpaceWords reports the verifier's working memory in the paper's
// accounting: the streaming LDE state plus the sum-check round state.
func (v *FkVerifier) SpaceWords() int {
	n := v.ev.SpaceWords()
	if v.sc != nil {
		n += v.sc.SpaceWords()
	} else {
		n += v.proto.scConfig().MessageLen() + 2
	}
	return n
}

// ---------------------------------------------------------------------

// FkProver is the honest prover: it holds the full frequency vector
// (O(min(u,n)) space) and spends at most O(K·u) field operations across
// all rounds (Appendix B.1), fewer on a sparse table (the operation count
// is in internal/sumcheck's package doc).
type FkProver struct {
	scProver
	proto *Fk
	table sumcheck.Counts
}

// NewProverFromTable returns a prover over the aggregated frequency table
// (its counts, Params.U entries, each |c| < p) held in chunks — a flat
// table is sumcheck.Flat, a dataset-engine snapshot its chunks — and
// borrowed read-only. Construction is O(1), and the sum-check never
// writes the table, so many sessions can share one. live, when set, is
// called once, when the prover opens, and returns the table's live-pair
// scan: a memo shared by every prover of one table version. nil scans
// the table when the prover opens.
func (p *Fk) NewProverFromTable(table sumcheck.Counts, live func() sumcheck.LivePairs) (*FkProver, error) {
	if uint64(table.Len()) != p.Params.U {
		return nil, fmt.Errorf("core: table has %d entries, want %d", table.Len(), p.Params.U)
	}
	return &FkProver{scProver: scProver{live: live}, proto: p, table: table}, nil
}

// Open computes the claimed moment and the unprompted round-1 polynomial.
func (pr *FkProver) Open() (Msg, error) {
	return openTables(&pr.scProver, pr.proto.scConfig(), pr.table)
}

// ---------------------------------------------------------------------

// InnerProduct is the JOIN SIZE protocol of §3.2: two streams A and B with
// frequency vectors a, b; the claim is Σ_i a_i·b_i. The prover sends
// polynomials claimed to be partial sums of f_a·f_b and the verifier's
// final check is g_d(r_d) = f_a(r)·f_b(r).
type InnerProduct struct {
	F      field.Field
	Params lde.Params

	// Workers is the prover's parallel fan-out; see Fk.Workers.
	Workers int
}

// NewInnerProduct returns the protocol for universes of size ≥ u (ℓ=2).
func NewInnerProduct(f field.Field, u uint64) (*InnerProduct, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	return &InnerProduct{F: f, Params: params}, nil
}

func (p *InnerProduct) scConfig() sumcheck.Config {
	return sumcheck.Config{Field: p.F, Params: p.Params, Combiner: sumcheck.Product{}, Workers: p.Workers}
}

// InnerProductVerifier evaluates both LDEs at the same secret point.
type InnerProductVerifier struct {
	scVerifier
	proto    *InnerProduct
	evA, evB *lde.Evaluator
}

// NewVerifier samples the secret point and returns the verifier.
func (p *InnerProduct) NewVerifier(rng field.RNG) *InnerProductVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	return &InnerProductVerifier{scVerifier: scVerifier{pt: pt}, proto: p, evA: lde.NewEvaluator(pt), evB: lde.NewEvaluator(pt)}
}

// ObserveA folds an update of stream A.
func (v *InnerProductVerifier) ObserveA(up stream.Update) error {
	return v.evA.Update(up.Index, up.Delta)
}

// ObserveB folds an update of stream B.
func (v *InnerProductVerifier) ObserveB(up stream.Update) error {
	return v.evB.Update(up.Index, up.Delta)
}

// Begin consumes the opening [claim, g_1(0..2)]; the final check is
// against f_a(r)·f_b(r).
func (v *InnerProductVerifier) Begin(opening Msg) (Msg, bool, error) {
	return v.begin(v.proto.scConfig(), opening, v.proto.F.Mul(v.evA.Value(), v.evB.Value()))
}

// InnerProductProver holds both frequency vectors.
type InnerProductProver struct {
	scProver
	proto  *InnerProduct
	tables [2][]field.Elem
}

// NewProverFromTables returns a prover over the aggregated tables of
// streams A and B (field images, length Params.U each), borrowed
// read-only; see Fk.NewProverFromTable.
func (p *InnerProduct) NewProverFromTables(a, b []field.Elem) (*InnerProductProver, error) {
	if err := checkTables(p.Params.U, a, b); err != nil {
		return nil, err
	}
	return &InnerProductProver{proto: p, tables: [2][]field.Elem{a, b}}, nil
}

// Open computes the claimed inner product and round-1 polynomial.
func (pr *InnerProductProver) Open() (Msg, error) {
	return openTables(&pr.scProver, pr.proto.scConfig(), sumcheck.Flat(pr.tables[0]), sumcheck.Flat(pr.tables[1]))
}

// ---------------------------------------------------------------------

// RangeSum is the RANGE-SUM protocol of §3.2: a stream of distinct
// (key, value) pairs followed by a query [qL, qR]; the answer is the sum
// of values with keys in the range. It is the inner product of a with the
// range indicator b, whose LDE the verifier evaluates itself in O(log² u)
// via the canonical-interval decomposition — no second stream needed.
type RangeSum struct {
	F      field.Field
	Params lde.Params

	// Workers is the prover's parallel fan-out; see Fk.Workers.
	Workers int
}

// NewRangeSum returns the protocol for universes of size ≥ u. The
// indicator evaluation requires ℓ=2.
func NewRangeSum(f field.Field, u uint64) (*RangeSum, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	return &RangeSum{F: f, Params: params}, nil
}

func (p *RangeSum) scConfig() sumcheck.Config {
	return sumcheck.Config{Field: p.F, Params: p.Params, Combiner: sumcheck.Product{}, Workers: p.Workers}
}

// RangeSumVerifier streams f_a(r); the query is set after the stream.
type RangeSumVerifier struct {
	scVerifier
	proto    *RangeSum
	ev       *lde.Evaluator
	qL, qR   uint64
	hasQuery bool
}

// NewVerifier samples the secret point and adopts it.
func (p *RangeSum) NewVerifier(rng field.RNG) *RangeSumVerifier {
	return p.Adopt(DrawSummary(p.F, p.Params.D, FamilyPoint, rng))
}

// Adopt returns a verifier over s's point summary.
func (p *RangeSum) Adopt(s Summary) *RangeSumVerifier {
	return &RangeSumVerifier{scVerifier: scVerifier{pt: s.Point.Point()}, proto: p, ev: s.Point}
}

// Observe folds one (key, value) pair, encoded as an update.
func (v *RangeSumVerifier) Observe(up stream.Update) error {
	return v.ev.Update(up.Index, up.Delta)
}

// SetQuery fixes the range [qL, qR]; it must be called after the stream
// and before Begin. (This is the point where a real deployment transmits
// the query to the cloud; the two words are accounted by the transport.)
func (v *RangeSumVerifier) SetQuery(qL, qR uint64) error {
	if err := checkRange(qL, qR, v.proto.Params.U); err != nil {
		return err
	}
	v.qL, v.qR, v.hasQuery = qL, qR, true
	return nil
}

// Begin consumes the opening [claim, g_1(0..2)]; the final check is
// against f_a(r)·f_b(r), with f_b the range indicator's LDE.
func (v *RangeSumVerifier) Begin(opening Msg) (Msg, bool, error) {
	if !v.hasQuery {
		return Msg{}, false, fmt.Errorf("core: range-sum query not set")
	}
	fb, err := lde.EvalRangeIndicator(v.pt, v.qL, v.qR)
	if err != nil {
		return Msg{}, false, err
	}
	return v.begin(v.proto.scConfig(), opening, v.proto.F.Mul(v.ev.Value(), fb))
}

// SignedResult lifts the result to the centered signed representative,
// correct whenever |true sum| < p/2 (values may be negative in the
// general update model).
func (v *RangeSumVerifier) SignedResult() (int64, error) {
	e, err := v.Result()
	if err != nil {
		return 0, err
	}
	return v.proto.F.Centered(e), nil
}

// RangeSumProver holds the key–value vector and builds the indicator,
// in the table's chunks, once the query arrives.
type RangeSumProver struct {
	scProver
	proto    *RangeSum
	table    sumcheck.Counts
	qL, qR   uint64
	hasQuery bool
}

// NewProverFromTable returns a prover over the aggregated key–value
// table, its counts held in chunks and borrowed read-only; see
// Fk.NewProverFromTable.
func (p *RangeSum) NewProverFromTable(table sumcheck.Counts) (*RangeSumProver, error) {
	if uint64(table.Len()) != p.Params.U {
		return nil, fmt.Errorf("core: table has %d entries, want %d", table.Len(), p.Params.U)
	}
	return &RangeSumProver{proto: p, table: table}, nil
}

// SetQuery fixes the queried range.
func (pr *RangeSumProver) SetQuery(qL, qR uint64) error {
	if err := checkRange(qL, qR, pr.proto.Params.U); err != nil {
		return err
	}
	pr.qL, pr.qR, pr.hasQuery = qL, qR, true
	return nil
}

// Open computes the claimed sum and round-1 polynomial.
func (pr *RangeSumProver) Open() (Msg, error) {
	if !pr.hasQuery {
		return Msg{}, fmt.Errorf("core: range-sum query not set")
	}
	return openTables(&pr.scProver, pr.proto.scConfig(), pr.table, rangeIndicator(pr.table, 0, pr.qL, pr.qR))
}

// rangeIndicator returns the [qL, qR] indicator over the universe slice
// table spans from lo (global index i stored at i−lo), in table's
// chunks: nil outside the range, one shared all-ones chunk for the
// chunks inside it, and its own chunk for each chunk the range ends in.
func rangeIndicator(table sumcheck.Counts, lo, qL, qR uint64) sumcheck.Counts {
	w := uint64(table.Width)
	ind := sumcheck.Counts{Width: table.Width, Chunks: make([][]int64, len(table.Chunks))}
	var ones []int64
	for k := range ind.Chunks {
		a, b := lo+uint64(k)*w, lo+uint64(k+1)*w-1 // the chunk's first and last global index
		switch {
		case b < qL || a > qR:
		case qL <= a && b <= qR:
			if ones == nil {
				ones = make([]int64, w)
				for i := range ones {
					ones[i] = 1
				}
			}
			ind.Chunks[k] = ones
		default:
			ch := make([]int64, w)
			for i := max(qL, a); i <= min(qR, b); i++ {
				ch[i-a] = 1
			}
			ind.Chunks[k] = ch
		}
	}
	return ind
}

// checkTables validates prover tables against the padded universe size.
func checkTables(u uint64, tables ...[]field.Elem) error {
	for _, t := range tables {
		if uint64(len(t)) != u {
			return fmt.Errorf("core: table has %d entries, want %d", len(t), u)
		}
	}
	return nil
}
