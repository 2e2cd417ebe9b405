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
	proto *Fk
	pt    *lde.Point
	ev    *lde.Evaluator
	sc    *sumcheck.Verifier
	claim field.Elem
	done  bool
}

// NewVerifier samples the secret point r (before the stream, as required)
// and returns a verifier ready to observe updates.
func (p *Fk) NewVerifier(rng field.RNG) *FkVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	return &FkVerifier{proto: p, pt: pt, ev: lde.NewEvaluator(pt)}
}

// Observe folds one stream update into the running LDE evaluation.
func (v *FkVerifier) Observe(up stream.Update) error {
	return v.ev.Update(up.Index, up.Delta)
}

// Challenges returns every message this verifier will send, in order:
// the first d−1 coordinates of r (r_d never travels). They are fixed by
// the randomness NewVerifier drew — no observed state, no prover input —
// so a Fiat–Shamir prover can be driven with them directly.
func (v *FkVerifier) Challenges() []Msg { return revealOneByOne(v.pt.R) }

// Begin consumes the opening message [claim, g_1(0..deg)].
func (v *FkVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.sc != nil {
		return Msg{}, false, fmt.Errorf("core: Fk verifier already started")
	}
	cfg := v.proto.scConfig()
	if len(opening.Ints) != 0 || len(opening.Elems) != 1+cfg.MessageLen() {
		return Msg{}, false, reject("Fk opening has %d ints and %d elems, want 0 and %d",
			len(opening.Ints), len(opening.Elems), 1+cfg.MessageLen())
	}
	v.claim = opening.Elems[0]
	expected := v.proto.F.Pow(v.ev.Value(), uint64(v.proto.K))
	sc, err := sumcheck.NewVerifier(cfg, v.pt.R, v.claim, expected)
	if err != nil {
		return Msg{}, false, err
	}
	v.sc = sc
	return v.absorb(opening.Elems[1:])
}

// Step consumes one round message g_j(0..deg).
func (v *FkVerifier) Step(response Msg) (Msg, bool, error) {
	if v.sc == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: Fk verifier not mid-conversation")
	}
	if len(response.Ints) != 0 {
		return Msg{}, false, reject("Fk round message carries unexpected ints")
	}
	return v.absorb(response.Elems)
}

func (v *FkVerifier) absorb(evals []field.Elem) (Msg, bool, error) {
	if err := v.sc.Receive(evals); err != nil {
		return Msg{}, false, reject("%v", err)
	}
	if v.sc.Done() {
		v.done = true
		return Msg{}, true, nil
	}
	ch, err := v.sc.Challenge()
	if err != nil {
		return Msg{}, false, err
	}
	return Msg{Elems: []field.Elem{ch}}, false, nil
}

// Result returns the verified frequency moment (as a field element; the
// paper assumes p is chosen large enough that Fk < p).
func (v *FkVerifier) Result() (field.Elem, error) {
	if !v.done {
		return 0, fmt.Errorf("core: Fk result unavailable before acceptance")
	}
	return v.claim, nil
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
// (O(min(u,n)) space) and spends O(K·u) field operations across all
// rounds (Appendix B.1).
type FkProver struct {
	proto *Fk
	table []field.Elem
	sc    *sumcheck.Prover
}

// NewProverFromTable returns a prover over the aggregated frequency table
// (the field image of the counts, length Params.U), borrowed read-only —
// typically a dataset-engine snapshot. Construction is O(1), and the
// sum-check copies the table at Open, so many sessions can share one
// table.
func (p *Fk) NewProverFromTable(table []field.Elem) (*FkProver, error) {
	if uint64(len(table)) != p.Params.U {
		return nil, fmt.Errorf("core: table has %d entries, want %d", len(table), p.Params.U)
	}
	return &FkProver{proto: p, table: table}, nil
}

// Open computes the claimed moment and the unprompted round-1 polynomial.
func (pr *FkProver) Open() (Msg, error) {
	sc, err := sumcheck.NewProver(pr.proto.scConfig(), pr.table)
	if err != nil {
		return Msg{}, err
	}
	pr.sc = sc
	claim := sc.Total()
	g1, err := sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: append([]field.Elem{claim}, g1...)}, nil
}

// Step folds the revealed challenge r_j and produces g_{j+1}.
func (pr *FkProver) Step(challenge Msg) (Msg, error) {
	if pr.sc == nil {
		return Msg{}, fmt.Errorf("core: Fk prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: Fk challenge has %d elems, want 1", len(challenge.Elems))
	}
	if err := pr.sc.Fold(challenge.Elems[0]); err != nil {
		return Msg{}, err
	}
	g, err := pr.sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: g}, nil
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
	proto *InnerProduct
	pt    *lde.Point
	evA   *lde.Evaluator
	evB   *lde.Evaluator
	sc    *sumcheck.Verifier
	claim field.Elem
	done  bool
}

// NewVerifier samples the secret point and returns the verifier.
func (p *InnerProduct) NewVerifier(rng field.RNG) *InnerProductVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	return &InnerProductVerifier{proto: p, pt: pt, evA: lde.NewEvaluator(pt), evB: lde.NewEvaluator(pt)}
}

// ObserveA folds an update of stream A.
func (v *InnerProductVerifier) ObserveA(up stream.Update) error {
	return v.evA.Update(up.Index, up.Delta)
}

// ObserveB folds an update of stream B.
func (v *InnerProductVerifier) ObserveB(up stream.Update) error {
	return v.evB.Update(up.Index, up.Delta)
}

// Begin consumes the opening [claim, g_1(0..2)].
func (v *InnerProductVerifier) Begin(opening Msg) (Msg, bool, error) {
	if v.sc != nil {
		return Msg{}, false, fmt.Errorf("core: inner-product verifier already started")
	}
	cfg := v.proto.scConfig()
	if len(opening.Ints) != 0 || len(opening.Elems) != 1+cfg.MessageLen() {
		return Msg{}, false, reject("inner-product opening has %d ints and %d elems, want 0 and %d",
			len(opening.Ints), len(opening.Elems), 1+cfg.MessageLen())
	}
	v.claim = opening.Elems[0]
	expected := v.proto.F.Mul(v.evA.Value(), v.evB.Value())
	sc, err := sumcheck.NewVerifier(cfg, v.pt.R, v.claim, expected)
	if err != nil {
		return Msg{}, false, err
	}
	v.sc = sc
	return v.absorb(opening.Elems[1:])
}

// Step consumes one round message.
func (v *InnerProductVerifier) Step(response Msg) (Msg, bool, error) {
	if v.sc == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: inner-product verifier not mid-conversation")
	}
	if len(response.Ints) != 0 {
		return Msg{}, false, reject("inner-product round message carries unexpected ints")
	}
	return v.absorb(response.Elems)
}

func (v *InnerProductVerifier) absorb(evals []field.Elem) (Msg, bool, error) {
	if err := v.sc.Receive(evals); err != nil {
		return Msg{}, false, reject("%v", err)
	}
	if v.sc.Done() {
		v.done = true
		return Msg{}, true, nil
	}
	ch, err := v.sc.Challenge()
	if err != nil {
		return Msg{}, false, err
	}
	return Msg{Elems: []field.Elem{ch}}, false, nil
}

// Result returns the verified inner product.
func (v *InnerProductVerifier) Result() (field.Elem, error) {
	if !v.done {
		return 0, fmt.Errorf("core: inner-product result unavailable before acceptance")
	}
	return v.claim, nil
}

// InnerProductProver holds both frequency vectors.
type InnerProductProver struct {
	proto  *InnerProduct
	tables [2][]field.Elem
	sc     *sumcheck.Prover
}

// NewProverFromTables returns a prover over the aggregated tables of
// streams A and B (field images, length Params.U each), borrowed
// read-only; see Fk.NewProverFromTable.
func (p *InnerProduct) NewProverFromTables(a, b []field.Elem) (*InnerProductProver, error) {
	for _, t := range [][]field.Elem{a, b} {
		if uint64(len(t)) != p.Params.U {
			return nil, fmt.Errorf("core: table has %d entries, want %d", len(t), p.Params.U)
		}
	}
	return &InnerProductProver{proto: p, tables: [2][]field.Elem{a, b}}, nil
}

// Open computes the claimed inner product and round-1 polynomial.
func (pr *InnerProductProver) Open() (Msg, error) {
	sc, err := sumcheck.NewProver(pr.proto.scConfig(), pr.tables[0], pr.tables[1])
	if err != nil {
		return Msg{}, err
	}
	pr.sc = sc
	claim := sc.Total()
	g1, err := sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: append([]field.Elem{claim}, g1...)}, nil
}

// Step folds the challenge and produces the next polynomial.
func (pr *InnerProductProver) Step(challenge Msg) (Msg, error) {
	if pr.sc == nil {
		return Msg{}, fmt.Errorf("core: inner-product prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: challenge has %d elems, want 1", len(challenge.Elems))
	}
	if err := pr.sc.Fold(challenge.Elems[0]); err != nil {
		return Msg{}, err
	}
	g, err := pr.sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: g}, nil
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
	proto    *RangeSum
	pt       *lde.Point
	ev       *lde.Evaluator
	sc       *sumcheck.Verifier
	qL, qR   uint64
	hasQuery bool
	claim    field.Elem
	done     bool
}

// NewVerifier samples the secret point and returns the verifier.
func (p *RangeSum) NewVerifier(rng field.RNG) *RangeSumVerifier {
	pt := lde.RandomPoint(p.F, p.Params, rng)
	return &RangeSumVerifier{proto: p, pt: pt, ev: lde.NewEvaluator(pt)}
}

// Observe folds one (key, value) pair, encoded as an update.
func (v *RangeSumVerifier) Observe(up stream.Update) error {
	return v.ev.Update(up.Index, up.Delta)
}

// Challenges returns every message this verifier will send, in order;
// see FkVerifier.Challenges.
func (v *RangeSumVerifier) Challenges() []Msg { return revealOneByOne(v.pt.R) }

// SetQuery fixes the range [qL, qR]; it must be called after the stream
// and before Begin. (This is the point where a real deployment transmits
// the query to the cloud; the two words are accounted by the transport.)
func (v *RangeSumVerifier) SetQuery(qL, qR uint64) error {
	if qL > qR || qR >= v.proto.Params.U {
		return fmt.Errorf("core: bad range [%d,%d] for universe %d", qL, qR, v.proto.Params.U)
	}
	v.qL, v.qR, v.hasQuery = qL, qR, true
	return nil
}

// Begin consumes the opening [claim, g_1(0..2)].
func (v *RangeSumVerifier) Begin(opening Msg) (Msg, bool, error) {
	if !v.hasQuery {
		return Msg{}, false, fmt.Errorf("core: range-sum query not set")
	}
	if v.sc != nil {
		return Msg{}, false, fmt.Errorf("core: range-sum verifier already started")
	}
	cfg := v.proto.scConfig()
	if len(opening.Ints) != 0 || len(opening.Elems) != 1+cfg.MessageLen() {
		return Msg{}, false, reject("range-sum opening has %d ints and %d elems, want 0 and %d",
			len(opening.Ints), len(opening.Elems), 1+cfg.MessageLen())
	}
	v.claim = opening.Elems[0]
	fb, err := lde.EvalRangeIndicator(v.pt, v.qL, v.qR)
	if err != nil {
		return Msg{}, false, err
	}
	expected := v.proto.F.Mul(v.ev.Value(), fb)
	sc, err := sumcheck.NewVerifier(cfg, v.pt.R, v.claim, expected)
	if err != nil {
		return Msg{}, false, err
	}
	v.sc = sc
	return v.absorb(opening.Elems[1:])
}

// Step consumes one round message.
func (v *RangeSumVerifier) Step(response Msg) (Msg, bool, error) {
	if v.sc == nil || v.done {
		return Msg{}, false, fmt.Errorf("core: range-sum verifier not mid-conversation")
	}
	if len(response.Ints) != 0 {
		return Msg{}, false, reject("range-sum round message carries unexpected ints")
	}
	return v.absorb(response.Elems)
}

func (v *RangeSumVerifier) absorb(evals []field.Elem) (Msg, bool, error) {
	if err := v.sc.Receive(evals); err != nil {
		return Msg{}, false, reject("%v", err)
	}
	if v.sc.Done() {
		v.done = true
		return Msg{}, true, nil
	}
	ch, err := v.sc.Challenge()
	if err != nil {
		return Msg{}, false, err
	}
	return Msg{Elems: []field.Elem{ch}}, false, nil
}

// Result returns the verified range sum as a field element.
func (v *RangeSumVerifier) Result() (field.Elem, error) {
	if !v.done {
		return 0, fmt.Errorf("core: range-sum result unavailable before acceptance")
	}
	return v.claim, nil
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

// RangeSumProver holds the key–value vector and materializes the
// indicator once the query arrives.
type RangeSumProver struct {
	proto    *RangeSum
	table    []field.Elem
	qL, qR   uint64
	hasQuery bool
	sc       *sumcheck.Prover
}

// NewProverFromTable returns a prover over the aggregated key–value
// table, borrowed read-only; see Fk.NewProverFromTable.
func (p *RangeSum) NewProverFromTable(table []field.Elem) (*RangeSumProver, error) {
	if uint64(len(table)) != p.Params.U {
		return nil, fmt.Errorf("core: table has %d entries, want %d", len(table), p.Params.U)
	}
	return &RangeSumProver{proto: p, table: table}, nil
}

// SetQuery fixes the queried range.
func (pr *RangeSumProver) SetQuery(qL, qR uint64) error {
	if qL > qR || qR >= pr.proto.Params.U {
		return fmt.Errorf("core: bad range [%d,%d] for universe %d", qL, qR, pr.proto.Params.U)
	}
	pr.qL, pr.qR, pr.hasQuery = qL, qR, true
	return nil
}

// Open computes the claimed sum and round-1 polynomial.
func (pr *RangeSumProver) Open() (Msg, error) {
	if !pr.hasQuery {
		return Msg{}, fmt.Errorf("core: range-sum query not set")
	}
	indicator := make([]field.Elem, pr.proto.Params.U)
	for i := pr.qL; i <= pr.qR; i++ {
		indicator[i] = 1
	}
	sc, err := sumcheck.NewProver(pr.proto.scConfig(), pr.table, indicator)
	if err != nil {
		return Msg{}, err
	}
	pr.sc = sc
	claim := sc.Total()
	g1, err := sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: append([]field.Elem{claim}, g1...)}, nil
}

// Step folds the challenge and produces the next polynomial.
func (pr *RangeSumProver) Step(challenge Msg) (Msg, error) {
	if pr.sc == nil {
		return Msg{}, fmt.Errorf("core: range-sum prover not opened")
	}
	if len(challenge.Elems) != 1 {
		return Msg{}, fmt.Errorf("core: challenge has %d elems, want 1", len(challenge.Elems))
	}
	if err := pr.sc.Fold(challenge.Elems[0]); err != nil {
		return Msg{}, err
	}
	g, err := pr.sc.RoundMessage()
	if err != nil {
		return Msg{}, err
	}
	return Msg{Elems: g}, nil
}
