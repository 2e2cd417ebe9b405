package core

import (
	"fmt"
	"math"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// FrequencyBased implements the §6.2 protocol for any statistic of the
// form F(a) = Σ_{i∈[u]} h(a_i):
//
//  1. the φ-heavy hitters H (frequency ≥ T = ⌈φn⌉, default φ = u^{-1/2})
//     are identified and *verified* with the §6.1 protocol; the verifier
//     accumulates F′ = Σ_{v∈H} h(a_v) and removes each reported heavy
//     item from its streamed LDE value: f̃_a(r) = f_a(r) − Σ a_v·χ_v(r);
//  2. a sum-check runs on h̃ ∘ f̃_a, where h̃ is the unique polynomial of
//     degree < T agreeing with h on {0,…,T−1} — low degree because every
//     residual frequency is below the threshold;
//  3. the result is F = Σ_{x₁} g₁(x₁) + F′ − |H|·h(0).
//
// The cost is (log u, √u·log u) for φ = u^{-1/2} (Theorem 6). As in the
// paper, frequencies must be non-negative and n = Θ(u) keeps the degree
// bound at ~√u. We compose the two sub-protocols sequentially (2·log u
// rounds); the paper notes they can also be interleaved round-by-round.
type FrequencyBased struct {
	F          field.Field
	TreeParams hashtree.Params
	LdeParams  lde.Params
	Phi        float64
	H          func(count int64) field.Elem
}

// maxInterpolationDegree caps the threshold-derived degree of h̃ so a
// mis-set φ cannot request gigabyte-sized round messages.
const maxInterpolationDegree = 1 << 16

// NewFrequencyBased returns the protocol for universes of size ≥ u with
// statistic h. phi = 0 selects the paper's default φ = u^{-1/2}.
func NewFrequencyBased(f field.Field, u uint64, phi float64, h func(int64) field.Elem) (*FrequencyBased, error) {
	if h == nil {
		return nil, fmt.Errorf("core: frequency-based statistic h is nil")
	}
	tp, err := hashtree.ParamsForUniverse(u)
	if err != nil {
		return nil, err
	}
	lp, err := lde.NewParams(2, tp.D)
	if err != nil {
		return nil, err
	}
	if phi == 0 {
		phi = 1 / math.Sqrt(float64(tp.U))
	}
	if !(phi > 0 && phi <= 1) {
		return nil, fmt.Errorf("core: fraction %v outside (0,1]", phi)
	}
	return &FrequencyBased{F: f, TreeParams: tp, LdeParams: lp, Phi: phi, H: h}, nil
}

// NewF0 returns the distinct-elements protocol (F0): h(0)=0, h(i)=1.
func NewF0(f field.Field, u uint64, phi float64) (*FrequencyBased, error) {
	return NewFrequencyBased(f, u, phi, func(c int64) field.Elem {
		if c != 0 {
			return 1
		}
		return 0
	})
}

// NewInverseDistribution returns the protocol counting items with
// frequency exactly k ≥ 1 (a point query on the inverse distribution).
func NewInverseDistribution(f field.Field, u uint64, phi float64, k int64) (*FrequencyBased, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: inverse-distribution point %d < 1", k)
	}
	return NewFrequencyBased(f, u, phi, func(c int64) field.Elem {
		if c == k {
			return 1
		}
		return 0
	})
}

// freqPhase tracks the sequential composition.
type freqPhase int

const (
	phaseHH freqPhase = iota
	phaseSCOpening
	phaseSC
)

// FrequencyBasedVerifier runs the verifier: the augmented tree root and
// the LDE evaluation are maintained simultaneously over the stream, both
// in O(log u) words.
type FrequencyBasedVerifier struct {
	proto *FrequencyBased
	hh    *HeavyHittersVerifier
	res   scVerifier // the residual sum-check
	ev    *lde.Evaluator

	phase     freqPhase
	threshold int64
	fPrime    field.Elem
	hCount    int64
	fTildeR   field.Elem
}

// Adopt returns a verifier over s's point and augmented tree summaries.
func (p *FrequencyBased) Adopt(s Summary) *FrequencyBasedVerifier {
	hhProto := &HeavyHitters{F: p.F, Params: p.TreeParams}
	return &FrequencyBasedVerifier{proto: p, hh: hhProto.Adopt(s), res: scVerifier{pt: s.Point.Point()}, ev: s.Point}
}

// SetH replaces the statistic (used by Fmax, whose h depends on the
// claimed bound). Must be called before the heavy-hitter phase finishes.
func (v *FrequencyBasedVerifier) SetH(h func(int64) field.Elem) { v.proto = cloneFreqProto(v.proto, h) }

func cloneFreqProto(p *FrequencyBased, h func(int64) field.Elem) *FrequencyBased {
	cp := *p
	cp.H = h
	return &cp
}

// Observe folds one stream update into both running summaries.
func (v *FrequencyBasedVerifier) Observe(up stream.Update) error {
	if err := v.hh.Observe(up); err != nil {
		return err
	}
	return v.ev.Update(up.Index, up.Delta)
}

// Begin starts the heavy-hitter phase.
func (v *FrequencyBasedVerifier) Begin(opening Msg) (Msg, bool, error) {
	if err := v.hh.SetQuery(v.proto.Phi); err != nil {
		return Msg{}, false, err
	}
	ch, hhDone, err := v.hh.Begin(opening)
	if err != nil {
		return Msg{}, false, err
	}
	if hhDone {
		return v.transition()
	}
	return ch, false, nil
}

// Step advances whichever phase is active.
func (v *FrequencyBasedVerifier) Step(response Msg) (Msg, bool, error) {
	switch v.phase {
	case phaseHH:
		ch, hhDone, err := v.hh.Step(response)
		if err != nil {
			return Msg{}, false, err
		}
		if hhDone {
			return v.transition()
		}
		return ch, false, nil
	case phaseSCOpening:
		return v.beginSumcheck(response)
	default:
		return v.res.Step(response)
	}
}

// transition closes the heavy-hitter phase: it folds the verified heavy
// items out of the LDE value and asks the prover (empty challenge) for the
// sum-check opening.
func (v *FrequencyBasedVerifier) transition() (Msg, bool, error) {
	if v.proto.H == nil {
		return Msg{}, false, fmt.Errorf("core: statistic h not set")
	}
	hitters, threshold, err := v.hh.Result()
	if err != nil {
		return Msg{}, false, err
	}
	v.threshold = threshold
	if threshold > maxInterpolationDegree {
		return Msg{}, false, fmt.Errorf("core: threshold %d exceeds supported degree %d — decrease φ·n", threshold, maxInterpolationDegree)
	}
	f := v.proto.F
	v.fTildeR = v.ev.Value()
	for _, hh := range hitters {
		v.fPrime = f.Add(v.fPrime, v.proto.H(hh.Count))
		contrib := v.res.pt.ChiOfIndex(hh.Index, f.FromInt64(hh.Count))
		v.fTildeR = f.Sub(v.fTildeR, contrib)
		v.hCount++
	}
	v.phase = phaseSCOpening
	return Msg{}, false, nil
}

// beginSumcheck consumes the residual sum-check's opening; the final
// check is against h̃(f̃_a(r)).
func (v *FrequencyBasedVerifier) beginSumcheck(opening Msg) (Msg, bool, error) {
	anchor, err := poly.EvalOracleInterpolant(v.proto.F, int(v.threshold),
		func(i uint64) field.Elem { return v.proto.H(int64(i)) }, v.fTildeR)
	if err != nil {
		return Msg{}, false, err
	}
	v.phase = phaseSC
	cfg := sumcheck.Config{
		Field:  v.proto.F,
		Params: v.proto.LdeParams,
		// The verifier never evaluates h̃ through the combiner; it only
		// needs the degree bound T-1 to size messages.
		Combiner: sumcheck.PolyFn{MinDegree: int(v.threshold) - 1},
	}
	return v.res.begin(cfg, opening, anchor)
}

// Result returns the verified statistic F(a) = Σ g₁ + F′ − |H|·h(0).
func (v *FrequencyBasedVerifier) Result() (field.Elem, error) {
	claim, err := v.res.Result()
	if err != nil {
		return 0, err
	}
	f := v.proto.F
	return f.Sub(f.Add(claim, v.fPrime), f.Mul(f.FromInt64(v.hCount), v.proto.H(0))), nil
}

// ---------------------------------------------------------------------

// FrequencyBasedProver runs the prover: the heavy-hitters prover first,
// then a sum-check over the residual vector with the interpolated h̃.
// Total time O(u^{3/2}) for the default φ (Theorem 6).
type FrequencyBasedProver struct {
	proto *FrequencyBased
	hh    *HeavyHittersProver
	res   scProver // the residual sum-check
}

// NewProverFromSkeleton returns a prover over the tree skeleton of a
// count table, borrowed read-only, with the given stream total Σδ
// (dataset-engine state). workers is the prover's fan-out, applied to
// both phases (hash-tree levels and the residual sum-check); see
// Fk.NewProverFromTable.
func (p *FrequencyBased) NewProverFromSkeleton(sk *hashtree.Skeleton, total int64, workers int) (*FrequencyBasedProver, error) {
	hhProto := &HeavyHitters{F: p.F, Params: p.TreeParams}
	hh, err := hhProto.NewProverFromSkeleton(sk, total, workers)
	if err != nil {
		return nil, err
	}
	return &FrequencyBasedProver{proto: p, hh: hh, res: scProver{workers: workers}}, nil
}

// SetH replaces the statistic (see FrequencyBasedVerifier.SetH).
func (pr *FrequencyBasedProver) SetH(h func(int64) field.Elem) {
	pr.proto = cloneFreqProto(pr.proto, h)
}

// Open starts the heavy-hitter phase.
func (pr *FrequencyBasedProver) Open() (Msg, error) {
	if err := pr.hh.SetQuery(pr.proto.Phi); err != nil {
		return Msg{}, err
	}
	return pr.hh.Open()
}

// Step dispatches on the challenge shape: 2 elements is a heavy-hitter
// reveal (r_l, q_l), 0 elements the transition request for the sum-check
// opening, 1 element a sum-check fold challenge.
func (pr *FrequencyBasedProver) Step(challenge Msg) (Msg, error) {
	switch len(challenge.Elems) {
	case 2:
		return pr.hh.Step(challenge)
	case 0:
		return pr.openSumcheck()
	case 1:
		return pr.res.Step(challenge)
	default:
		return Msg{}, fmt.Errorf("core: unrecognized challenge shape (%d elems)", len(challenge.Elems))
	}
}

// openSumcheck builds the residual table ã (heavy entries zeroed),
// interpolates h̃ on {0,…,T−1}, and emits the sum-check opening.
func (pr *FrequencyBasedProver) openSumcheck() (Msg, error) {
	if pr.proto.H == nil {
		return Msg{}, fmt.Errorf("core: statistic h not set")
	}
	threshold := pr.hh.threshold
	if threshold < 1 {
		return Msg{}, fmt.Errorf("core: heavy-hitter phase not run")
	}
	if threshold > maxInterpolationDegree {
		return Msg{}, fmt.Errorf("core: threshold %d exceeds supported degree %d", threshold, maxInterpolationDegree)
	}
	f := pr.proto.F
	table := make([]field.Elem, pr.proto.LdeParams.U)
	leaves, counts := pr.hh.sk.Leaves()
	for k, c := range counts {
		switch {
		case c < 0:
			return Msg{}, fmt.Errorf("core: frequency-based protocols require non-negative frequencies (index %d has %d)", leaves[k], c)
		case c < threshold: // a heavy count is removed from the residual stream
			table[leaves[k]] = f.FromInt64(c)
		}
	}
	// h̃ interpolates h on 0..T-1 (all residual frequencies lie there).
	xs := make([]field.Elem, threshold)
	ys := make([]field.Elem, threshold)
	for i := int64(0); i < threshold; i++ {
		xs[i] = f.FromInt64(i)
		ys[i] = pr.proto.H(i)
	}
	htilde, err := poly.Interpolate(f, xs, ys)
	if err != nil {
		return Msg{}, err
	}
	cfg := sumcheck.Config{
		Field:    f,
		Params:   pr.proto.LdeParams,
		Combiner: sumcheck.PolyFn{H: htilde, MinDegree: int(threshold) - 1},
	}
	return openTables(&pr.res, cfg, sumcheck.Flat(table))
}
