// Package sumcheck implements the interactive sum-check protocol engine
// underlying all aggregation queries of Cormode–Thaler–Yi (§3, App. B.1).
//
// The statement being proved is
//
//	claim = Σ_{x ∈ [ℓ]^d} C(f_1(x), …, f_T(x))
//
// where each f_t is the low-degree extension of a streamed vector and C is
// a low-degree "combiner": v² for SELF-JOIN SIZE, v^k for frequency
// moments, v·w for INNER PRODUCT / RANGE-SUM, and h̃(v) for the
// frequency-based functions of §6.2.
//
// Protocol shape (§3.1): in round j the prover sends the univariate
//
//	g_j(x_j) = Σ_{x_{j+1..d} ∈ [ℓ]^{d-j}} C(f(r_1,…,r_{j-1}, x_j, x_{j+1..d}))
//
// as deg+1 evaluations g_j(0..deg). The verifier checks
// Σ_{x∈[ℓ]} g_j(x) = g_{j-1}(r_{j-1}) (round 1 checks against the claim),
// answers with the challenge r_j, and after round d checks
// g_d(r_d) = C(f(r)) against the value it computed from the stream.
// Sending evaluations rather than coefficients makes the paper's "reject
// if the degree of g is too high" check structural: a message of the wrong
// length is rejected outright.
//
// The honest prover uses the table-folding algorithm of Appendix B.1
// (there written for ℓ=2): after round j it replaces its size-m tables by
// size-m/ℓ tables folded by χ(r_j). It borrows the caller's T tables of
// u entries and, counted from the code below, spends:
//
//   - at ℓ=2 with u ≥ 128, one scan of the tables on the first message,
//     reading at most T·u entries, which finds the n live pairs (pairs
//     where any table is non-zero);
//   - while n is at most a quarter of the m/2 pairs of the current
//     m-entry tables and m > 64, O((T + deg)·n) field operations per
//     round: fold, regroup and deg+1 evaluations per live pair, plus one
//     correction per message for the dead ones;
//   - from then on, or from the start on a denser table or at ℓ > 2,
//     O(deg·T·m) per round on the dense m-entry tables, m falling by ℓ
//     per round, so O(deg·T·u) at most over all rounds.
package sumcheck

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/parallel"
	"repro/internal/poly"
)

// ErrReject is returned by the verifier when a prover message fails a
// consistency check; per Definition 1 the verifier outputs ⊥.
var ErrReject = errors.New("sumcheck: proof rejected")

// Combiner is the function C applied to the extensions inside the sum.
type Combiner interface {
	// Arity is the number of tables/extensions combined (T above).
	Arity() int
	// PerVariableDegree is the degree of C(f_1,…,f_T) in each variable
	// x_j, which bounds deg g_j. Each f_t has degree ℓ-1 per variable.
	PerVariableDegree(ell int) int
	// Apply evaluates C on one tuple of values.
	Apply(f field.Field, vals []field.Elem) field.Elem
}

// Power implements C(v) = v^K: K=2 is SELF-JOIN SIZE, larger K the k-th
// frequency moment (§3.2).
type Power struct{ K int }

// Arity returns 1.
func (p Power) Arity() int { return 1 }

// PerVariableDegree returns K·(ℓ-1).
func (p Power) PerVariableDegree(ell int) int { return p.K * (ell - 1) }

// Apply returns vals[0]^K.
func (p Power) Apply(f field.Field, vals []field.Elem) field.Elem {
	return f.Pow(vals[0], uint64(p.K))
}

// Product implements C(v, w) = v·w, the INNER PRODUCT combiner (§3.2).
type Product struct{}

// Arity returns 2.
func (Product) Arity() int { return 2 }

// PerVariableDegree returns 2(ℓ-1).
func (Product) PerVariableDegree(ell int) int { return 2 * (ell - 1) }

// Apply returns vals[0]·vals[1].
func (Product) Apply(f field.Field, vals []field.Elem) field.Elem {
	return f.Mul(vals[0], vals[1])
}

// PolyFn implements C(v) = H(v) for an explicit low-degree polynomial H —
// the h̃ of the frequency-based protocols (§6.2). The prover carries H in
// coefficient form; the verifier of those protocols carries only
// MinDegree (H=nil), since it never calls Apply — it computes h̃ at its
// single point by the O(1)-space oracle method (poly.EvalOracleInterpolant).
//
// MinDegree pins the declared degree so both parties agree on the message
// length even when H happens to have lower degree than the interpolation
// bound.
type PolyFn struct {
	H         poly.Poly
	MinDegree int
}

// Arity returns 1.
func (p PolyFn) Arity() int { return 1 }

// PerVariableDegree returns max(deg(H), MinDegree)·(ℓ-1).
func (p PolyFn) PerVariableDegree(ell int) int {
	d := p.H.Degree()
	if d < p.MinDegree {
		d = p.MinDegree
	}
	if d < 0 {
		d = 0
	}
	return d * (ell - 1)
}

// Apply returns H(vals[0]).
func (p PolyFn) Apply(f field.Field, vals []field.Elem) field.Elem {
	return p.H.Eval(f, vals[0])
}

// Config fixes the parameters shared by prover and verifier.
type Config struct {
	Field    field.Field
	Params   lde.Params
	Combiner Combiner

	// Workers sets the prover's fan-out: every table scan (live-pair scan,
	// per-round messages, folds) is split into contiguous chunks processed
	// by that many goroutines, with per-chunk partials combined in chunk
	// order. Because field arithmetic is exact, the transcript is
	// bit-identical for every worker count. 0 (the default) runs serially,
	// n < 0 selects runtime.NumCPU(). The verifier ignores it — checking is
	// already O(log u). Combiners must be safe for concurrent Apply calls
	// when Workers != 0 (the combiners in this package are pure).
	Workers int
}

func (c Config) degree() int {
	d := c.Combiner.PerVariableDegree(c.Params.Ell)
	if d < 1 {
		d = 1
	}
	return d
}

// MessageLen returns the number of field elements per round message
// (deg+1 evaluations).
func (c Config) MessageLen() int { return c.degree() + 1 }

// Rounds returns the number of rounds d.
func (c Config) Rounds() int { return c.Params.D }

// Validate reports whether the configuration is usable: a valid field, a
// combiner, and a message degree small enough for distinct evaluation
// points to exist in the field.
func (c Config) Validate() error {
	if !c.Field.Valid() {
		return errors.New("sumcheck: invalid field")
	}
	if c.Combiner == nil {
		return errors.New("sumcheck: nil combiner")
	}
	if uint64(c.degree())+1 > c.Field.Modulus() {
		return fmt.Errorf("sumcheck: message degree %d too large for field %d", c.degree(), c.Field.Modulus())
	}
	return nil
}

// ---------------------------------------------------------------------
// Prover

// Prover is the honest prover: it borrows the full frequency tables
// read-only and answers each round from progressively folded tables of
// its own. All table scans fan out across cfg.Workers goroutines in
// contiguous chunks; since field arithmetic is exact and partials are
// combined in chunk order, the transcript is bit-identical for every
// worker count.
type Prover struct {
	cfg     Config
	workers int
	tables  [][]field.Elem // the borrowed tables until the first fold, then the prover's own
	sparse  *sparseTables  // the tables instead, while few of their pairs are live
	chiAt   [][]field.Elem // chiAt[c][k] = χ_k(c) for evaluation points c=0..deg
	cElems  []field.Elem   // cElems[c] = c as a field element
	weights []field.Elem   // Lagrange basis weights for arbitrary-point folds
	round   int
	// pending holds the next round's message when the previous Fold ran a
	// fused fold+message kernel (see fuseKind) or a sparse fold;
	// RoundMessage hands it out and clears it. Both compute exactly the
	// sums the plain path would, so the transcript is unchanged.
	pending []field.Elem
}

// Fused-kernel dispatch: for the ℓ=2 protocols whose combiner the kernel
// layer knows — C(v)=v² (SELF-JOIN SIZE / F2) and C(v,w)=v·w (INNER
// PRODUCT) — the prover's dominant table walks collapse into single-pass
// field kernels: Fold computes the next message while the folded values
// are still in registers, and round 0 uses the pair-walk kernels. Every
// other combiner takes the generic path.
const (
	fuseNone = iota
	fuseSq   // Power{K:2}: message (Σ e0², Σ e1², Σ e2²)
	fuseProd // Product: message (Σ eA0·eB0, Σ eA1·eB1, Σ eA2·eB2)
)

func (p *Prover) fuseKind() int {
	if p.cfg.Params.Ell != 2 {
		return fuseNone
	}
	switch c := p.cfg.Combiner.(type) {
	case Power:
		if c.K == 2 {
			return fuseSq
		}
	case Product:
		return fuseProd
	}
	return fuseNone
}

// NewProver builds a prover over explicit tables, one per combiner slot,
// each of length exactly ℓ^d. The tables are borrowed: the prover reads
// them and never writes them, so callers may share one table among many
// provers.
func NewProver(cfg Config, tables ...[]field.Elem) (*Prover, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Combiner.Arity() {
		return nil, fmt.Errorf("sumcheck: combiner arity %d but %d tables", cfg.Combiner.Arity(), len(tables))
	}
	for t, tab := range tables {
		if uint64(len(tab)) != cfg.Params.U {
			return nil, fmt.Errorf("sumcheck: table %d has %d entries, want %d", t, len(tab), cfg.Params.U)
		}
	}
	deg := cfg.degree()
	weights := lde.BasisWeights(cfg.Field, cfg.Params.Ell)
	cElems := make([]field.Elem, deg+1)
	for c := 0; c <= deg; c++ {
		cElems[c] = cfg.Field.Reduce(uint64(c))
	}
	chiAt := lde.ChiTables(cfg.Field, weights, cElems)
	return &Prover{
		cfg:     cfg,
		workers: parallel.Workers(cfg.Workers),
		tables:  tables,
		chiAt:   chiAt,
		cElems:  cElems,
		weights: weights,
	}, nil
}

// RoundMessage computes the evaluations g_j(0..deg) for the current round.
// It must be called exactly once per round, alternating with Fold. The
// first call of an ℓ=2 prover scans its tables for live pairs (see
// sparseTables). The claim is Σ_{c<ℓ} g_1(c).
func (p *Prover) RoundMessage() ([]field.Elem, error) {
	if p.round >= p.cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: all %d rounds already played", p.cfg.Params.D)
	}
	if p.pending != nil {
		msg := p.pending
		p.pending = nil
		return msg, nil
	}
	if p.round == 0 && p.sparse == nil {
		p.sparse = p.scanSparse()
	}
	if p.sparse != nil {
		return p.sparseMessage(), nil
	}
	return p.message(p.tables), nil
}

// message computes a round message over tables: the pair-walk kernels
// for the fused combiners, the generic walk otherwise.
func (p *Prover) message(tables [][]field.Elem) []field.Elem {
	if kind := p.fuseKind(); kind != fuseNone {
		return p.messageFused(kind, tables)
	}
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	deg := p.cfg.degree()
	size := len(tables[0]) / ell
	// Each index costs ~(deg+1)·ℓ·arity field ops, so scale the grain down
	// accordingly: coarse decompositions (large ℓ, few but heavy indices)
	// must still fan out.
	grain := grainFor((deg + 1) * ell * len(tables))
	partials := make([][]field.Elem, parallel.ChunksGrain(p.workers, size, grain))
	parallel.ForGrain(p.workers, size, grain, func(chunk, lo, hi int) {
		out := make([]field.Elem, deg+1)
		vals := make([]field.Elem, len(tables))
		diffs := make([]field.Elem, len(tables))
		for w := lo; w < hi; w++ {
			base := w * ell
			if ell == 2 {
				for t, tab := range tables {
					diffs[t] = f.Sub(tab[base+1], tab[base])
				}
			}
			for c := 0; c <= deg; c++ {
				for t, tab := range tables {
					switch {
					case c < ell:
						// χ at a node is an indicator: direct read.
						vals[t] = tab[base+c]
					case ell == 2:
						// (1-c)·T0 + c·T1 = T0 + c·(T1-T0): one multiply.
						vals[t] = f.Add(tab[base], f.Mul(p.cElems[c], diffs[t]))
					default:
						vals[t] = f.DotSlices(p.chiAt[c], tab[base:base+ell])
					}
				}
				out[c] = f.Add(out[c], p.cfg.Combiner.Apply(f, vals))
			}
		}
		partials[chunk] = out
	})
	out := make([]field.Elem, deg+1)
	for _, part := range partials {
		f.AddSlices(out, out, part)
	}
	return out
}

// messageFused computes a round message over tables with the pair-walk
// kernels (no pending fold to exploit — round 0, a sparse round, or a
// Fold that could not fuse).
// Pairs split across workers; per-chunk partials are exact sums.
func (p *Prover) messageFused(kind int, tables [][]field.Elem) []field.Elem {
	f := p.cfg.Field
	npairs := len(tables[0]) / 2
	partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
	parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
		var g0, g1, g2 field.Elem
		if kind == fuseSq {
			g0, g1, g2 = f.PairsSumSq(tables[0][2*lo : 2*hi])
		} else {
			g0, g1, g2 = f.PairsSumProd(tables[0][2*lo:2*hi], tables[1][2*lo:2*hi])
		}
		partials[chunk] = [3]field.Elem{g0, g1, g2}
	})
	out := make([]field.Elem, 3)
	for _, pt := range partials {
		out[0] = f.Add(out[0], pt[0])
		out[1] = f.Add(out[1], pt[1])
		out[2] = f.Add(out[2], pt[2])
	}
	return out
}

// foldFused folds every table by r and computes the next round's message
// in the same pass, leaving it in p.pending. Chunking is in units of
// next-table pairs so kernel boundaries always align.
func (p *Prover) foldFused(kind int, r field.Elem) {
	f := p.cfg.Field
	size := len(p.tables[0]) / 2
	npairs := size / 2
	partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
	if kind == fuseSq {
		tab := p.tables[0]
		next := make([]field.Elem, size)
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			g0, g1, g2 := f.FoldPairsSumSq(next[2*lo:2*hi], tab[4*lo:4*hi], r)
			partials[chunk] = [3]field.Elem{g0, g1, g2}
		})
		p.tables = [][]field.Elem{next}
	} else {
		tabA, tabB := p.tables[0], p.tables[1]
		nextA := make([]field.Elem, size)
		nextB := make([]field.Elem, size)
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			g0, g1, g2 := f.FoldPairsSumProd(
				nextA[2*lo:2*hi], nextB[2*lo:2*hi],
				tabA[4*lo:4*hi], tabB[4*lo:4*hi], r)
			partials[chunk] = [3]field.Elem{g0, g1, g2}
		})
		p.tables = [][]field.Elem{nextA, nextB}
	}
	out := make([]field.Elem, 3)
	for _, pt := range partials {
		out[0] = f.Add(out[0], pt[0])
		out[1] = f.Add(out[1], pt[1])
		out[2] = f.Add(out[2], pt[2])
	}
	p.pending = out
}

// Fold binds the current round's variable to the verifier's challenge r,
// shrinking every table by a factor of ℓ. It never writes a borrowed
// table: every fold writes a table of the prover's own.
func (p *Prover) Fold(r field.Elem) error {
	if p.round >= p.cfg.Params.D {
		return fmt.Errorf("sumcheck: all %d rounds already folded", p.cfg.Params.D)
	}
	p.pending = nil
	if p.sparse != nil {
		p.foldSparse(r)
		p.round++
		return nil
	}
	if kind := p.fuseKind(); kind != fuseNone && p.round+1 < p.cfg.Params.D {
		// The next table still has ≥2 pairs, so fold and next message
		// share one pass over it.
		p.foldFused(kind, r)
		p.round++
		return nil
	}
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	var chi []field.Elem
	if ell != 2 {
		chi = lde.AllChi(f, p.weights, r)
	}
	next := make([][]field.Elem, len(p.tables))
	for t, tab := range p.tables {
		size := len(tab) / ell
		next[t] = make([]field.Elem, size)
		if ell == 2 {
			parallel.For(p.workers, size, func(_, lo, hi int) {
				// (1-r)·T0 + r·T1 = T0 + r·(T1-T0).
				f.FoldPairs(next[t][lo:hi], tab[2*lo:2*hi], r)
			})
		} else {
			parallel.ForGrain(p.workers, size, grainFor(ell), func(_, lo, hi int) {
				for w := lo; w < hi; w++ {
					next[t][w] = f.DotSlices(chi, tab[w*ell:(w+1)*ell])
				}
			})
		}
	}
	p.tables = next
	p.round++
	return nil
}

// ---------------------------------------------------------------------
// Sparse rounds

// An ℓ=2 prover whose tables are mostly zero holds them as their live
// pairs only — the pairs (2w, 2w+1) where any table is non-zero — packed
// two by two beside the sorted pair indices. Every other pair is (0, 0)
// in every table: its line is the zero line, so it adds C(0, …, 0) at
// every evaluation point, and it folds to 0. Folding pair w yields entry
// w of the next table, which sits in pair w>>1, so folding and regrouping
// the live pairs is the whole next table in the same form. The messages
// are the dense prover's exactly: field sums are order-free.
//
// A prover scans its tables once, on its first message, when they have
// at least sparseMinEntries entries. It holds them sparse while at most
// 1/sparseShare of the pairs are live, and scatters them back to dense
// tables — the fused path — once that fails or the table is down to
// denseAtEntries entries, so Leaves and the tail prover see dense tables.
const (
	sparseMinEntries = 128
	denseAtEntries   = 64
	sparseShare      = 4
	scanBatch        = 512 // pairs a scan worker reads between updates of the shared live count
)

// sparseTables is a prover's tables in live-pair form.
type sparseTables struct {
	idx    []uint32       // live pair indices, strictly increasing
	pairs  [][]field.Elem // pairs[t][2k], pairs[t][2k+1]: table t's pair idx[k]
	npairs int            // pairs per table, live or dead
	zero   field.Elem     // C(0, …, 0): what each dead pair adds at every point
}

// scanSparse finds the borrowed tables' live pairs in one pass split
// across the workers, then packs them. The workers share one count of the
// live pairs found, updated every scanBatch pairs, and all stop once it
// passes npairs/sparseShare, so a dense table costs about a quarter of a
// pass. Whether the tables are held sparse thus depends on their live
// pairs alone, not on the worker count or where the live pairs sit.
// scanSparse returns nil for dense tables, and for any table it does not
// scan.
func (p *Prover) scanSparse() *sparseTables {
	npairs := len(p.tables[0]) / 2
	if p.cfg.Params.Ell != 2 || 2*npairs < sparseMinEntries || npairs-1 > math.MaxUint32 {
		return nil
	}
	limit := int64(npairs / sparseShare)
	var live atomic.Int64
	idxs := make([][]uint32, parallel.Chunks(p.workers, npairs))
	parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
		var idx []uint32
		for b := lo; b < hi; b += scanBatch {
			end := min(b+scanBatch, hi)
			before := len(idx)
			for w := b; w < end; w += 8 {
				for m := liveMask(p.tables, w, min(8, end-w)); m != 0; m &= m - 1 {
					idx = append(idx, uint32(w+bits.TrailingZeros(m)))
				}
			}
			if live.Add(int64(len(idx)-before)) > limit {
				return
			}
		}
		idxs[chunk] = idx
	})
	if live.Load() > limit {
		return nil
	}
	sp := &sparseTables{
		idx:    idxs[0],
		pairs:  make([][]field.Elem, len(p.tables)),
		npairs: npairs,
		zero:   p.cfg.Combiner.Apply(p.cfg.Field, make([]field.Elem, len(p.tables))),
	}
	for _, idx := range idxs[1:] {
		sp.idx = append(sp.idx, idx...)
	}
	for t, tab := range p.tables {
		packed := make([]field.Elem, 2*len(sp.idx))
		for k, w := range sp.idx {
			packed[2*k], packed[2*k+1] = tab[2*w], tab[2*w+1]
		}
		sp.pairs[t] = packed
	}
	p.tables = nil
	return sp
}

// liveMask reports which of the n ≤ 8 pairs from pair w are live in any
// table: bit j for pair w+j. It does not branch on the data, so a sparse
// table's scattered live pairs cost no mispredictions.
func liveMask(tables [][]field.Elem, w, n int) uint {
	var m uint
	for _, tab := range tables {
		b := tab[2*w : 2*(w+n)]
		for j := 0; j < n; j++ {
			x := uint64(b[2*j] | b[2*j+1])
			m |= uint((x|-x)>>63) << j
		}
	}
	return m
}

// sparseMessage computes the current round's message from the live pairs.
func (p *Prover) sparseMessage() []field.Elem {
	out := p.message(p.sparse.pairs)
	p.addDead(out)
	return out
}

// addDead adds the dead pairs' share, (#dead pairs)·C(0, …, 0), at every
// evaluation point of msg.
func (p *Prover) addDead(msg []field.Elem) {
	sp := p.sparse
	if sp.zero == 0 {
		return
	}
	f := p.cfg.Field
	c := f.Mul(f.Reduce(uint64(sp.npairs-len(sp.idx))), sp.zero)
	for i := range msg {
		msg[i] = f.Add(msg[i], c)
	}
}

// foldSparse folds the live pairs by r and regroups them into the next
// table's live pairs in place, leaving the next message in p.pending. It
// scatters back to dense tables once the sparse form stops paying; the
// dense path computes the message itself then.
func (p *Prover) foldSparse(r field.Elem) {
	sp := p.sparse
	n := foldRegroup(p.cfg.Field, sp.pairs, sp.idx, r)
	sp.idx = sp.idx[:n]
	for t := range sp.pairs {
		sp.pairs[t] = sp.pairs[t][:2*n]
	}
	sp.npairs /= 2
	if 2*sp.npairs <= denseAtEntries || sparseShare*n > sp.npairs {
		p.scatter()
		return
	}
	p.pending = p.sparseMessage()
}

// foldRegroup folds every table's live pairs by r and regroups the folded
// entries into the next table's pairs: entry w lands in pair w>>1, slot
// w&1, and a missing sibling is 0. The tables share one index list. It
// returns the number n of next-table live pairs, now in idx[:n] and each
// table's pairs[:2n]. Writes land at or below the pair just read.
func foldRegroup(f field.Field, pairs [][]field.Elem, idx []uint32, r field.Elem) int {
	n := 0
	for k, i := range idx {
		sibling := n > 0 && idx[n-1] == i>>1
		for _, tab := range pairs {
			a, b := tab[2*k], tab[2*k+1]
			v := f.Add(a, f.Mul(r, f.Sub(b, a)))
			if sibling {
				tab[2*n-1] = v
			} else {
				tab[2*n], tab[2*n+1] = 0, 0
				tab[2*n+int(i&1)] = v
			}
		}
		if !sibling {
			idx[n] = i >> 1
			n++
		}
	}
	return n
}

// scatter turns the live pairs back into dense tables of the prover's own.
func (p *Prover) scatter() {
	sp := p.sparse
	p.tables = make([][]field.Elem, len(sp.pairs))
	for t, packed := range sp.pairs {
		tab := make([]field.Elem, 2*sp.npairs)
		for k, w := range sp.idx {
			tab[2*w], tab[2*w+1] = packed[2*k], packed[2*k+1]
		}
		p.tables[t] = tab
	}
	p.sparse = nil
}

// Round reports the current round index (0-based; equals the number of
// folds performed).
func (p *Prover) Round() int { return p.round }

// grainFor scales the parallel grain down by the per-index cost (in field
// operations) so the fork threshold tracks work, not element count.
func grainFor(cost int) int {
	if cost < 1 {
		cost = 1
	}
	g := parallel.MinGrain / cost
	if g < 1 {
		g = 1
	}
	return g
}

// ---------------------------------------------------------------------
// Verifier

// Verifier checks the conversation. It is constructed after the stream
// phase: by then the verifier knows the claimed total and has computed
// C(f_1(r),…,f_T(r)) from its streaming LDE evaluations.
type Verifier struct {
	cfg      Config
	r        []field.Elem // pre-sampled challenges, revealed one per round
	claim    field.Elem   // value the next message must sum to
	expected field.Elem   // C(f(r)), the final check anchor
	ev       *poly.ConsecutiveEvaluator
	round    int
	rejected bool
}

// NewVerifier constructs a verifier for the given claim.
//
//   - r is the secret random point the verifier chose before the stream
//     (exactly the point at which it evaluated the LDEs);
//   - claimedTotal is the answer the prover asserts;
//   - expectedFinal is C applied to the streamed LDE evaluations at r.
func NewVerifier(cfg Config, r []field.Elem, claimedTotal, expectedFinal field.Elem) (*Verifier, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(r) != cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: challenge vector has %d entries, want %d", len(r), cfg.Params.D)
	}
	ev, err := poly.NewConsecutiveEvaluator(cfg.Field, cfg.MessageLen())
	if err != nil {
		return nil, err
	}
	return &Verifier{
		cfg:      cfg,
		r:        append([]field.Elem(nil), r...),
		claim:    claimedTotal,
		expected: expectedFinal,
		ev:       ev,
	}, nil
}

// Receive processes the round message g_j(0..deg). It returns ErrReject
// (wrapped with detail) if any check fails. After the last round it
// performs the final LDE consistency check.
func (v *Verifier) Receive(evals []field.Elem) error {
	if v.rejected {
		return fmt.Errorf("%w: verifier already rejected", ErrReject)
	}
	if v.round >= v.cfg.Params.D {
		return fmt.Errorf("sumcheck: message after final round")
	}
	// Structural degree check (the paper's "rejects if the degree of g is
	// too high").
	if len(evals) != v.cfg.MessageLen() {
		v.rejected = true
		return fmt.Errorf("%w: round %d message has %d evaluations, want %d",
			ErrReject, v.round+1, len(evals), v.cfg.MessageLen())
	}
	for _, e := range evals {
		if uint64(e) >= v.cfg.Field.Modulus() {
			v.rejected = true
			return fmt.Errorf("%w: round %d message contains non-canonical element", ErrReject, v.round+1)
		}
	}
	sum, err := poly.SumPrefix(v.cfg.Field, evals, v.cfg.Params.Ell)
	if err != nil {
		return err
	}
	if sum != v.claim {
		v.rejected = true
		return fmt.Errorf("%w: round %d sum %d does not match claim %d", ErrReject, v.round+1, sum, v.claim)
	}
	rj := v.r[v.round]
	next, err := v.ev.Eval(evals, rj)
	if err != nil {
		return err
	}
	v.claim = next
	v.round++
	if v.round == v.cfg.Params.D {
		if v.claim != v.expected {
			v.rejected = true
			return fmt.Errorf("%w: final check g_d(r_d)=%d ≠ C(f(r))=%d", ErrReject, v.claim, v.expected)
		}
	}
	return nil
}

// Challenge returns the challenge to reveal to the prover after the most
// recent message, i.e. r_j for the round just received. It must only be
// called when a round has been received and the protocol is not finished.
func (v *Verifier) Challenge() (field.Elem, error) {
	if v.round == 0 || v.round > v.cfg.Params.D {
		return 0, fmt.Errorf("sumcheck: no challenge pending at round %d", v.round)
	}
	return v.r[v.round-1], nil
}

// Done reports whether all d rounds have been received.
func (v *Verifier) Done() bool { return v.round == v.cfg.Params.D }

// Accepted reports whether the verifier finished all rounds without
// rejecting.
func (v *Verifier) Accepted() bool { return v.Done() && !v.rejected }

// Round returns the number of messages received so far.
func (v *Verifier) Round() int { return v.round }

// SpaceWords reports the verifier's working memory in the paper's
// accounting: the d challenges, the running claim, the expected final
// value, and the deg+1 barycentric weights of the message evaluator.
func (v *Verifier) SpaceWords() int {
	return v.cfg.Params.D + 2 + v.cfg.MessageLen()
}

// ---------------------------------------------------------------------
// Local runner

// Transcript records one full conversation for inspection and accounting.
type Transcript struct {
	Messages   [][]field.Elem // prover → verifier, one per round
	Challenges []field.Elem   // verifier → prover (r_1..r_{d-1} are sent; r_d never travels)
}

// CommWords counts the field elements exchanged in both directions, the
// paper's communication measure t.
func (tr Transcript) CommWords() int {
	n := len(tr.Challenges)
	for _, m := range tr.Messages {
		n += len(m)
	}
	return n
}

// Run executes the complete conversation between a local prover and
// verifier, optionally passing each message through tamper (used by the
// soundness experiments; nil means honest delivery). It returns the
// transcript and the verifier's verdict: a nil error means accepted.
func Run(p *Prover, v *Verifier, tamper func(round int, evals []field.Elem) []field.Elem) (Transcript, error) {
	var tr Transcript
	d := v.cfg.Params.D
	for j := 0; j < d; j++ {
		msg, err := p.RoundMessage()
		if err != nil {
			return tr, err
		}
		if tamper != nil {
			msg = tamper(j+1, msg)
		}
		tr.Messages = append(tr.Messages, msg)
		if err := v.Receive(msg); err != nil {
			return tr, err
		}
		// The prover needs r_j to proceed to round j+1; after the final
		// round no challenge is revealed.
		if j < d-1 {
			rj, err := v.Challenge()
			if err != nil {
				return tr, err
			}
			tr.Challenges = append(tr.Challenges, rj)
			if err := p.Fold(rj); err != nil {
				return tr, err
			}
		}
	}
	return tr, nil
}
