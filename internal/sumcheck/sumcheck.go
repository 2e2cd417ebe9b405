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
// u entries, each held in equal chunks (Table; a flat table is one chunk,
// Flat) of field elements or of int64 counts, and, counted from the code
// below, spends:
//
//   - at ℓ=2 with u ≥ 128, one scan of the tables (ScanLivePairs),
//     reading at most T·u entries, which finds the n live pairs (pairs
//     where any table is non-zero). The scan is a value the prover is
//     handed, not work it does: a caller scans once per set of tables
//     and shares the result, and the dataset engine assembles it per
//     table version from per-chunk counts and lists (AppendLiveCounts,
//     LivePairsFromRuns), scanning only the chunks an ingest wrote;
//   - O(T·n) to pack the live pairs when the prover is built;
//   - while n is at most a quarter of the m/2 pairs of the current
//     m-entry tables and m > 64, O((T + deg)·n) field operations per
//     round: fold (split across the workers), regroup (one pass that
//     does not branch on the data) and deg+1 evaluations per live pair,
//     plus one correction per message for the dead ones;
//   - from then on, or from the start on a denser table or at ℓ > 2,
//     O(deg·T·m) per round on the dense m-entry tables, m falling by ℓ
//     per round, so O(deg·T·u) at most over all rounds.
package sumcheck

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

	// Workers sets the prover's fan-out: every table scan (per-round
	// messages, folds, the live-pair packing) is split into contiguous
	// chunks processed by that many goroutines, with per-chunk partials
	// combined in chunk order. Because field arithmetic is exact, the
	// transcript is bit-identical for every worker count. 0 (the
	// default) runs serially, n < 0 selects runtime.NumCPU(). The
	// verifier ignores it — checking is already O(log u). Combiners must
	// be safe for concurrent Apply calls when Workers != 0 (the
	// combiners in this package are pure).
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

// Table is one table held as equal chunks: chunk k holds entries
// [k·Width, (k+1)·Width), and a nil chunk holds zeros. A flat table is
// one chunk (Flat). Its entries are field elements (Chunked) or int64
// counts (Counts), read as field.Lift reads them: a prover reads a count
// c as c mod p and needs |c| < p of each one — ReducedCounts makes a
// copy of any counts that meets it. A dataset engine lends its chunks of
// counts as they are.
type Table[T field.Entry] struct {
	Width  int
	Chunks [][]T
}

// Chunked is a table of field elements, Counts one of counts.
type (
	Chunked = Table[field.Elem]
	Counts  = Table[int64]
)

// Flat returns tab as a table of one chunk.
func Flat[T field.Entry](tab []T) Table[T] {
	return Table[T]{Width: len(tab), Chunks: [][]T{tab}}
}

// Len returns the number of entries the table holds.
func (c Table[T]) Len() int { return c.Width * len(c.Chunks) }

// flats wraps each flat table as a Chunked.
func flats(tables [][]field.Elem) []Chunked {
	out := make([]Chunked, len(tables))
	for t, tab := range tables {
		out[t] = Flat(tab)
	}
	return out
}

// tableLen returns the entries each of tables holds, or an error unless
// they share one Width, a positive multiple of ell, and one length, and
// every chunk that is not nil holds Width entries.
func tableLen[T field.Entry](ell int, tables []Table[T]) (int, error) {
	if len(tables) == 0 {
		return 0, errors.New("sumcheck: no tables")
	}
	width, n := tables[0].Width, tables[0].Len()
	if width < 1 || width%ell != 0 {
		return 0, fmt.Errorf("sumcheck: chunks of %d entries at ℓ=%d", width, ell)
	}
	for t, tab := range tables {
		if tab.Width != width || tab.Len() != n {
			return 0, fmt.Errorf("sumcheck: table %d has %d entries in chunks of %d, table 0 %d in chunks of %d",
				t, tab.Len(), tab.Width, n, width)
		}
		for k, ch := range tab.Chunks {
			if ch != nil && len(ch) != width {
				return 0, fmt.Errorf("sumcheck: table %d chunk %d has %d entries, want %d", t, k, len(ch), width)
			}
		}
	}
	return n, nil
}

// eachRun calls fn(at, n, segs) for the runs of entries [lo, hi) of
// tables, which share one Width, that lie in one chunk, in order: segs[t]
// holds table t's entries at..at+n−1, or is nil when its chunk is, and
// segs itself is nil when every table's chunk is.
func eachRun[T field.Entry](tables []Table[T], lo, hi int, fn func(at, n int, segs [][]T)) {
	width := tables[0].Width
	segs := make([][]T, len(tables))
	for lo < hi {
		k := lo / width
		end := min(hi, (k+1)*width)
		run := [][]T(nil)
		for t, tab := range tables {
			segs[t] = nil
			if ch := tab.Chunks[k]; ch != nil {
				segs[t], run = ch[lo-k*width:end-k*width], segs
			}
		}
		fn(lo, end-lo, run)
		lo = end
	}
}

// withZeros returns tables with every nil chunk that sits beside a live
// chunk of another table replaced by one zero chunk of the prover's own,
// so that a run is nil in every table or in none. It copies the chunk
// lists; the borrowed ones are never written.
func withZeros[T field.Entry](tables []Table[T]) []Table[T] {
	if len(tables) < 2 {
		return tables
	}
	out := make([]Table[T], len(tables))
	for t, tab := range tables {
		out[t] = Table[T]{Width: tab.Width, Chunks: slices.Clone(tab.Chunks)}
	}
	var zeros []T
	for k := range out[0].Chunks {
		if !slices.ContainsFunc(tables, func(tab Table[T]) bool { return tab.Chunks[k] != nil }) {
			continue
		}
		for _, tab := range out {
			if tab.Chunks[k] == nil {
				if zeros == nil {
					zeros = make([]T, tab.Width)
				}
				tab.Chunks[k] = zeros
			}
		}
	}
	return out
}

// Prover is the honest prover: it borrows the full frequency tables —
// each held in chunks, a flat table as one, of field elements or of
// counts — read-only, and answers each round from progressively folded
// flat field tables of its own. Only the first round and the first fold
// read the borrowed tables; each kernel there has one body for both entry
// types. All table scans fan out across cfg.Workers goroutines in
// contiguous ranges; since field arithmetic is exact and partials are
// combined in range order, the transcript is bit-identical for every
// worker count.
type Prover struct {
	cfg     Config
	workers int
	tables  []Chunked      // the borrowed element tables until the first fold, then the prover's own flat ones
	counts  []Counts       // the borrowed count tables instead, until the first fold
	sparse  *sparseTables  // the tables instead, while few of their pairs are live
	zero    field.Elem     // C(0, …, 0): what each all-zero ℓ-tuple adds at every point
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

// NewProver builds a prover over tables, one per combiner slot, which
// share one Width, a multiple of ℓ, and hold ℓ^d entries each, and live,
// their ScanLivePairs. The tables are borrowed: the prover reads them
// and never writes them, nor live, so callers may share one table and
// its scan among many provers. A sparse scan's live pairs are packed
// here, in O(T·n). Otherwise the first round reads through the chunks —
// an all-nil run adds C(0, …, 0) per ℓ-tuple — and the first fold writes
// flat field tables of the prover's own, ℓ times smaller.
func NewProver[T field.Entry](cfg Config, live LivePairs, tables ...Table[T]) (*Prover, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(tables) != cfg.Combiner.Arity() {
		return nil, fmt.Errorf("sumcheck: combiner arity %d but %d tables", cfg.Combiner.Arity(), len(tables))
	}
	n, err := tableLen(cfg.Params.Ell, tables)
	if err != nil {
		return nil, err
	}
	if uint64(n) != cfg.Params.U {
		return nil, fmt.Errorf("sumcheck: tables have %d entries, want %d", n, cfg.Params.U)
	}
	if uint64(live.entries) != cfg.Params.U || live.sparse && cfg.Params.Ell != 2 {
		return nil, fmt.Errorf("sumcheck: live pairs scanned over %d entries at ℓ=2, prover has %d at ℓ=%d",
			live.entries, cfg.Params.U, cfg.Params.Ell)
	}
	deg := cfg.degree()
	weights := lde.BasisWeights(cfg.Field, cfg.Params.Ell)
	cElems := make([]field.Elem, deg+1)
	for c := 0; c <= deg; c++ {
		cElems[c] = cfg.Field.Reduce(uint64(c))
	}
	p := &Prover{
		cfg:     cfg,
		workers: parallel.Workers(cfg.Workers),
		chiAt:   lde.ChiTables(cfg.Field, weights, cElems),
		cElems:  cElems,
		weights: weights,
		zero:    cfg.Combiner.Apply(cfg.Field, make([]field.Elem, cfg.Combiner.Arity())),
	}
	tables = withZeros(tables)
	if live.sparse {
		p.sparse = newSparse(p, live, tables)
		return p, nil
	}
	switch tabs := any(tables).(type) {
	case []Chunked:
		p.tables = tabs
	case []Counts:
		p.counts = tabs
	}
	return p, nil
}

// RoundMessage computes the evaluations g_j(0..deg) for the current round.
// It must be called exactly once per round, alternating with Fold. The
// claim is Σ_{c<ℓ} g_1(c).
func (p *Prover) RoundMessage() ([]field.Elem, error) {
	if p.round >= p.cfg.Params.D {
		return nil, fmt.Errorf("sumcheck: all %d rounds already played", p.cfg.Params.D)
	}
	if p.pending != nil {
		msg := p.pending
		p.pending = nil
		return msg, nil
	}
	switch {
	case p.sparse != nil:
		return p.sparseMessage(), nil
	case p.counts != nil:
		return message(p, p.counts), nil
	}
	return message(p, p.tables), nil
}

// message computes a round message over tables: the ℓ-tuples split
// across workers, each worker's read run by run with the pair-walk
// kernels for the fused combiners and the generic walk otherwise. A run
// that is nil in every table adds C(0, …, 0) per ℓ-tuple.
func message[T field.Entry](p *Prover, tables []Table[T]) []field.Elem {
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	deg := p.cfg.degree()
	kind := p.fuseKind()
	grain := parallel.MinGrain
	if kind == fuseNone {
		// Each index costs ~(deg+1)·ℓ·arity field ops, so scale the grain
		// down accordingly: coarse decompositions (large ℓ, few but heavy
		// indices) must still fan out.
		grain = grainFor((deg + 1) * ell * len(tables))
	}
	size := tables[0].Len() / ell
	partials := make([][]field.Elem, parallel.ChunksGrain(p.workers, size, grain))
	parallel.ForGrain(p.workers, size, grain, func(chunk, lo, hi int) {
		out := make([]field.Elem, deg+1)
		dead := 0
		eachRun(tables, ell*lo, ell*hi, func(_, n int, segs [][]T) {
			var g0, g1, g2 field.Elem
			switch {
			case segs == nil:
				dead += n / ell
				return
			case kind == fuseSq:
				g0, g1, g2 = field.PairsSumSq(f, segs[0])
			case kind == fuseProd:
				g0, g1, g2 = field.PairsSumProd(f, segs[0], segs[1])
			default:
				messageRange(p, out, segs, n/ell)
				return
			}
			out[0], out[1], out[2] = f.Add(out[0], g0), f.Add(out[1], g1), f.Add(out[2], g2)
		})
		p.addZeros(out, dead)
		partials[chunk] = out
	})
	out := make([]field.Elem, deg+1)
	for _, part := range partials {
		f.AddSlices(out, out, part)
	}
	return out
}

// messageRange adds the generic walk's terms for the first m ℓ-tuples
// of segs into out, reading each ℓ-tuple of each table into a row of
// field elements first.
func messageRange[T field.Entry](p *Prover, out []field.Elem, segs [][]T, m int) {
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	deg := p.cfg.degree()
	vals := make([]field.Elem, len(segs))
	diffs := make([]field.Elem, len(segs))
	rows := make([][]field.Elem, len(segs))
	for t := range rows {
		rows[t] = make([]field.Elem, ell)
	}
	for w := 0; w < m; w++ {
		for t, tab := range segs {
			liftRow(rows[t], tab[w*ell:], f.Modulus())
			if ell == 2 {
				diffs[t] = f.Sub(rows[t][1], rows[t][0])
			}
		}
		for c := 0; c <= deg; c++ {
			for t, row := range rows {
				switch {
				case c < ell:
					// χ at a node is an indicator: direct read.
					vals[t] = row[c]
				case ell == 2:
					// (1-c)·T0 + c·T1 = T0 + c·(T1-T0): one multiply.
					vals[t] = f.Add(row[0], f.Mul(p.cElems[c], diffs[t]))
				default:
					vals[t] = f.DotSlices(p.chiAt[c], row)
				}
			}
			out[c] = f.Add(out[c], p.cfg.Combiner.Apply(f, vals))
		}
	}
}

// liftRow sets row to the field elements of src's first len(row) entries.
func liftRow[T field.Entry](row []field.Elem, src []T, mod uint64) {
	for j := range row {
		row[j] = field.Elem(field.Lift(src[j], mod))
	}
}

// Fold binds the current round's variable to the verifier's challenge r,
// shrinking every table by a factor of ℓ. It never writes a borrowed
// table: every fold writes a table of the prover's own.
func (p *Prover) Fold(r field.Elem) error {
	if p.round >= p.cfg.Params.D {
		return fmt.Errorf("sumcheck: all %d rounds already folded", p.cfg.Params.D)
	}
	p.pending = nil
	switch {
	case p.sparse != nil:
		p.foldSparse(r)
	case p.counts != nil:
		fold(p, p.counts, r)
		p.counts = nil
	default:
		fold(p, p.tables, r)
	}
	p.round++
	return nil
}

// fold folds tables by r into flat field tables of the prover's own,
// which become p.tables, each worker's range read run by run; a run that
// is nil in every table folds to zeros, which the new tables already
// hold. When the fused kernel applies and the next tables still have ≥ 2
// pairs, it computes the next message in the same pass, leaving it in
// p.pending; chunks of at least 4 entries keep its next-table pairs
// whole.
func fold[T field.Entry](p *Prover, tables []Table[T], r field.Elem) {
	f := p.cfg.Field
	ell := p.cfg.Params.Ell
	size := tables[0].Len() / ell
	next := make([][]field.Elem, len(tables))
	for t := range next {
		next[t] = make([]field.Elem, size)
	}
	switch kind := p.fuseKind(); {
	case kind != fuseNone && p.round+1 < p.cfg.Params.D && tables[0].Width >= 4:
		npairs := size / 2
		partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			var g [3]field.Elem
			eachRun(tables, 4*lo, 4*hi, func(at, n int, segs [][]T) {
				if segs == nil { // zeros fold to zeros, which add C(0, …, 0) = 0
					return
				}
				var g0, g1, g2 field.Elem
				a, b := at/2, (at+n)/2
				if kind == fuseSq {
					g0, g1, g2 = field.FoldPairsSumSq(f, next[0][a:b], segs[0], r)
				} else {
					g0, g1, g2 = field.FoldPairsSumProd(f, next[0][a:b], next[1][a:b], segs[0], segs[1], r)
				}
				g = [3]field.Elem{f.Add(g[0], g0), f.Add(g[1], g1), f.Add(g[2], g2)}
			})
			partials[chunk] = g
		})
		out := make([]field.Elem, 3)
		for _, g := range partials {
			out[0], out[1], out[2] = f.Add(out[0], g[0]), f.Add(out[1], g[1]), f.Add(out[2], g[2])
		}
		p.pending = out
	case ell == 2:
		parallel.For(p.workers, size, func(_, lo, hi int) {
			eachRun(tables, 2*lo, 2*hi, func(at, n int, segs [][]T) {
				for t, seg := range segs {
					// (1-r)·T0 + r·T1 = T0 + r·(T1-T0).
					field.FoldPairs(f, next[t][at/2:(at+n)/2], seg, r)
				}
			})
		})
	default:
		chi := lde.AllChi(f, p.weights, r)
		parallel.ForGrain(p.workers, size, grainFor(ell), func(_, lo, hi int) {
			row := make([]field.Elem, ell)
			eachRun(tables, ell*lo, ell*hi, func(at, n int, segs [][]T) {
				for t, seg := range segs {
					for w := 0; w < n/ell; w++ {
						liftRow(row, seg[w*ell:], f.Modulus())
						next[t][at/ell+w] = f.DotSlices(chi, row)
					}
				}
			})
		})
	}
	p.tables = flats(next)
}

// addZeros adds what that many all-zero ℓ-tuples contribute,
// tuples·C(0, …, 0), at every evaluation point of msg.
func (p *Prover) addZeros(msg []field.Elem, tuples int) {
	if p.zero == 0 || tuples == 0 {
		return
	}
	f := p.cfg.Field
	c := f.Mul(f.Reduce(uint64(tuples)), p.zero)
	for i := range msg {
		msg[i] = f.Add(msg[i], c)
	}
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
// ScanLivePairs finds the live pairs of tables with at least
// sparseMinEntries entries, in one pass. A prover takes that scan and
// holds its tables sparse while at most 1/sparseShare of the pairs are
// live. Once a fold leaves more, or leaves at most denseAtEntries
// entries, the prover still answers that round from the live pairs, and
// its next fold scatters the folded entries into dense tables — the
// fused path — so Leaves and the tail prover see dense tables.
const (
	sparseMinEntries = 128
	denseAtEntries   = 64
	sparseShare      = 4
	scanBatch        = 512 // pairs a scan worker reads between updates of the shared live count
)

// LivePairs is one live-pair scan of a set of tables: the sorted indices
// of their live pairs, or the verdict that they are to be held dense. It
// depends on the tables alone, so one scan serves every prover over the
// same tables — a dataset engine assembles it once per sealed table
// version from per-chunk runs — and provers never write it.
type LivePairs struct {
	runs    [][]uint32 // the live pair indices in runs, each strictly increasing and past the one before; shared, read-only
	n       int        // live pairs over all runs
	entries int        // length of each scanned table; -1 when the tables disagree
	sparse  bool
}

// Sparse reports whether the scanned tables are to be held as their live
// pairs.
func (l LivePairs) Sparse() bool { return l.sparse }

// Len returns the number of live pairs listed: 0 when the tables are
// dense.
func (l LivePairs) Len() int { return l.n }

// Indices returns the live pair indices, strictly increasing, in a slice
// of the caller's own: nil when the tables are dense or hold no live pair.
func (l LivePairs) Indices() []uint32 { return slices.Concat(l.runs...) }

// ScanLivePairs finds the live pairs of tables under branching factor ell
// in one pass split across workers goroutines (0 serial, n < 0 all
// cores); a nil chunk holds no live pair. The workers share one count of
// the live pairs found, updated every scanBatch pairs, and all stop once
// it passes npairs/sparseShare, so a dense table costs about a quarter of
// a pass. The verdict thus depends on the tables' live pairs alone, not
// on the worker count or where the live pairs sit. Tables at ℓ > 2 or
// under sparseMinEntries entries are dense without a scan, and tables
// that do not share one shape are scanned over no size a prover takes.
func ScanLivePairs[T field.Entry](ell, workers int, tables ...Table[T]) LivePairs {
	entries, err := tableLen(ell, tables)
	if err != nil {
		return LivePairs{entries: -1}
	}
	if !sparseCandidate(ell, entries) {
		return LivePairs{entries: entries}
	}
	npairs := entries / 2
	limit := int64(npairs / sparseShare)
	var found atomic.Int64
	nw := parallel.Workers(workers)
	runs := make([][]uint32, parallel.Chunks(nw, npairs))
	parallel.For(nw, npairs, func(chunk, lo, hi int) {
		var idx []uint32
		over := false
		eachRun(tables, 2*lo, 2*hi, func(at, n int, segs [][]T) {
			for b := 0; b < n/2 && segs != nil && !over; b += scanBatch {
				before := len(idx)
				idx = appendLive(idx, at/2, segs, b, min(b+scanBatch, n/2))
				over = found.Add(int64(len(idx)-before)) > limit
			}
		})
		runs[chunk] = idx
	})
	n := int(found.Load())
	if n > int(limit) {
		return LivePairs{entries: entries}
	}
	return LivePairsFromRuns(ell, entries, n, runs)
}

// AppendLiveCounts appends to dst the live pairs of one table of counts,
// each count c with |c| < p, without ScanLivePairs's early stop, and
// returns their count n: first+w for each pair w that holds a non-zero
// count. It passes over each block of 8 zero counts with one test. A
// caller holding a table in pieces scans each piece once this way — pair
// w of the piece is pair first+w of the whole — and assembles the whole
// table's scan with LivePairsFromRuns. Once more than limit pairs are
// live it lists no more and only counts: when n > limit it returns dst
// as given.
func AppendLiveCounts(dst []uint32, first int, counts []int64, limit int) ([]uint32, int) {
	tables := [][]int64{counts}
	given, n := dst, 0
	for i := 0; i < len(counts); i += 8 {
		if i+8 <= len(counts) {
			if b := counts[i : i+8 : i+8]; b[0]|b[1]|b[2]|b[3]|b[4]|b[5]|b[6]|b[7] == 0 {
				continue
			}
		}
		w := i / 2
		m := liveMask(tables, w, min(4, len(counts)/2-w))
		if n += bits.OnesCount(m); n > limit {
			dst = given
			continue
		}
		for ; m != 0; m &= m - 1 {
			dst = append(dst, uint32(first+w+bits.TrailingZeros(m)))
		}
	}
	return dst, n
}

// ReducedCounts returns a copy of counts holding each count c as c mod p,
// in [0, p): a table a prover may read whatever the counts' size.
func ReducedCounts(f field.Field, counts []int64) []int64 {
	out := make([]int64, len(counts))
	for i, c := range counts {
		out[i] = int64(f.FromInt64(c))
	}
	return out
}

// MaxSparseLive is the most live pairs tables of entries entries under
// ell may hold and still be held sparse, by ScanLivePairs's verdict; −1
// when such tables are never held sparse.
func MaxSparseLive(ell, entries int) int {
	if !sparseCandidate(ell, entries) {
		return -1
	}
	return entries / 2 / sparseShare
}

// LivePairsFromRuns is the live-pair scan of tables of entries entries
// under ell that hold n live pairs, assembled from runs of live pair
// indices the caller found itself (AppendLiveCounts). The verdict is
// ScanLivePairs's, so the result equals ScanLivePairs over the same
// tables. runs is read only when n is at most MaxSparseLive; it must then
// list the n pairs, each run strictly increasing and past the one before.
// The runs are shared, not copied.
func LivePairsFromRuns(ell, entries, n int, runs [][]uint32) LivePairs {
	live := LivePairs{entries: entries}
	if n > MaxSparseLive(ell, entries) {
		return live
	}
	live.runs, live.n, live.sparse = runs, n, true
	return live
}

// sparseCandidate reports whether tables of entries entries under ell
// can be held sparse at all.
func sparseCandidate(ell, entries int) bool {
	return ell == 2 && entries >= sparseMinEntries && entries/2-1 <= math.MaxUint32
}

// appendLive appends first+w to idx for each live pair w ∈ [lo, hi) of
// tables.
func appendLive[T field.Entry](idx []uint32, first int, tables [][]T, lo, hi int) []uint32 {
	for w := lo; w < hi; w += 8 {
		for m := liveMask(tables, w, min(8, hi-w)); m != 0; m &= m - 1 {
			idx = append(idx, uint32(first+w+bits.TrailingZeros(m)))
		}
	}
	return idx
}

// liveMask reports which of the n ≤ 8 pairs from pair w are live in any
// table, a nil table holding zeros: bit j for pair w+j. An entry is live
// when it is not 0, which for a count c with |c| < p is when c mod p is
// not. It does not branch on the data, so a sparse table's scattered live
// pairs cost no mispredictions.
func liveMask[T field.Entry](tables [][]T, w, n int) uint {
	var m uint
	for _, tab := range tables {
		if tab == nil {
			continue
		}
		b := tab[2*w : 2*(w+n)]
		for j := 0; j < n; j++ {
			x := uint64(b[2*j] | b[2*j+1])
			m |= uint((x|-x)>>63) << j
		}
	}
	return m
}

// sparseTables is a prover's tables in live-pair form. All three slices
// are the prover's own, allocated once per conversation.
type sparseTables struct {
	idx    []uint32       // live pair indices, strictly increasing
	pairs  [][]field.Elem // pairs[t][2k], pairs[t][2k+1]: table t's pair idx[k]
	folded [][]field.Elem // folded[t][k]: entry idx[k] of table t's next table, before regrouping
	npairs int            // pairs per table, live or dead
	last   bool           // the sparse form stops paying: the next fold goes dense
}

// newSparse packs the borrowed tables' live pairs, listed by live, into
// field tables of the prover's own, the gather split across the workers
// and each entry lifted as it is read. It copies the indices too: the
// prover regroups them in place, and live's are shared. A pair never
// straddles two chunks, and a chunk that is nil in every table holds no
// live pair.
func newSparse[T field.Entry](p *Prover, live LivePairs, tables []Table[T]) *sparseTables {
	sp := &sparseTables{
		idx:    slices.Concat(live.runs...),
		pairs:  make([][]field.Elem, len(tables)),
		folded: make([][]field.Elem, len(tables)),
		npairs: live.entries / 2,
	}
	n := len(sp.idx)
	for t := range tables {
		buf := make([]field.Elem, 3*n)
		sp.pairs[t], sp.folded[t] = buf[:2*n], buf[2*n:]
	}
	mod := p.cfg.Field.Modulus()
	parallel.For(p.workers, n, func(_, lo, hi int) {
		for t, tab := range tables {
			packed, half := sp.pairs[t], tab.Width/2
			for k := lo; k < hi; { // the live pairs of one chunk at a time
				c := int(sp.idx[k]) / half
				ch, first, end := tab.Chunks[c], c*half, (c+1)*half
				for ; k < hi && int(sp.idx[k]) < end; k++ {
					j := 2 * (int(sp.idx[k]) - first)
					packed[2*k] = field.Elem(field.Lift(ch[j], mod))
					packed[2*k+1] = field.Elem(field.Lift(ch[j+1], mod))
				}
			}
		}
	})
	return sp
}

// sparseMessage computes the current round's message from the live
// pairs, adding the dead pairs' share.
func (p *Prover) sparseMessage() []field.Elem {
	out := message(p, flats(p.sparse.pairs))
	p.addZeros(out, p.sparse.npairs-len(p.sparse.idx))
	return out
}

// foldSparse folds the live pairs by r into the fold buffers, split
// across the workers, and regroups them into the next table's live pairs,
// leaving the next message in p.pending. After a fold that found the
// sparse form no longer pays, it scatters the folded entries into dense
// tables instead; the dense path computes the message itself then.
func (p *Prover) foldSparse(r field.Elem) {
	sp := p.sparse
	f := p.cfg.Field
	n := len(sp.idx)
	parallel.For(p.workers, n, func(_, lo, hi int) {
		for t, packed := range sp.pairs {
			f.FoldPairs(sp.folded[t][lo:hi], packed[2*lo:2*hi], r)
		}
	})
	if sp.last {
		p.scatter()
		return
	}
	n = regroup(sp.idx, sp.pairs, sp.folded)
	sp.idx = sp.idx[:n]
	for t := range sp.pairs {
		sp.pairs[t] = sp.pairs[t][:2*n]
	}
	sp.npairs /= 2
	sp.last = 2*sp.npairs <= denseAtEntries || sparseShare*n > sp.npairs
	p.pending = p.sparseMessage()
}

// regroup moves the folded entries into the next table's pairs: folded
// entry k is entry w = idx[k] of the next table, which lands in pair
// w>>1, slot w&1, beside a 0 when its sibling is dead. The tables share
// one index list. It returns the number n of next-table live pairs, now
// in idx[:n] and each table's pairs[:2n]. Entry k joins the previous pair
// exactly when its parent w>>1 equals the previous entry's; that test,
// the slot and the zeroing are masks, so the pass never branches on the
// data. Writes land at or below the entry just read.
func regroup(idx []uint32, pairs, folded [][]field.Elem) int {
	prev := ^uint32(0) // no parent: a parent w>>1 fits in 31 bits
	j := -1
	for k, w := range idx {
		parent := w >> 1
		d := uint64(parent ^ prev)
		fresh := (d | -d) >> 63 // 1 when entry k opens pair j+1
		j += int(fresh)
		idx[j] = parent
		prev = parent
		slot1 := -uint64(w & 1) // all ones when entry k goes to slot 1
		keep := fresh - 1       // all ones when slot 0 already holds its sibling
		for t, tab := range pairs {
			v := uint64(folded[t][k])
			pr := tab[2*j : 2*j+2]
			pr[0] = field.Elem(v&^slot1 | uint64(pr[0])&keep)
			pr[1] = field.Elem(v & slot1)
		}
	}
	return j + 1
}

// scatter turns the folded entries into dense tables of the prover's
// own: folded entry k is entry idx[k] of the next table, of npairs
// entries, and every other entry is 0.
func (p *Prover) scatter() {
	sp := p.sparse
	p.tables = make([]Chunked, len(sp.folded))
	for t, folded := range sp.folded {
		tab := make([]field.Elem, sp.npairs)
		for k, w := range sp.idx {
			tab[w] = folded[k]
		}
		p.tables[t] = Flat(tab)
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
