// The chunked sum-check fork, as 86d849e^ held it in
// internal/sumcheck/sumcheck.go and partial.go: a second constructor pair
// and a second message and fold walk beside the flat path.

package sumcheck

import (
	"fmt"

	"repro/internal/field"
	"repro/internal/parallel"
)

// NewChunkedProver is NewProver over one table held in chunks, at ℓ = 2
// with a combiner of arity 1; live is the live-pair scan of the whole
// table (ScanLivePairs of its entries, or LivePairsFromRuns). The chunks
// are borrowed like NewProver's tables. The first round reads through
// them — a nil chunk adds C(0) per pair — and the first fold writes a
// flat table of the prover's own, half the size, as NewProver's does.
func NewChunkedProver(cfg Config, live LivePairs, tab Chunked) (*Prover, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Combiner.Arity() != 1 || cfg.Params.Ell != 2 {
		return nil, fmt.Errorf("sumcheck: a chunked table needs ℓ=2 and arity 1, have ℓ=%d and arity %d",
			cfg.Params.Ell, cfg.Combiner.Arity())
	}
	if tab.Width < 2 || tab.Width&(tab.Width-1) != 0 || uint64(tab.Len()) != cfg.Params.U {
		return nil, fmt.Errorf("sumcheck: %d chunks of %d entries do not make a table of %d", len(tab.Chunks), tab.Width, cfg.Params.U)
	}
	for k, ch := range tab.Chunks {
		if ch != nil && len(ch) != tab.Width {
			return nil, fmt.Errorf("sumcheck: chunk %d has %d entries, want %d", k, len(ch), tab.Width)
		}
	}
	p, err := newProver(cfg, live)
	if err != nil {
		return nil, err
	}
	if live.sparse {
		p.sparse = p.newSparse(live, []Chunked{tab})
	} else {
		p.chunks = &tab
	}
	return p, nil
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
	return sum3(f, partials)
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
	p.pending = sum3(f, partials)
}

// chunkMessage computes round 1's message over the chunked table: the
// pairs split across workers as in message, each worker's pairs read
// chunk by chunk.
func (p *Prover) chunkMessage() []field.Elem {
	f := p.cfg.Field
	deg := p.cfg.degree()
	sq := p.fuseKind() == fuseSq
	grain := parallel.MinGrain
	if !sq {
		grain = grainFor((deg + 1) * 2)
	}
	npairs := p.chunks.Len() / 2
	partials := make([][]field.Elem, parallel.ChunksGrain(p.workers, npairs, grain))
	parallel.ForGrain(p.workers, npairs, grain, func(chunk, lo, hi int) {
		out := make([]field.Elem, deg+1)
		dead := 0
		p.chunks.each(2*lo, 2*hi, func(_, n int, seg []field.Elem) {
			switch {
			case seg == nil:
				dead += n / 2
			case sq:
				g0, g1, g2 := f.PairsSumSq(seg)
				out[0], out[1], out[2] = f.Add(out[0], g0), f.Add(out[1], g1), f.Add(out[2], g2)
			default:
				p.messageRange(out, [][]field.Elem{seg}, 0, n/2)
			}
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

// foldChunks folds the chunked table by r into a flat table of the
// prover's own; a nil chunk folds to zeros, which the new table already
// holds. When the fused kernel applies, it computes the next message in
// the same pass, as foldFused does; chunks of at least 4 entries keep its
// next-table pairs whole.
func (p *Prover) foldChunks(r field.Elem) {
	f := p.cfg.Field
	src := p.chunks
	next := make([]field.Elem, src.Len()/2)
	if p.fuseKind() == fuseSq && p.round+1 < p.cfg.Params.D && src.Width >= 4 {
		npairs := len(next) / 2
		partials := make([][3]field.Elem, parallel.Chunks(p.workers, npairs))
		parallel.For(p.workers, npairs, func(chunk, lo, hi int) {
			var g [3]field.Elem
			src.each(4*lo, 4*hi, func(at, n int, seg []field.Elem) {
				if seg != nil { // zeros fold to zeros, whose squares add nothing
					g0, g1, g2 := f.FoldPairsSumSq(next[at/2:(at+n)/2], seg, r)
					g = [3]field.Elem{f.Add(g[0], g0), f.Add(g[1], g1), f.Add(g[2], g2)}
				}
			})
			partials[chunk] = g
		})
		p.pending = sum3(f, partials)
	} else {
		parallel.For(p.workers, len(next), func(_, lo, hi int) {
			src.each(2*lo, 2*hi, func(at, n int, seg []field.Elem) {
				if seg != nil {
					f.FoldPairs(next[at/2:(at+n)/2], seg, r)
				}
			})
		})
	}
	p.tables, p.chunks = [][]field.Elem{next}, nil
}

// NewPartialChunkedProver is NewPartialProver over the slice's one table
// held in chunks, as NewChunkedProver takes it: live is the scan of the
// slice's hi−lo entries.
func NewPartialChunkedProver(cfg Config, lo, hi uint64, live LivePairs, tab Chunked) (*Prover, error) {
	sp, err := SliceParams(cfg.Params, lo, hi)
	if err != nil {
		return nil, err
	}
	scfg := cfg
	scfg.Params = sp
	return NewChunkedProver(scfg, live, tab)
}
