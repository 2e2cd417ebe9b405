package sumcheck

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
)

// sparseForm returns tab with each chunk holding at most width/16
// non-zero counts in the sparse form: its listed counts and offsets.
// Every other chunk, nil or dense, is shared.
func sparseForm(tab Counts) Counts {
	out := Counts{Width: tab.Width, Chunks: slices.Clone(tab.Chunks), Offsets: make([][]uint16, len(tab.Chunks))}
	for k, ch := range tab.Chunks {
		var offs []uint16
		var vals []int64
		for j, c := range ch {
			if c != 0 {
				offs, vals = append(offs, uint16(j)), append(vals, c)
			}
		}
		if ch != nil && len(offs) <= tab.Width/16 {
			out.Chunks[k], out.Offsets[k] = vals, append([]uint16{}, offs...)
		}
	}
	return out
}

// playCounts runs a prover over tables, scanned by ScanLivePairs, through the
// challenges rs and returns its messages.
func playCounts(t *testing.T, cfg Config, rs []field.Elem, tables ...Counts) [][]field.Elem {
	t.Helper()
	p, err := NewProver(cfg, ScanLivePairs(cfg.Params.Ell, cfg.Workers, tables...), tables...)
	if err != nil {
		t.Fatal(err)
	}
	var msgs [][]field.Elem
	for j, r := range rs {
		m, err := p.RoundMessage()
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
		if j+1 < len(rs) {
			if err := p.Fold(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	return msgs
}

// TestSparseChunksPlayAsDense: a table of counts whose sparse chunks are
// held in the sparse form plays, round by round, the conversation of the
// same counts held dense — for one table and, beside a dense table, for
// two — under Power{2}, Power{3} and Product, on tables sparse enough for
// the live-pair rounds (gather walks the sparse chunks) and dense ones
// (the dense walks write them out through Expand), at 0 and 2 workers.
// Some counts are multiples of p, which a sparse chunk lists and the
// live-pair scan passes over.
func TestSparseChunksPlayAsDense(t *testing.T) {
	const d, width = 12, 256
	params, err := lde.NewParams(2, d)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(0x5a5e)
	p := int64(f61.Modulus())
	table := func(live int) Counts {
		counts := make([]int64, params.U)
		for range live {
			c := int64(rng.Uint64()%9) - 4
			if rng.Uint64()%16 == 0 {
				c = p * (1 + int64(rng.Uint64()%2))
			}
			// Half the counts in chunk 0, one in fifty in the last
			// quarter, the rest in the first three quarters: chunk
			// densities straddle width/16 at either verdict.
			at := rng.Uint64() % (params.U / 4 * 3)
			switch x := rng.Uint64() % 100; {
			case x < 50:
				at %= width
			case x < 52:
				at = params.U/4*3 + rng.Uint64()%(params.U/4)
			}
			counts[at] += c
		}
		tab := Counts{Width: width, Chunks: make([][]int64, params.U/width)}
		for k := range tab.Chunks {
			if ch := counts[k*width : (k+1)*width]; slices.ContainsFunc(ch, func(c int64) bool { return c != 0 }) {
				tab.Chunks[k] = ch
			}
		}
		return tab
	}
	rs := make([]field.Elem, d)
	for j := range rs {
		rs[j] = f61.Rand(rng)
	}
	for _, live := range []int{64, 3000} {
		a, b := table(live), table(live)
		sa := sparseForm(a)
		held := 0
		for _, offs := range sa.Offsets {
			held += min(1, len(offs))
		}
		if held == 0 || held == len(sa.Chunks) {
			t.Fatalf("%d live counts: %d of %d chunks held sparse, want some", live, held, len(sa.Chunks))
		}
		for _, workers := range []int{0, 2} {
			for _, c := range []Combiner{Power{K: 2}, Power{K: 3}, Product{}} {
				cfg := Config{Field: f61, Params: params, Combiner: c, Workers: workers}
				dense, mixed := []Counts{a}, []Counts{sa}
				if c.Arity() == 2 {
					dense, mixed = []Counts{a, b}, []Counts{sa, b}
				}
				name := fmt.Sprintf("%d live/%T%v/%d workers", live, c, c, workers)
				if want, got := ScanLivePairs(2, workers, dense...), ScanLivePairs(2, workers, mixed...); want.Sparse() != got.Sparse() || !slices.Equal(want.Indices(), got.Indices()) {
					t.Fatalf("%s: the mixed-form scan differs from the dense one", name)
				}
				want, got := playCounts(t, cfg, rs, dense...), playCounts(t, cfg, rs, mixed...)
				for j := range want {
					if !slices.Equal(want[j], got[j]) {
						t.Fatalf("%s: round %d message differs", name, j+1)
					}
				}
			}
		}
	}
}
