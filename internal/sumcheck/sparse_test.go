package sumcheck

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
)

// oracle is the textbook ℓ=2 prover: dense tables folded and summed by
// plain loops, every message evaluated through Combiner.Apply.
type oracle struct {
	cfg    Config
	tables [][]field.Elem
}

// line is the pair (a, b)'s line at x: (1−x)·a + x·b.
func (o *oracle) line(a, b, x field.Elem) field.Elem {
	f := o.cfg.Field
	return f.Add(f.Mul(f.Sub(1, x), a), f.Mul(x, b))
}

func (o *oracle) message() []field.Elem {
	f := o.cfg.Field
	out := make([]field.Elem, o.cfg.MessageLen())
	vals := make([]field.Elem, len(o.tables))
	for w := 0; w < len(o.tables[0])/2; w++ {
		for c := range out {
			for t, tab := range o.tables {
				vals[t] = o.line(tab[2*w], tab[2*w+1], f.Reduce(uint64(c)))
			}
			out[c] = f.Add(out[c], o.cfg.Combiner.Apply(f, vals))
		}
	}
	return out
}

func (o *oracle) fold(r field.Elem) {
	for t, tab := range o.tables {
		next := make([]field.Elem, len(tab)/2)
		for w := range next {
			next[w] = o.line(tab[2*w], tab[2*w+1], r)
		}
		o.tables[t] = next
	}
}

// densityTables returns arity tables of u entries whose live pairs (any
// table non-zero) are exactly `live` pairs drawn at random; within a live
// pair each entry of each table is zero or not at random, never all zero.
func densityTables(f field.Field, u uint64, arity, live int, rng field.RNG) [][]field.Elem {
	tables := make([][]field.Elem, arity)
	for t := range tables {
		tables[t] = make([]field.Elem, u)
	}
	npairs := int(u / 2)
	order := make([]int, npairs)
	for i := range order {
		order[i] = i
	}
	for i := 0; i < live; i++ { // a partial Fisher–Yates shuffle
		j := i + int(rng.Uint64()%uint64(npairs-i))
		order[i], order[j] = order[j], order[i]
		w := order[i]
		for set := false; !set; {
			for t := range tables {
				for s := 0; s < 2; s++ {
					if rng.Uint64()%2 == 0 {
						tables[t][2*w+s] = 1 + f.Rand(rng)%field.Elem(f.Modulus()-1)
						set = true
					}
				}
			}
		}
	}
	return tables
}

// TestSparseRoundsMatchOracle pins the sparse rounds against the oracle:
// every round message and the leaves after the last fold are equal for
// every combiner, density, size and worker count, and so are a split
// prover's combined messages and leaves. It also pins which form the
// first message used, so the switch itself is covered: it depends on the
// number of live pairs only, not on the worker count or on live pairs
// clustered at the front of the table.
func TestSparseRoundsMatchOracle(t *testing.T) {
	f := f61
	combiners := []Combiner{
		Power{K: 1}, Power{K: 2}, Power{K: 3}, Product{},
		PolyFn{H: poly.Poly{0, 3, 1}},    // H(0) = 0
		PolyFn{H: poly.Poly{5, 3, 0, 2}}, // H(0) ≠ 0: dead pairs add H(0)
	}
	for _, logu := range []int{7, 10, 14} {
		params, err := lde.NewParams(2, logu)
		if err != nil {
			t.Fatal(err)
		}
		u, npairs := params.U, int(params.U/2)
		densities := []struct {
			name string
			live int
			at   int // ≥ 0: one entry at this index instead of `live` random pairs
		}{
			{"zero", 0, -1}, {"first", 1, 0}, {"last", 1, int(u - 1)},
			{"1/64", npairs / 64, -1},
			{"under", npairs / sparseShare, -1}, {"over", npairs/sparseShare + 1, -1},
			{"front", npairs / sparseShare, -1}, // the first live pairs, all in one chunk
			{"1/2", npairs / 2, -1}, {"dense", npairs, -1},
		}
		for ci, comb := range combiners {
			for di, dn := range densities {
				rng := field.NewSplitMix64(uint64(1000*logu + 10*ci + di))
				var tables [][]field.Elem
				switch {
				case dn.at >= 0:
					tables = densityTables(f, u, comb.Arity(), 0, rng)
					tables[0][dn.at] = 7
				case dn.name == "front":
					tables = densityTables(f, u, comb.Arity(), 0, rng)
					for w := 0; w < dn.live; w++ {
						tables[0][2*w+1] = 1 + f.Rand(rng)%field.Elem(f.Modulus()-1)
					}
				default:
					tables = densityTables(f, u, comb.Arity(), dn.live, rng)
				}
				challenges := f.RandVec(rng, params.D)
				for _, workers := range []int{0, 2, -1} {
					name := fmt.Sprintf("logu=%d/%T%v/%s/workers=%d", logu, comb, comb, dn.name, workers)
					cfg := Config{Field: f, Params: params, Combiner: comb, Workers: workers}
					sparse := checkAgainstOracle(t, name, cfg, tables, challenges, 1)
					want := u >= sparseMinEntries && sparseShare*dn.live <= npairs
					if sparse != want {
						t.Fatalf("%s: first message sparse %v, want %v", name, sparse, want)
					}
					for _, s := range []int{2, 4} {
						checkAgainstOracle(t, fmt.Sprintf("%s/S=%d", name, s), cfg, tables, challenges, s)
					}
				}
			}
		}
	}
}

// checkAgainstOracle plays the conversation of the prover over tables —
// or, for nslices > 1, of that many partial provers whose messages are
// summed by CombinePartials — and compares every message and the leaves
// with the oracle's. It reports whether the first prover's first message
// came from live pairs.
func checkAgainstOracle(t *testing.T, name string, cfg Config, tables [][]field.Elem, challenges []field.Elem, nslices int) (sparse bool) {
	t.Helper()
	orig := make([][]field.Elem, len(tables))
	for i, tab := range tables {
		orig[i] = append([]field.Elem(nil), tab...)
	}
	o := &oracle{cfg: cfg, tables: append([][]field.Elem(nil), orig...)}
	width := cfg.Params.U / uint64(nslices)
	provers := make([]*Prover, nslices)
	for k := range provers {
		lo, hi := uint64(k)*width, uint64(k+1)*width
		sub := make([][]field.Elem, len(tables))
		for i, tab := range tables {
			sub[i] = tab[lo:hi]
		}
		var err error
		if nslices == 1 {
			provers[k], err = NewProver(cfg, sub...)
		} else {
			provers[k], err = NewPartialProver(cfg, lo, hi, sub...)
		}
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	rounds := provers[0].cfg.Params.D
	for j := 0; j < rounds; j++ {
		parts := make([][]field.Elem, nslices)
		for k, p := range provers {
			m, err := p.RoundMessage()
			if err != nil {
				t.Fatalf("%s round %d: %v", name, j+1, err)
			}
			parts[k] = m
		}
		if j == 0 {
			sparse = provers[0].sparse != nil
		}
		got, err := CombinePartials(cfg.Field, parts)
		if err != nil {
			t.Fatal(err)
		}
		if want := o.message(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s round %d: message %v, oracle %v", name, j+1, got, want)
		}
		for _, p := range provers {
			if err := p.Fold(challenges[j]); err != nil {
				t.Fatalf("%s fold %d: %v", name, j+1, err)
			}
		}
		o.fold(challenges[j])
	}
	for i, tab := range tables { // borrowed, never written
		if !slices.Equal(tab, orig[i]) {
			t.Fatalf("%s: table %d was written", name, i)
		}
	}
	for k, p := range provers {
		leaves, err := p.Leaves()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i, leaf := range leaves {
			if want := o.tables[i][k]; leaf != want {
				t.Fatalf("%s: slice %d leaf %d = %d, oracle %d", name, k, i, leaf, want)
			}
		}
	}
	return sparse
}
