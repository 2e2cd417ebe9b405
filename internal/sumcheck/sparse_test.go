package sumcheck

import (
	"fmt"
	"slices"
	"sync"
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

// newScanned is NewProver over flat tables and their own fresh scan.
func newScanned(cfg Config, tables ...[]field.Elem) (*Prover, error) {
	flat := flats(tables)
	return NewProver(cfg, ScanLivePairs(cfg.Params.Ell, cfg.Workers, flat...), flat...)
}

// TestSparseRoundsMatchOracle pins the sparse rounds against the oracle:
// every round message and the leaves after the last fold are equal for
// every combiner, density, size and worker count, and so are a split
// prover's combined messages and leaves, and those of the same tables
// held in chunks. One scan is handed to two provers one after the other,
// then to two provers running concurrently, and must come out unwritten.
// It also pins which form the scan chose, so the switch itself is
// covered: it depends on the number of live pairs only, not on the
// worker count or on live pairs clustered at the front of the table.
// Last, a dense ℓ = 4 table held in chunks must play its flat prover's
// conversation.
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
				o := &oracle{cfg: Config{Field: f, Params: params, Combiner: comb}, tables: slices.Clone(tables)}
				want := o.run(challenges)
				for _, workers := range []int{0, 2, -1} {
					name := fmt.Sprintf("logu=%d/%T%v/%s/workers=%d", logu, comb, comb, dn.name, workers)
					cfg := Config{Field: f, Params: params, Combiner: comb, Workers: workers}
					live := checkSharedScan(t, name, cfg, tables, challenges, want)
					sparse := u >= sparseMinEntries && sparseShare*dn.live <= npairs
					if live.Sparse() != sparse {
						t.Fatalf("%s: scan sparse %v, want %v", name, live.Sparse(), sparse)
					}
					if sparse && len(live.Indices()) != dn.live {
						t.Fatalf("%s: scan found %d live pairs, want %d", name, len(live.Indices()), dn.live)
					}
					for _, s := range []int{2, 4} {
						checkSplit(t, fmt.Sprintf("%s/S=%d", name, s), cfg, tables, challenges, s, want, flatPartial(cfg))
					}
					checkChunked(t, name, cfg, tables, challenges, want, live, 2, 4, 64)
				}
			}
		}
	}
	checkChunkedEll4(t)
}

// checkChunkedEll4 holds ℓ = 4 tables of 256 entries, every third block
// of 16 zero and table 1's blocks zero where table 0's are not, in
// chunks of 4 and 16, and plays them against the flat prover for every
// combiner and worker count. A split prover needs ℓ = 2, so only the
// whole prover plays.
func checkChunkedEll4(t *testing.T) {
	f := f61
	params, err := lde.NewParams(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(4)
	tables := [][]field.Elem{f.RandVec(rng, int(params.U)), f.RandVec(rng, int(params.U))}
	for b := 0; b < int(params.U)/16; b++ {
		if b%3 == 0 {
			clear(tables[0][16*b : 16*(b+1)])
		}
		if b%3 == 1 {
			clear(tables[1][16*b : 16*(b+1)])
		}
	}
	challenges := f.RandVec(rng, params.D)
	for _, comb := range []Combiner{Power{K: 2}, Power{K: 3}, Product{}, PolyFn{H: poly.Poly{5, 3, 0, 2}}} {
		for _, workers := range []int{0, 2} {
			name := fmt.Sprintf("ℓ=4/%T%v/workers=%d", comb, comb, workers)
			cfg := Config{Field: f, Params: params, Combiner: comb, Workers: workers}
			tabs := tables[:comb.Arity()]
			p, err := newScanned(cfg, tabs...)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want, err := play(cfg, []*Prover{p}, challenges)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			checkChunked(t, name, cfg, tabs, challenges, want, ScanLivePairs(4, workers, flats(tabs)...), 4, 16)
			if _, err := NewPartialProver(cfg, 0, params.U/2, LivePairs{}, chunkTables(tabs, 4)...); err == nil {
				t.Fatalf("%s: a partial prover at ℓ=4 accepted", name)
			}
		}
	}
}

// transcript is a conversation's round messages and final leaves.
type transcript struct {
	msgs   [][]field.Elem
	leaves [][]field.Elem // leaves[k]: slice k's Leaves()
}

func (tr transcript) String() string { return fmt.Sprint(tr.msgs, tr.leaves) }

// run plays the oracle's whole conversation; its leaves are the fully
// folded tables, one entry per table.
func (o *oracle) run(challenges []field.Elem) transcript {
	var tr transcript
	for j := 0; j < o.cfg.Params.D; j++ {
		tr.msgs = append(tr.msgs, o.message())
		o.fold(challenges[j])
	}
	leaf := make([]field.Elem, len(o.tables))
	for i, tab := range o.tables {
		leaf[i] = tab[0]
	}
	tr.leaves = [][]field.Elem{leaf}
	return tr
}

// play runs the conversation of provers — one whole prover, or the
// partial provers of consecutive slices, whose messages sumPartials
// sums — and returns its messages and each prover's leaves.
func play(cfg Config, provers []*Prover, challenges []field.Elem) (transcript, error) {
	var tr transcript
	for j := 0; j < provers[0].cfg.Params.D; j++ {
		parts := make([][]field.Elem, len(provers))
		for k, p := range provers {
			m, err := p.RoundMessage()
			if err != nil {
				return tr, fmt.Errorf("round %d: %w", j+1, err)
			}
			parts[k] = m
		}
		tr.msgs = append(tr.msgs, sumPartials(cfg.Field, parts))
		for _, p := range provers {
			if err := p.Fold(challenges[j]); err != nil {
				return tr, fmt.Errorf("fold %d: %w", j+1, err)
			}
		}
	}
	for _, p := range provers {
		leaves, err := p.Leaves()
		if err != nil {
			return tr, err
		}
		tr.leaves = append(tr.leaves, leaves)
	}
	return tr, nil
}

// checkSharedScan scans tables once and hands the scan to two provers
// one after the other, then to two provers at once; every conversation
// must equal the oracle's, want. Neither the borrowed tables nor the
// scan's indices may be written. It returns the scan.
func checkSharedScan(t *testing.T, name string, cfg Config, tables [][]field.Elem, challenges []field.Elem, want transcript) LivePairs {
	t.Helper()
	orig := make([][]field.Elem, len(tables))
	for i, tab := range tables {
		orig[i] = slices.Clone(tab)
	}
	live := ScanLivePairs(cfg.Params.Ell, cfg.Workers, flats(tables)...)
	idx := slices.Clone(live.Indices())
	converse := func() (transcript, error) {
		p, err := NewProver(cfg, live, flats(tables)...)
		if err != nil {
			return transcript{}, err
		}
		if p.sparse != nil != live.Sparse() {
			return transcript{}, fmt.Errorf("prover sparse %v, scan sparse %v", p.sparse != nil, live.Sparse())
		}
		return play(cfg, []*Prover{p}, challenges)
	}
	var got [4]transcript
	var errs [4]error
	for i := 0; i < 2; i++ {
		got[i], errs[i] = converse()
	}
	var wg sync.WaitGroup
	for i := 2; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = converse()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("%s: prover %d: %v", name, i, errs[i])
		}
		if got[i].String() != want.String() {
			t.Fatalf("%s: prover %d: transcript\n%v\noracle\n%v", name, i, got[i], want)
		}
	}
	for i, tab := range tables {
		if !slices.Equal(tab, orig[i]) {
			t.Fatalf("%s: table %d was written", name, i)
		}
	}
	if !slices.Equal(live.Indices(), idx) {
		t.Fatalf("%s: the shared scan's indices were written", name)
	}
	return live
}

// flatPartial builds the partial prover of a slice over its flat tables
// and their own scan.
func flatPartial(cfg Config) func(lo, hi uint64, sub [][]field.Elem) (*Prover, error) {
	return func(lo, hi uint64, sub [][]field.Elem) (*Prover, error) {
		flat := flats(sub)
		return NewPartialProver(cfg, lo, hi, ScanLivePairs(2, cfg.Workers, flat...), flat...)
	}
}

// TestAppendLiveCountsLimit: AppendLiveCounts lists a table's live pairs
// after dst while at most limit are live, and past that returns dst as
// given; its count is every live pair's either way.
func TestAppendLiveCountsLimit(t *testing.T) {
	rng := field.NewSplitMix64(77)
	table := make([]int64, 1<<10)
	var want []uint32
	for w := 0; w < len(table)/2; w++ {
		if rng.Uint64()%5 == 0 {
			table[2*w+int(rng.Uint64()%2)] = int64(rng.Uint64()%200) - 100 | 1
			want = append(want, uint32(1000+w))
		}
	}
	if got, _ := AppendLiveCounts(nil, 0, table, len(want)-1); got != nil {
		t.Fatalf("over the limit, a nil dst came back as %d entries, not nil", len(got))
	}
	dst := []uint32{7}
	for _, limit := range []int{-1, 0, len(want) - 1, len(want), len(table) / 2} {
		got, n := AppendLiveCounts(dst, 1000, table, limit)
		if n != len(want) {
			t.Fatalf("limit %d: counted %d live pairs, want %d", limit, n, len(want))
		}
		if wantList := append([]uint32{7}, want...); n > limit && !slices.Equal(got, dst) || n <= limit && !slices.Equal(got, wantList) {
			t.Fatalf("limit %d of %d live pairs: listed %d entries after dst", limit, n, len(got)-1)
		}
	}
}

// chunkTables holds each of tables in chunks of width entries, every
// all-zero chunk nil.
func chunkTables(tables [][]field.Elem, width int) []Chunked {
	out := make([]Chunked, len(tables))
	for t, table := range tables {
		out[t].Width = width
		for lo := 0; lo < len(table); lo += width {
			ch := table[lo : lo+width]
			if !slices.ContainsFunc(ch, func(e field.Elem) bool { return e != 0 }) {
				ch = nil
			}
			out[t].Chunks = append(out[t].Chunks, ch)
		}
	}
	return out
}

// asCounts returns tabs as tables of counts standing for the same
// elements: an element above p/2 as the negative count e − p, every
// other as itself.
func asCounts(f field.Field, tabs []Chunked) []Counts {
	out := make([]Counts, len(tabs))
	for t, tab := range tabs {
		out[t] = Counts{Width: tab.Width, Chunks: make([][]int64, len(tab.Chunks))}
		for k, ch := range tab.Chunks {
			if ch == nil {
				continue
			}
			cs := make([]int64, len(ch))
			for i, e := range ch {
				cs[i] = f.Centered(e)
			}
			out[t].Chunks[k] = cs
		}
	}
	return out
}

// chunkScans returns the live-pair scans of tabs: ScanLivePairs over the
// chunks and, for one table at ℓ = 2, last, the scan assembled from each
// live chunk's run of counts (AppendLiveCounts, LivePairsFromRuns), as a
// dataset engine assembles it.
func chunkScans(cfg Config, tabs []Chunked) []LivePairs {
	scans := []LivePairs{ScanLivePairs(cfg.Params.Ell, cfg.Workers, tabs...)}
	if len(tabs) != 1 || cfg.Params.Ell != 2 {
		return scans
	}
	tab := asCounts(cfg.Field, tabs)[0]
	var runs [][]uint32
	total := 0
	for k, ch := range tab.Chunks {
		if ch != nil {
			run, n := AppendLiveCounts(nil, k*tab.Width/2, ch, tab.Width/2)
			runs, total = append(runs, run), total+n
		}
	}
	return append(scans, LivePairsFromRuns(2, tab.Len(), total, runs))
}

// checkChunked holds tables in chunks of each width, all-zero chunks nil,
// so that a nil chunk may sit beside a live one. Each scan chunkScans
// finds must equal live, the flat tables' scan, and a prover over the
// chunks and the last of them — whole, over the chunks as counts (half
// of them negative), and at ℓ = 2 split S = 2 with each slice chunked
// alone — must play the conversation want.
func checkChunked(t *testing.T, name string, cfg Config, tables [][]field.Elem, challenges []field.Elem, want transcript, live LivePairs, widths ...int) {
	t.Helper()
	for _, width := range widths {
		cname := fmt.Sprintf("%s/chunks of %d", name, width)
		tabs := chunkTables(tables, width)
		scans := chunkScans(cfg, tabs)
		for _, got := range scans {
			if got.Sparse() != live.Sparse() || got.Len() != live.Len() || !slices.Equal(got.Indices(), live.Indices()) {
				t.Fatalf("%s: chunked scan (sparse %v, %d pairs) differs from the flat scan (sparse %v, %d pairs)",
					cname, got.Sparse(), got.Len(), live.Sparse(), live.Len())
			}
		}
		counts := asCounts(cfg.Field, tabs)
		if got := ScanLivePairs(cfg.Params.Ell, cfg.Workers, counts...); got.Sparse() != live.Sparse() || !slices.Equal(got.Indices(), live.Indices()) {
			t.Fatalf("%s: scan of the counts (sparse %v, %d pairs) differs from the flat scan", cname, got.Sparse(), got.Len())
		}
		pe, err := NewProver(cfg, scans[len(scans)-1], tabs...)
		if err != nil {
			t.Fatalf("%s: %v", cname, err)
		}
		pc, err := NewProver(cfg, scans[len(scans)-1], counts...)
		if err != nil {
			t.Fatalf("%s: %v", cname, err)
		}
		for _, p := range []*Prover{pe, pc} {
			tr, err := play(cfg, []*Prover{p}, challenges)
			if err != nil {
				t.Fatalf("%s: %v", cname, err)
			}
			if tr.String() != want.String() {
				t.Fatalf("%s: transcript\n%v\nwant\n%v", cname, tr, want)
			}
		}
		if cfg.Params.Ell != 2 {
			continue
		}
		checkSplit(t, cname+"/S=2", cfg, tables, challenges, 2, want, func(lo, hi uint64, sub [][]field.Elem) (*Prover, error) {
			tabs := chunkTables(sub, width)
			scans := chunkScans(cfg, tabs)
			return NewPartialProver(cfg, lo, hi, scans[len(scans)-1], tabs...)
		})
	}
}

// checkSplit plays the conversation of nslices partial provers, each
// built by newPart over its slice's tables, and compares the combined
// messages and the leaves with the oracle's: slice k's leaves are entry k
// of the oracle's tables after the head rounds. The borrowed tables may
// not be written.
func checkSplit(t *testing.T, name string, cfg Config, tables [][]field.Elem, challenges []field.Elem, nslices int, want transcript,
	newPart func(lo, hi uint64, sub [][]field.Elem) (*Prover, error)) {
	t.Helper()
	orig := make([][]field.Elem, len(tables))
	for i, tab := range tables {
		orig[i] = slices.Clone(tab)
	}
	width := cfg.Params.U / uint64(nslices)
	provers := make([]*Prover, nslices)
	for k := range provers {
		lo, hi := uint64(k)*width, uint64(k+1)*width
		sub := make([][]field.Elem, len(tables))
		for i, tab := range tables {
			sub[i] = tab[lo:hi]
		}
		var err error
		provers[k], err = newPart(lo, hi, sub)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	got, err := play(cfg, provers, challenges)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	head := len(got.msgs)
	if fmt.Sprint(got.msgs) != fmt.Sprint(want.msgs[:head]) {
		t.Fatalf("%s: messages %v, oracle %v", name, got.msgs, want.msgs[:head])
	}
	for i, tab := range tables {
		if !slices.Equal(tab, orig[i]) {
			t.Fatalf("%s: table %d was written", name, i)
		}
	}
	o := &oracle{cfg: cfg, tables: slices.Clone(tables)}
	for j := 0; j < head; j++ {
		o.fold(challenges[j])
	}
	for k, leaves := range got.leaves {
		for i, leaf := range leaves {
			if w := o.tables[i][k]; leaf != w {
				t.Fatalf("%s: slice %d leaf %d = %d, oracle %d", name, k, i, leaf, w)
			}
		}
	}
}
