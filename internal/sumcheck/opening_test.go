package sumcheck

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
)

// TestOpeningBuiltOnce: provers racing on one fresh scan build its
// opening once and borrow it. Four F2 and four F3 provers over one
// sparse table open at once; every one of them reads the same packed
// pairs (one backing array, the opening's), the opening keeps one first
// message per combiner, and each prover plays the conversation a prover
// over a fresh scan of its own plays. The opening is unchanged after
// every conversation, and a prover that asks it for other tables, or
// for another field, is refused.
func TestOpeningBuiltOnce(t *testing.T) {
	const u = 1 << 12
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(4901)
	tables := densityTables(f61, u, 1, 200, rng)
	challenges := f61.RandVec(rng, params.D)
	live := ScanLivePairs(2, 0, flats(tables)...)
	if !live.Sparse() {
		t.Fatal("the table is not sparse")
	}
	cfgs := []Config{
		{Field: f61, Params: params, Combiner: Power{K: 2}, Workers: 2},
		{Field: f61, Params: params, Combiner: Power{K: 3}},
	}
	const each = 4
	var wg sync.WaitGroup
	got := make([]transcript, 2*each)
	packed := make([][][]field.Elem, 2*each)
	errs := make([]error, 2*each)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := NewProver(cfgs[i%2], live, flats(tables)...)
			if err != nil {
				errs[i] = err
				return
			}
			_, packed[i], _ = p.Pairs()
			got[i], errs[i] = play(cfgs[i%2], []*Prover{p}, challenges)
		}()
	}
	wg.Wait()
	op := live.open
	memo := slices.Clone(op.pairs[0])
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("prover %d: %v", i, errs[i])
		}
		if &packed[i][0][0] != &op.pairs[0][0] {
			t.Fatalf("prover %d packed the pairs itself instead of borrowing the opening's", i)
		}
		fresh, err := newScanned(cfgs[i%2], tables...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := play(cfgs[i%2], []*Prover{fresh}, challenges)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].String() != want.String() {
			t.Fatalf("prover %d (%v): transcript\n%v\nfresh scan's\n%v", i, cfgs[i%2].Combiner, got[i], want)
		}
		if first := op.first[cfgs[i%2].Combiner]; first == nil || !slices.Equal(first.msg, want.msgs[0]) {
			t.Fatalf("prover %d (%v): the opening's first message is not the fresh one", i, cfgs[i%2].Combiner)
		}
	}
	if len(op.first) != 2 {
		t.Fatalf("the opening keeps %d first messages, want one per combiner", len(op.first))
	}
	if !slices.Equal(op.pairs[0], memo) {
		t.Fatal("a prover wrote the opening's pairs")
	}
	two := Config{Field: f61, Params: params, Combiner: Product{}}
	if _, err := NewProver(two, live, Flat(tables[0]), Flat(tables[0])); err == nil {
		t.Fatal("a prover over two tables borrowed a one-table opening")
	}
	small, err := field.New(1<<31 - 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProver(Config{Field: small, Params: params, Combiner: Power{K: 2}}, live, flats(tables)...); err == nil {
		t.Fatal("a prover in another field borrowed the opening")
	}
}

// FuzzRegroup plays the one-table regroup kernel against the generic
// one on a sorted list of distinct pair indices decoded from the input
// (each step 1 + a byte, so that siblings, neighbours and gaps all
// occur), out of place and in place: both must list the same next-table
// pairs, holding the same values.
func FuzzRegroup(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0, 0, 0, 0, 1, 1, 2, 200})
	f.Add([]byte{1, 0, 0, 255, 3, 0, 7, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := make([]uint32, len(data))
		folded := make([]field.Elem, len(data))
		w := uint32(0)
		for k, b := range data {
			if k > 0 {
				w += 1 + uint32(b)
			} else {
				w = uint32(b)
			}
			src[k] = w
			var buf [8]byte
			binary.LittleEndian.PutUint64(buf[:], uint64(k)*0x9e3779b97f4a7c15^uint64(b))
			folded[k] = field.Elem(binary.LittleEndian.Uint64(buf[:]) % f61.Modulus())
		}
		wantIdx := make([]uint32, len(src))
		wantPairs := [][]field.Elem{make([]field.Elem, 2*len(src))}
		n := regroup(wantIdx, src, wantPairs, [][]field.Elem{folded})
		for _, inPlace := range []bool{false, true} {
			dst, from := make([]uint32, len(src)), src
			if inPlace {
				dst = slices.Clone(src)
				from = dst
			}
			pairs := make([]field.Elem, 2*len(src))
			for i := range pairs { // leftovers of an earlier round
				pairs[i] = field.Elem(i + 1)
			}
			name := fmt.Sprintf("in place %v", inPlace)
			if got := regroup1(dst, from, pairs, folded); got != n {
				t.Fatalf("%s: regroup1 listed %d pairs, regroup %d", name, got, n)
			}
			if !slices.Equal(dst[:n], wantIdx[:n]) || !slices.Equal(pairs[:2*n], wantPairs[0][:2*n]) {
				t.Fatalf("%s: regroup1 gave %v %v, regroup %v %v", name, dst[:n], pairs[:2*n], wantIdx[:n], wantPairs[0][:2*n])
			}
		}
	})
}
