package engine_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// freshOpening is what a slice owner's partial opening of Fk over counts
// holds when computed afresh from the counts' field image, with no engine
// code: the version, then the live pairs' global indices (the slice's
// first pair is pair first); the partial claim, g_1(0..k) and the live
// pairs' values.
func freshOpening(counts []int64, first uint64, k int, version uint64) core.Msg {
	elems := make([]field.Elem, len(counts))
	f61.FromInt64Slice(elems, counts)
	m := core.Msg{Ints: []uint64{version}}
	g := make([]field.Elem, k+1)
	var pairs []field.Elem
	for w := 0; w < len(elems)/2; w++ {
		a, b := elems[2*w], elems[2*w+1]
		if a|b == 0 {
			continue
		}
		m.Ints = append(m.Ints, first+uint64(w))
		pairs = append(pairs, a, b)
		for c := range g {
			line := f61.Add(a, f61.Mul(f61.Reduce(uint64(c)), f61.Sub(b, a)))
			g[c] = f61.Add(g[c], f61.Pow(line, uint64(k)))
		}
	}
	m.Elems = append(append([]field.Elem{f61.Add(g[0], g[1])}, g...), pairs...)
	return m
}

// openingTable returns updates that leave a sparse table of u entries
// with, in its second chunk, a chunk too dense to keep a live list of
// its own and the counts p, −p (a dead pair), 2^62 and −2^62, which a
// prover reads through the chunk's reduced copy.
func openingTable(u uint64, rng field.RNG) []stream.Update {
	p := int64(f61.Modulus())
	const at = engine.ChunkEntries
	ups := stream.UnitIncrements(u, 40, rng)
	for _, up := range stream.UnitIncrements(engine.ChunkEntries, 1200, rng) {
		ups = append(ups, stream.Update{Index: at + up.Index, Delta: up.Delta})
	}
	return append(ups, stream.Update{Index: at + 10, Delta: p}, stream.Update{Index: at + 11, Delta: -p},
		stream.Update{Index: at + 16, Delta: 1 << 62}, stream.Update{Index: at + 19, Delta: -1 << 62})
}

// TestOpeningMemo: a sealed version's opening — its live pairs' values
// and each combiner's first message, which the version's first sparse
// prover builds and every later one borrows — equals a fresh gather and
// a fresh message. The table is sparse, with a chunk too dense to keep
// its own list and a chunk of counts of p or more (read through its
// reduced copy); it is proved whole and split S = 2. A slice owner's
// partial opening ships the opening's pairs, so each version's partial
// openings of F2 and F3 — the first builds the opening, the ones after a
// whole conversation borrow it — must each equal freshOpening. Last, the
// first proofs of a fresh version race: concurrent F2 and F3
// conversations, each equal to the replay reference, and the opening
// after them still equal to freshOpening.
func TestOpeningMemo(t *testing.T) {
	const u = 1 << 14 // four chunks
	ups := openingTable(u, field.NewSplitMix64(4801))
	for _, nslices := range []uint64{1, 2} {
		t.Run(fmt.Sprintf("S=%d", nslices), func(t *testing.T) {
			e := engine.New(f61, 2)
			for s := uint64(0); s < nslices; s++ {
				lo, hi := s*u/nslices, (s+1)*u/nslices
				var ds *engine.Dataset
				var err error
				if nslices == 1 {
					ds, err = e.Open("whole", u)
				} else {
					ds, err = e.OpenSlice(fmt.Sprintf("slice%d", s), u, lo, hi)
				}
				if err != nil {
					t.Fatal(err)
				}
				var part []stream.Update
				for _, up := range ups {
					if up.Index >= lo && up.Index < hi {
						part = append(part, up)
					}
				}
				if err := ds.Ingest(part); err != nil {
					t.Fatal(err)
				}
				snap := ds.Snapshot()
				counts := snap.Counts()
				for round := 0; round < 2; round++ {
					for _, c := range conformance.Cases[:2] {
						k := 2
						if c.Kind == engine.QueryFk {
							k = int(c.Params.K)
						}
						p, err := snap.NewPartialProver(c.Kind, c.Params, 1<<20)
						if err != nil {
							t.Fatal(err)
						}
						got, err := p.Open()
						if err != nil {
							t.Fatal(err)
						}
						want := freshOpening(counts, lo/2, k, snap.Version())
						if !slices.Equal(got.Ints, want.Ints) || !slices.Equal(got.Elems, want.Elems) {
							t.Fatalf("slice [%d, %d) %v, opening %d: %d ints, %d elems; want %d, %d",
								lo, hi, c, round, len(got.Ints), len(got.Elems), len(want.Ints), len(want.Elems))
						}
						if nslices == 1 && round == 0 {
							sp, err := snap.NewProver(c.Kind, c.Params)
							if err != nil {
								t.Fatal(err)
							}
							conformance.Converse(t, sp, conformance.Verifier(t, u, c, field.NewSplitMix64(5), ups))
						}
					}
				}
				if !slices.Equal(snap.Counts(), counts) {
					t.Fatal("a prover wrote the snapshot's counts")
				}
			}
		})
	}
	t.Run("race", func(t *testing.T) {
		ds, err := engine.NewDataset(f61, u, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		engine.LivePairsOf(ds.Snapshot())
		bump := []stream.Update{{Index: 7, Delta: 1}}
		if err := ds.Ingest(bump); err != nil { // a fresh version: no prover has opened it
			t.Fatal(err)
		}
		history := append(slices.Clone(ups), bump...)
		snap := ds.Snapshot()
		type conv struct {
			c         conformance.Case
			want, got []core.Msg
			err       error
		}
		var convs []*conv
		for i := 0; i < 4; i++ {
			c := conformance.Cases[i%2]
			convs = append(convs, &conv{c: c, want: conformance.Reference(t, u, c, 11, history)})
		}
		var wg sync.WaitGroup
		for _, cv := range convs {
			p, err := snap.NewProver(cv.c.Kind, cv.c.Params)
			if err != nil {
				t.Fatal(err)
			}
			rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, cv.c, field.NewSplitMix64(11), history)}
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, cv.err = core.Run(p, rec)
				cv.got = rec.Msgs
			}()
		}
		wg.Wait()
		for _, cv := range convs {
			if cv.err != nil {
				t.Fatalf("%v: %v", cv.c, cv.err)
			}
			if err := conformance.Same(cv.got, cv.want); err != nil {
				t.Fatalf("%v: transcript differs from the reference: %v", cv.c, err)
			}
		}
		p, err := snap.NewPartialProver(engine.QuerySelfJoinSize, engine.QueryParams{}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		got, err := p.Open()
		if err != nil {
			t.Fatal(err)
		}
		want := freshOpening(snap.Counts(), 0, 2, snap.Version())
		if !slices.Equal(got.Ints, want.Ints) || !slices.Equal(got.Elems, want.Elems) {
			t.Fatal("the opening the racing provers built differs from a fresh one")
		}
	})
}
