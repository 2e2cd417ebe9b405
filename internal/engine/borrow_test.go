package engine_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// sumcheckKind reports whether c's conversation is (or ends in) a
// sum-check over the snapshot's tables: the seam kinds, F0 and Fmax.
func sumcheckKind(c conformance.Case) bool {
	return c.Seam() || c.Kind == engine.QueryF0 || c.Kind == engine.QueryFmax
}

// TestProversBorrowTables: every sum-check prover borrows the snapshot's
// table, and the version's opening, read-only. After an accepted
// conversation of every sum-check kind, and the posted proof of the one
// posted kind (SELF-JOIN SIZE), the snapshot's Counts are bit-for-bit
// what they were, and so is the opening a whole-table partial opening
// ships (the live pairs' values and the first message, built by the
// first opening), on a table sparse enough for the live-pair rounds and
// on a dense one.
func TestProversBorrowTables(t *testing.T) {
	const u = 1 << 10
	rng := field.NewSplitMix64(3101)
	for _, tc := range []struct {
		name string
		ups  []stream.Update
	}{
		{"sparse", stream.UnitIncrements(u, 16, rng)},
		{"dense", stream.UniformDeltas(u, 3, rng)},
	} {
		ds, err := engine.NewDataset(f61, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(tc.ups); err != nil {
			t.Fatal(err)
		}
		snap := ds.Snapshot()
		counts := slices.Clone(snap.Counts())
		opening := func() core.Msg {
			p, err := snap.NewPartialProver(engine.QuerySelfJoinSize, engine.QueryParams{}, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			m, err := p.Open()
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		memo := opening()
		for _, c := range conformance.Filter(sumcheckKind) {
			name := fmt.Sprintf("%s/%v", tc.name, c)
			p, err := snap.NewProver(c.Kind, c.Params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			conformance.Converse(t, p, conformance.Verifier(t, u, c, field.NewSplitMix64(31), tc.ups))
			if engine.CheckPosted(c.Kind) == nil {
				if _, err := snap.GenerateProof(c.Kind, c.Params); err != nil {
					t.Fatalf("%s: posted proof: %v", name, err)
				}
			}
			if !slices.Equal(snap.Counts(), counts) {
				t.Fatalf("%s: the prover wrote the snapshot's table", name)
			}
			if m := opening(); !slices.Equal(m.Ints, memo.Ints) || !slices.Equal(m.Elems, memo.Elems) {
				t.Fatalf("%s: the prover wrote the version's opening", name)
			}
		}
	}
}

// TestF2ConversationAllocations bounds what one serial SELF-JOIN SIZE
// conversation allocates on a sparse table, u = 2^16 with 2^10 updates.
// The verifier is built and fed before the count starts; the smallest of
// three runs is taken, since MemStats counts the whole process.
//
//   - cold: each run proves a fresh version (an ingest of +1 and −1 at
//     one index, outside the count), so the conversation pays the
//     version's live-pair scan: one chunk scan, of the chunk the ingest
//     touched, since every other chunk's list is memoized before the
//     first run. A prover that copied the table and folded all u entries
//     allocated 1 052 376 bytes; the conversation must stay under a
//     quarter of that.
//   - warm: each run proves the same snapshot again, whose scan and
//     opening are already memoized, so it gathers nothing and allocates
//     only the prover's own buffers: 28 bytes per live pair for the
//     sparse rounds (the regrouped indices, 4, the pairs, 16, and the
//     folded entries, 8), the two dense buffers of 2^11 and 2^10 entries
//     (24 KiB) from the fold that leaves more than a quarter of the pairs
//     live, and 12 KiB of messages and headers. An O(u) allocation on
//     this path fails it, and so do a scan and a second gather; a
//     prover that gathered its own copy and made a dense table per round
//     allocated 69 160 bytes.
func TestF2ConversationAllocations(t *testing.T) {
	const u, n = 1 << 16, 1 << 10
	ups := stream.UnitIncrements(u, n, field.NewSplitMix64(3102))
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	// allocated returns the bytes the smallest of three conversations
	// allocated, each on the snapshot next returns.
	allocated := func(next func() *engine.Snapshot) uint64 {
		best := ^uint64(0)
		for run := 0; run < 3; run++ {
			snap := next()
			v := conformance.Verifier(t, u, conformance.Cases[0], field.NewSplitMix64(uint64(run)), ups)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := core.Run(p, v); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	t.Run("cold", func(t *testing.T) {
		engine.LivePairsOf(ds.Snapshot())
		scans := engine.LiveScans(ds)
		best := allocated(func() *engine.Snapshot {
			for _, d := range []int64{1, -1} {
				if err := ds.Ingest([]stream.Update{{Index: 0, Delta: d}}); err != nil {
					t.Fatal(err)
				}
			}
			return ds.Snapshot()
		})
		if got := engine.LiveScans(ds) - scans; got != 3 {
			t.Fatalf("three conversations on one-chunk-fresh versions ran %d chunk scans, want 3", got)
		}
		const limit = 1052376 / 4
		t.Logf("cold F2 conversation at u = 2^16, n = 2^10: %d bytes allocated", best)
		if best > limit {
			t.Fatalf("cold F2 conversation allocated %d bytes, want ≤ %d", best, limit)
		}
	})
	t.Run("warm", func(t *testing.T) {
		snap := ds.Snapshot()
		p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		conformance.Converse(t, p, conformance.Verifier(t, u, conformance.Cases[0], field.NewSplitMix64(9), ups))
		live, counts := 0, snap.Counts()
		for w := 0; w < u/2; w++ {
			if counts[2*w]|counts[2*w+1] != 0 {
				live++
			}
		}
		scans := engine.LiveScans(ds)
		best := allocated(func() *engine.Snapshot { return snap })
		if got := engine.LiveScans(ds) - scans; got != 0 {
			t.Fatalf("conversations on a memoized version ran %d live-pair scans", got)
		}
		limit := uint64(28*live + 36<<10)
		t.Logf("warm F2 conversation at u = 2^16, n = 2^10 (%d live pairs): %d bytes allocated", live, best)
		if best > limit {
			t.Fatalf("warm F2 conversation allocated %d bytes, want ≤ %d", best, limit)
		}
	})
}
