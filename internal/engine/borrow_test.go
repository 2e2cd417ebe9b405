package engine_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// sumcheckKinds are the kinds whose conversation is (or ends in) a
// sum-check over the snapshot's tables.
var sumcheckKinds = []kindCase{
	{engine.QuerySelfJoinSize, engine.QueryParams{}},
	{engine.QueryFk, engine.QueryParams{K: 3}},
	{engine.QueryRangeSum, engine.QueryParams{A: 3, B: 200}},
	{engine.QueryF0, engine.QueryParams{}},
	{engine.QueryFmax, engine.QueryParams{}},
}

// TestProversBorrowTables: every sum-check prover borrows the snapshot's
// table read-only. After an accepted conversation and a posted proof of
// every sum-check kind, the snapshot's Elems and Counts are bit-for-bit
// what they were, on a table sparse enough for the live-pair rounds and
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
		elems, counts := slices.Clone(snap.Elems()), slices.Clone(snap.Counts())
		for _, c := range sumcheckKinds {
			name := fmt.Sprintf("%s/kind=%d", tc.name, c.kind)
			if _, err := converseRecorded(snap, u, c.kind, c.params, 31, tc.ups); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if _, err := snap.GenerateProof(c.kind, c.params); err != nil {
				t.Fatalf("%s: posted proof: %v", name, err)
			}
			if !slices.Equal(snap.Elems(), elems) || !slices.Equal(snap.Counts(), counts) {
				t.Fatalf("%s: the prover wrote the snapshot's table", name)
			}
		}
	}
}

// TestF2ConversationAllocations bounds what one serial SELF-JOIN SIZE
// conversation allocates on a sparse table: at u = 2^16 with 2^10
// updates, a prover that copied the table and folded all u entries
// allocated 1 052 376 bytes; the live-pair rounds must stay under a
// quarter of that. The verifier is built and fed before the count
// starts; the smallest of three runs is taken, since MemStats counts the
// whole process.
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
	snap := ds.Snapshot()
	best := ^uint64(0)
	for run := 0; run < 3; run++ {
		v, obs, err := newVerifier(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, field.NewSplitMix64(uint64(run)))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
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
	const limit = 1052376 / 4
	t.Logf("F2 conversation at u = 2^16, n = 2^10: %d bytes allocated", best)
	if best > limit {
		t.Fatalf("F2 conversation allocated %d bytes, want ≤ %d", best, limit)
	}
}
