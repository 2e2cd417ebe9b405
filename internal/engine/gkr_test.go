package engine_test

// GKR/circuit workload tests: the engine contract (snapshot provers
// bit-identical to stream replay, surviving evict→rehydrate) extended to
// QueryCircuit, mirroring the fixed-kind tests in engine_test.go and
// evict_test.go.

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// circuitKinds are the registry families driven through QueryCircuit.
func circuitKinds() []struct {
	kind   engine.QueryKind
	params engine.QueryParams
} {
	return []struct {
		kind   engine.QueryKind
		params engine.QueryParams
	}{
		{engine.QueryCircuit, engine.QueryParams{Circuit: circuit.FamilyF2}},
		{engine.QueryCircuit, engine.QueryParams{Circuit: circuit.FamilyCount}},
		{engine.QueryCircuit, engine.QueryParams{Circuit: circuit.FamilyMatMul, A: 16}},
	}
}

// TestGKRSnapshotTranscriptsMatchReplay extends the engine's central
// contract to circuit queries: a GKR prover built from a snapshot (zero
// replay) holds a conversation bit-identical to one built by replaying
// the stream, for every family and worker count.
func TestGKRSnapshotTranscriptsMatchReplay(t *testing.T) {
	const u = 500 // deliberately not a power of two: exercises padding
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(44))
	for _, workers := range []int{0, 2, -1} {
		ds, err := engine.NewDataset(f61, u, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		snap := ds.Snapshot()
		for _, c := range circuitKinds() {
			seed := uint64(12_000 + uint64(len(c.params.Circuit)))
			pSnap, err := snap.NewProver(c.kind, c.params)
			if err != nil {
				t.Fatal(err)
			}
			want := runTranscript(t, u, c.kind, c.params, ups, seed, pSnap)
			pReplay, err := engine.NewReplayProver(f61, u, c.kind, c.params, ups, workers)
			if err != nil {
				t.Fatal(err)
			}
			got := runTranscript(t, u, c.kind, c.params, ups, seed, pReplay)
			if err := sameMsgs(want, got); err != nil {
				t.Errorf("%s workers=%d: snapshot/replay transcript differs: %v", c.params.Circuit, workers, err)
			}
		}
	}
}

// TestEvictRehydrateGKRTranscripts mirrors TestEvictRehydrateTranscripts
// for the circuit families: a GKR prover built from a snapshot that was
// evicted to disk and rehydrated is bit-identical in conversation to one
// from a never-evicted dataset.
func TestEvictRehydrateGKRTranscripts(t *testing.T) {
	ups := stream.UniformDeltas(evictU, 20, field.NewSplitMix64(45))
	for _, workers := range []int{0, 2, -1} {
		base, err := engine.NewDataset(f61, evictU, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := base.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		baseSnap := base.Snapshot()

		e := engine.New(f61, workers)
		if err := e.SetDataDir(t.TempDir()); err != nil {
			t.Fatal(err)
		}
		e.SetBudget(oneDataset)
		hot, err := e.Open("hot", evictU)
		if err != nil {
			t.Fatal(err)
		}
		if err := hot.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		decoy, err := e.Open("decoy", evictU) // admission evicts "hot"
		if err != nil {
			t.Fatal(err)
		}

		for _, c := range circuitKinds() {
			// Force an evict/rehydrate cycle before each query.
			if _, err := decoy.SnapshotErr(); err != nil {
				t.Fatal(err)
			}
			if hot.Resident() {
				t.Fatalf("%s: hot still resident after decoy touch", c.params.Circuit)
			}
			snap, err := hot.SnapshotErr()
			if err != nil {
				t.Fatalf("%s: rehydrate: %v", c.params.Circuit, err)
			}
			seed := uint64(13_000 + uint64(len(c.params.Circuit)))
			pBase, err := baseSnap.NewProver(c.kind, c.params)
			if err != nil {
				t.Fatal(err)
			}
			want := runTranscript(t, evictU, c.kind, c.params, ups, seed, pBase)
			pCold, err := snap.NewProver(c.kind, c.params)
			if err != nil {
				t.Fatal(err)
			}
			got := runTranscript(t, evictU, c.kind, c.params, ups, seed, pCold)
			if err := sameMsgs(want, got); err != nil {
				t.Errorf("%s workers=%d: evicted/rehydrated transcript differs: %v", c.params.Circuit, workers, err)
			}
		}
	}
}

// TestGKRUnknownFamily pins the typed error for a bad circuit name.
func TestGKRUnknownFamily(t *testing.T) {
	ds, err := engine.NewDataset(f61, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = ds.Snapshot().NewProver(engine.QueryCircuit, engine.QueryParams{Circuit: "NOPE"})
	if !errors.Is(err, circuit.ErrUnknownFamily) {
		t.Fatalf("err = %v, want circuit.ErrUnknownFamily", err)
	}
}
