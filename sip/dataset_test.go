package sip_test

import (
	"errors"
	"testing"

	"repro/sip"
)

// TestDatasetIngestOnceProveMany is the package-level amortization
// contract: one dataset serves many verified queries of different kinds,
// ingestion continues between queries, and nothing is re-streamed into
// the prover.
func TestDatasetIngestOnceProveMany(t *testing.T) {
	f := sip.Mersenne()
	const u = 1 << 10
	rng := sip.NewSeededRNG(2024)
	var ups []sip.Update
	for i := 0; i < 4096; i++ {
		ups = append(ups, sip.Update{Index: rng.Uint64() % u, Delta: 1})
	}

	ds, err := sip.NewDataset(f, u, -1)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()

	// Several queries of different kinds against the same snapshot.
	f2proto, err := sip.NewSelfJoinSize(f, u)
	if err != nil {
		t.Fatal(err)
	}
	hhproto, err := sip.NewHeavyHitters(f, u)
	if err != nil {
		t.Fatal(err)
	}
	f2v := f2proto.NewVerifier(sip.NewSeededRNG(1))
	hhv := hhproto.NewVerifier(sip.NewSeededRNG(2))
	for _, up := range ups {
		if err := f2v.Observe(up); err != nil {
			t.Fatal(err)
		}
		if err := hhv.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	p, err := snap.NewProver(sip.QuerySelfJoinSize, sip.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sip.Run(p, f2v); err != nil {
		t.Fatalf("F2 rejected: %v", err)
	}
	if err := hhv.SetQuery(0.01); err != nil {
		t.Fatal(err)
	}
	hp, err := snap.NewProver(sip.QueryHeavyHitters, sip.QueryParams{Phi: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sip.Run(hp, hhv); err != nil {
		t.Fatalf("heavy hitters rejected: %v", err)
	}

	// Ingest more, snapshot again, and verify against the grown stream;
	// the old snapshot's conversation above was unaffected.
	extra := []sip.Update{{Index: 7, Delta: 3}, {Index: 9, Delta: 1}}
	if err := ds.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	all := append(append([]sip.Update(nil), ups...), extra...)
	v2 := f2proto.NewVerifier(sip.NewSeededRNG(3))
	for _, up := range all {
		if err := v2.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	p2, err := ds.Snapshot().NewProver(sip.QuerySelfJoinSize, sip.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sip.Run(p2, v2); err != nil {
		t.Fatalf("F2 after further ingestion rejected: %v", err)
	}
}

// TestEngineNamedDatasets: the registry is create-or-attach.
func TestEngineNamedDatasets(t *testing.T) {
	eng := sip.NewEngine(sip.Mersenne(), 0)
	a, err := eng.Open("clickstream", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest([]sip.Update{{Index: 1, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	b, err := eng.Open("clickstream", 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if b.Updates() != 1 {
		t.Fatalf("attached dataset has %d updates, want 1", b.Updates())
	}
	if _, err := eng.Open("clickstream", 1<<13); err == nil {
		t.Fatal("universe mismatch accepted")
	}
}

// TestEngineDurableBudgeted drives the public durability surface: a
// budget below the working set forces LRU eviction to the data dir,
// queries against evicted datasets still verify, admission past the
// budget fails with the typed sip.ErrBudget, and a fresh engine over
// the same dir recovers everything.
func TestEngineDurableBudgeted(t *testing.T) {
	f := sip.Mersenne()
	const u = 1 << 9 // pads to itself: one dataset = 512*9 resident bytes
	dir := t.TempDir()

	eng := sip.NewEngine(f, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	eng.SetBudget(512 * 9)

	rng := sip.NewSeededRNG(7)
	var ups []sip.Update
	for i := 0; i < 2000; i++ {
		ups = append(ups, sip.Update{Index: rng.Uint64() % u, Delta: 1})
	}
	proto, err := sip.NewSelfJoinSize(f, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(sip.NewSeededRNG(8))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}

	a, err := eng.Open("a", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open("b", u); err != nil { // evicts "a"
		t.Fatal(err)
	}
	if a.Resident() {
		t.Fatal("a still resident past the budget")
	}
	snap, err := a.SnapshotErr() // transparent rehydration
	if err != nil {
		t.Fatal(err)
	}
	p, err := snap.NewProver(sip.QuerySelfJoinSize, sip.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sip.Run(p, v); err != nil {
		t.Fatalf("F2 against a rehydrated dataset rejected: %v", err)
	}

	// The budget is Σ across the engine, not per dataset: a third
	// admission succeeds only by evicting, and with eviction disabled
	// (no data dir) it would fail — exercise the typed error via a
	// second, memory-only engine.
	mem := sip.NewEngine(f, 0)
	mem.SetBudget(512 * 9)
	if _, err := mem.Open("one", u); err != nil {
		t.Fatal(err)
	}
	if _, err := mem.Open("two", u); !errors.Is(err, sip.ErrBudget) {
		t.Fatalf("over-budget open = %v, want sip.ErrBudget", err)
	}

	// Restart: recover both datasets from disk.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	eng2 := sip.NewEngine(f, 0)
	if err := eng2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := eng2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d datasets, want 2", n)
	}
	a2, ok := eng2.Get("a")
	if !ok {
		t.Fatal("dataset a missing after recovery")
	}
	if a2.Updates() != uint64(len(ups)) {
		t.Fatalf("a recovered with %d updates, want %d", a2.Updates(), len(ups))
	}
}
