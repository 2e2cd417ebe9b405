package sip_test

import (
	"errors"
	"testing"

	"repro/sip"
)

// TestEngineDurableBudgeted drives the public durability surface: a
// budget below the working set forces LRU eviction to the data dir,
// queries against evicted datasets still verify, admission past the
// budget fails with the typed sip.ErrBudget, and a fresh engine over
// the same dir recovers everything.
func TestEngineDurableBudgeted(t *testing.T) {
	f := sip.Mersenne()
	const u = 1 << 9 // pads to itself: one dataset = 512*22-16 resident bytes
	dir := t.TempDir()

	eng := sip.NewEngine(f, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	eng.SetBudget(512 * 22)

	rng := sip.NewSeededRNG(7)
	var ups []sip.Update
	for i := 0; i < 2000; i++ {
		ups = append(ups, sip.Update{Index: rng.Uint64() % u, Delta: 1})
	}
	v := observedVerifier(t, f, u, sip.QuerySelfJoinSize, sip.QueryParams{}, sip.NewSeededRNG(8), ups)

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
	mem.SetBudget(512 * 22)
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
