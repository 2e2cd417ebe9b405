package wire

import (
	"errors"
	"net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// recU pads to 512 entries; one dataset's resident tables cost 512*22-16
// bytes (engine.TableCost), so the budget unit used below holds one
// dataset and not two.
const (
	recU          = 500
	recOneDataset = 512 * 32
)

// ingestNamed attaches to a named dataset and uploads the stream,
// returning the dataset's update count after the last batch.
func ingestNamed(t *testing.T, addr, name string, ups []stream.Update) {
	t.Helper()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.OpenDataset(name, recU); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest(ups); err != nil {
		t.Fatal(err)
	}
}

// verifyF2Named attaches to a named dataset and runs a verified F2 query
// with a verifier that observed ups locally.
func verifyF2Named(t *testing.T, addr, name string, ups []stream.Update, seed uint64) {
	t.Helper()
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	count, err := client.OpenDataset(name, recU)
	if err != nil {
		t.Fatal(err)
	}
	if count != uint64(len(ups)) {
		t.Fatalf("dataset %q holds %d updates, want %d (re-ingestion should not be needed)", name, count, len(ups))
	}
	v, err := engine.NewStreamVerifier(f61, recU, QuerySelfJoinSize, QueryParams{}, field.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := client.Query(QuerySelfJoinSize, QueryParams{}, v); err != nil {
		t.Fatalf("query over %q rejected: %v", name, err)
	}
}

// TestCrashRecovery is the restart contract end to end over a real
// socket: a server with a data dir ingests two named datasets and
// checkpoints; the process "crashes" (listener torn down, no orderly
// engine shutdown); a fresh server over the same dir recovers both
// datasets and answers verified queries with no re-ingestion.
func TestCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	upsA := stream.UniformDeltas(recU, 40, field.NewSplitMix64(400))
	upsB := stream.UnitIncrements(recU, 900, field.NewSplitMix64(401))

	eng1 := engine.New(f61, 0)
	srv1 := &Server{F: f61, Engine: eng1, DataDir: dir}
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv1.Serve(ln1) }()
	addr1 := ln1.Addr().String()

	ingestNamed(t, addr1, "alpha", upsA)
	ingestNamed(t, addr1, "beta", upsB)
	if err := eng1.Persist(); err != nil {
		t.Fatal(err)
	}
	// Hard stop: close only the listener. No Server.Close, no final
	// persist — everything after the last checkpoint would be lost, which
	// is exactly the crash model.
	_ = ln1.Close()

	srv2 := &Server{F: f61, DataDir: dir}
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv2.Serve(ln2) }()
	defer srv2.Close()

	verifyF2Named(t, ln2.Addr().String(), "alpha", upsA, 402)
	verifyF2Named(t, ln2.Addr().String(), "beta", upsB, 403)
}

// TestServeSurvivesDamagedCheckpoint: one bit-rotted file in the data
// dir must not take the server down — the healthy datasets keep
// serving (engine skip semantics, honored by Serve's startup scan).
func TestServeSurvivesDamagedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	ups := stream.UniformDeltas(recU, 25, field.NewSplitMix64(420))
	eng1 := engine.New(f61, 0)
	if err := eng1.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := eng1.Open("good", recU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Persist(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "YmFk.ckpt"), []byte("bit rot"), 0o644); err != nil {
		t.Fatal(err)
	}

	addr, stop := startServerOpts(t, &Server{F: f61, DataDir: dir})
	defer stop()
	verifyF2Named(t, addr, "good", ups, 421)
}

// TestBudgetErrorOverWire: admission refusal reaches the client as the
// typed budget error, distinguishable from protocol failures.
func TestBudgetErrorOverWire(t *testing.T) {
	// No DataDir: the budget is a hard admission cap.
	addr, stop := startServerOpts(t, &Server{F: f61, MemBudget: recOneDataset})
	defer stop()

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if _, err := client.OpenDataset("first", recU); err != nil {
		t.Fatal(err)
	}
	_, err = client.OpenDataset("second", recU)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget open = %v, want wire.ErrBudget", err)
	}
}
