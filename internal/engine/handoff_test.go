package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/store"
	"repro/internal/stream"
)

// TestReleaseKeepsCheckpointDropDeletes pins the file-lifecycle split
// between the two removal paths: Drop deletes the checkpoint (the
// dataset is gone), Release leaves it (the dataset is moving).
func TestReleaseKeepsCheckpointDropDeletes(t *testing.T) {
	const u = 64
	dir := t.TempDir()
	eng := engine.New(f61, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"kept", "gone"} {
		ds, err := eng.Open(name, u)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(stream.UnitIncrements(u, 10, field.NewSplitMix64(7))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Release("kept"); err != nil {
		t.Fatal(err)
	}
	eng.Drop("gone")
	if _, err := os.Stat(filepath.Join(dir, store.DatasetFile("kept"))); err != nil {
		t.Errorf("Release must keep the checkpoint for the adopter: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, store.DatasetFile("gone"))); !os.IsNotExist(err) {
		t.Errorf("Drop must delete the checkpoint, stat err = %v", err)
	}
}

// TestAdoptRefusals: adopting over a live registration or without a
// checkpoint file fails loudly — two owners of one dataset must be
// impossible to create by accident.
func TestAdoptRefusals(t *testing.T) {
	const u = 64
	dir := t.TempDir()
	eng := engine.New(f61, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := eng.Open("live", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 5, field.NewSplitMix64(9))); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Adopt("live"); err == nil {
		t.Fatal("Adopt over a live registration must fail")
	}
	if _, err := eng.Adopt("no-such-checkpoint"); err == nil {
		t.Fatal("Adopt without a checkpoint file must fail")
	}
	if _, err := eng.Release("no-such-dataset"); err == nil {
		t.Fatal("Release of an unknown dataset must fail")
	}
}

// TestReleaseOfEvictedDataset: a dataset released while evicted needs
// no save (its tables were freed only after a durable checkpoint); the
// handoff must still carry every update.
func TestReleaseOfEvictedDataset(t *testing.T) {
	const u = 1 << 10
	srcDir, dstDir := t.TempDir(), t.TempDir()
	src := engine.New(f61, 0)
	if err := src.SetDataDir(srcDir); err != nil {
		t.Fatal(err)
	}
	ds, err := src.Open("cold", u)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(11))
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	// Evict it by opening a second dataset under a budget that fits one.
	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	src.SetBudget(cost + cost/2)
	if _, err := src.Open("warm", u); err != nil {
		t.Fatal(err)
	}
	if ds.Resident() {
		t.Fatal("test setup: dataset was not evicted")
	}
	n, err := src.Release("cold")
	if err != nil {
		t.Fatal(err)
	}
	if n != uint64(len(ups)) {
		t.Fatalf("Release of evicted dataset reported %d updates, want %d", n, len(ups))
	}
	file := store.DatasetFile("cold")
	if err := os.Rename(filepath.Join(srcDir, file), filepath.Join(dstDir, file)); err != nil {
		t.Fatal(err)
	}
	dst := engine.New(f61, 0)
	if err := dst.SetDataDir(dstDir); err != nil {
		t.Fatal(err)
	}
	if m, err := dst.Adopt("cold"); err != nil || m != n {
		t.Fatalf("Adopt = (%d, %v), want (%d, nil)", m, err, n)
	}
}

// TestReleasedNameTombstone: after Release, Open of the same name must
// fail with ErrReleased instead of silently creating a fresh empty
// dataset — the guard against a client whose router still routes to the
// source during a cross-process rebalance. Adopt clears the tombstone
// (the name came back); Drop is the operator's escape hatch.
func TestReleasedNameTombstone(t *testing.T) {
	const u = 64
	dir := t.TempDir()
	eng := engine.New(f61, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := eng.Open("moved", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 10, field.NewSplitMix64(11))); err != nil {
		t.Fatal(err)
	}
	n, err := eng.Release("moved")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Open("moved", u); !errors.Is(err, engine.ErrReleased) {
		t.Fatalf("Open of a released name = %v, want ErrReleased", err)
	}
	// Adopt brings the name back (checkpoint is still in this data dir)
	// and clears the tombstone: Open attaches again.
	if m, err := eng.Adopt("moved"); err != nil || m != n {
		t.Fatalf("Adopt = (%d, %v), want (%d, nil)", m, err, n)
	}
	ds2, err := eng.Open("moved", u)
	if err != nil {
		t.Fatalf("Open after Adopt = %v, want nil", err)
	}
	if got := ds2.Updates(); got != n {
		t.Fatalf("adopted dataset holds %d updates, want %d", got, n)
	}
	// Release again, then Drop the tombstoned name: the operator chose
	// to forget it, so a fresh Open may recreate it empty.
	if _, err := eng.Release("moved"); err != nil {
		t.Fatal(err)
	}
	eng.Drop("moved")
	ds3, err := eng.Open("moved", u)
	if err != nil {
		t.Fatalf("Open after Drop of tombstoned name = %v, want nil", err)
	}
	if got := ds3.Updates(); got != 0 {
		t.Fatalf("recreated dataset holds %d updates, want 0", got)
	}
}

// TestRecoverSkipsReleased: the checkpoint a Release leaves in the data
// dir belongs to the adopter. A Recover on the releasing engine must not
// register it again, or Open would hand back a dataset with two owners;
// the tombstone holds until Adopt clears it. Another engine over the
// same dir (a restart) recovers the file.
func TestRecoverSkipsReleased(t *testing.T) {
	const u = 64
	dir := t.TempDir()
	eng := engine.New(f61, 0)
	if err := eng.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := eng.Open("moved", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 10, field.NewSplitMix64(13))); err != nil {
		t.Fatal(err)
	}
	n, err := eng.Release("moved")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Recover(); got != 0 || err != nil {
		t.Fatalf("Recover after Release = (%d, %v), want (0, nil)", got, err)
	}
	if _, err := eng.Open("moved", u); !errors.Is(err, engine.ErrReleased) {
		t.Fatalf("Open after Release and Recover = %v, want ErrReleased", err)
	}
	if m, err := eng.Adopt("moved"); err != nil || m != n {
		t.Fatalf("Adopt = (%d, %v), want (%d, nil)", m, err, n)
	}
	if _, err := eng.Open("moved", u); err != nil {
		t.Fatalf("Open after Adopt = %v, want nil", err)
	}
	restarted := engine.New(f61, 0)
	if err := restarted.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if got, err := restarted.Recover(); got != 1 || err != nil {
		t.Fatalf("Recover on a fresh engine = (%d, %v), want (1, nil)", got, err)
	}
}
