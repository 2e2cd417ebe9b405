package engine_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/store"
	"repro/internal/stream"
)

// Budget geometry used throughout: u = 500 pads to 512 entries, and a
// dataset's resident tables cost TableCost: 8 bytes of counts per padded
// entry, plus 1 byte per entry for the live-pair lists.
const evictU = 500

var oneDataset = func() int64 {
	cost, err := engine.TableCost(evictU)
	if err != nil {
		panic(err)
	}
	return cost
}()

// TestBudgetAdmission: admission failures are typed, atomic, and leave
// the resident set intact.
func TestBudgetAdmission(t *testing.T) {
	if oneDataset != 512*8+512 {
		t.Fatalf("TableCost(%d) = %d, want 8 bytes of counts and 1 of live lists per padded entry", evictU, oneDataset)
	}
	// Without a data dir, the budget is a hard cap: nothing can be
	// evicted to make room.
	e := engine.New(f61, 0)
	e.SetBudget(oneDataset)
	if _, err := e.Open("a", evictU); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Open("b", evictU); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("over-budget open without a data dir = %v, want ErrBudget", err)
	}
	if got := e.ResidentBytes(); got != oneDataset {
		t.Fatalf("failed admission changed accounting: %d resident", got)
	}
	// A single dataset larger than the whole budget can never be
	// admitted, data dir or not.
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	e2.SetBudget(oneDataset / 2)
	if _, err := e2.Open("big", evictU); !errors.Is(err, engine.ErrBudget) {
		t.Fatalf("oversized dataset = %v, want ErrBudget", err)
	}
	// With a data dir, the same sequence succeeds by evicting LRU.
	e3 := engine.New(f61, 0)
	if err := e3.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	e3.SetBudget(oneDataset)
	if _, err := e3.Open("a", evictU); err != nil {
		t.Fatal(err)
	}
	if _, err := e3.Open("b", evictU); err != nil {
		t.Fatalf("open with eviction available: %v", err)
	}
	if got := e3.ResidentBytes(); got != oneDataset {
		t.Fatalf("resident bytes after eviction = %d, want %d", got, oneDataset)
	}
}

// TestZeroDatasetCheckpointIsHeader: a dataset whose counts returned to
// zero — every chunk it wrote still held — evicts to a header-sized
// checkpoint and rehydrates holding no chunk, answering as before.
func TestZeroDatasetCheckpointIsHeader(t *testing.T) {
	const u = 4 * engine.ChunkEntries
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	e.SetBudget(cost)
	ds, err := e.Open("zero", u)
	if err != nil {
		t.Fatal(err)
	}
	up := stream.UniformDeltas(u, 64, field.NewSplitMix64(52))
	down := make([]stream.Update, len(up))
	for i, x := range up {
		down[i] = stream.Update{Index: x.Index, Delta: -x.Delta}
	}
	for _, batch := range [][]stream.Update{up, down} {
		if err := ds.Ingest(batch); err != nil {
			t.Fatal(err)
		}
	}
	if held := engine.HeldChunks(ds); held == 0 {
		t.Fatal("the ingests wrote no chunk")
	}
	if _, err := e.Open("decoy", u); err != nil { // evicts "zero"
		t.Fatal(err)
	}
	if err := e.Persist(); err != nil { // waits out the eviction's save
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, store.DatasetFile("zero")))
	if err != nil {
		t.Fatal(err)
	}
	if header := len(store.Encode(&store.Checkpoint{})); info.Size() != int64(header) {
		t.Fatalf("the all-zero checkpoint is %d bytes, a header is %d", info.Size(), header)
	}
	snap, err := ds.SnapshotErr() // rehydrates, evicting the decoy
	if err != nil {
		t.Fatal(err)
	}
	if held := engine.HeldChunks(ds); held != 0 || !ds.Resident() {
		t.Fatalf("rehydrated holding %d chunks (resident: %v), want 0", held, ds.Resident())
	}
	if ds.Updates() != uint64(2*len(up)) || ds.Version() != 2 {
		t.Fatalf("rehydrated %d updates at version %d", ds.Updates(), ds.Version())
	}
	p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	conformance.Converse(t, p, conformance.Verifier(t, u, conformance.Cases[0], field.NewSplitMix64(601), append(up, down...)))
}

// TestPersistRecover: an engine restarted over the same data dir serves
// every checkpointed dataset — update counts survive without
// rehydration, queries verify against the original stream.
func TestPersistRecover(t *testing.T) {
	dir := t.TempDir()
	upsA := stream.UniformDeltas(evictU, 9, field.NewSplitMix64(50))
	upsB := stream.UnitIncrements(evictU, 700, field.NewSplitMix64(51))

	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	a, err := e.Open("alpha", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(upsA); err != nil {
		t.Fatal(err)
	}
	b, err := e.Open("beta", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(upsB); err != nil {
		t.Fatal(err)
	}
	if err := e.Persist(); err != nil {
		t.Fatal(err)
	}
	// Persist is incremental: a second call with nothing dirty is a no-op.
	if err := e.Persist(); err != nil {
		t.Fatal(err)
	}

	// "Crash": the old engine is simply abandoned. A fresh engine over
	// the same dir recovers both datasets.
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("recovered %d datasets, want 2", n)
	}
	if got := e2.Names(); len(got) != 2 || got[0] != "alpha" || got[1] != "beta" {
		t.Fatalf("recovered names = %v", got)
	}
	// Recover is idempotent.
	if n, err := e2.Recover(); err != nil || n != 0 {
		t.Fatalf("second Recover = (%d, %v), want (0, nil)", n, err)
	}
	for name, ups := range map[string][]stream.Update{"alpha": upsA, "beta": upsB} {
		ds, ok := e2.Get(name)
		if !ok {
			t.Fatalf("dataset %q missing after recovery", name)
		}
		if ds.Updates() != uint64(len(ups)) {
			t.Fatalf("%q recovered %d updates, want %d", name, ds.Updates(), len(ups))
		}
		snap, err := ds.SnapshotErr()
		if err != nil {
			t.Fatal(err)
		}
		p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		conformance.Converse(t, p, conformance.Verifier(t, evictU, conformance.Cases[0], field.NewSplitMix64(600), ups))
	}
}

// TestBackgroundCheckpointer: dirty datasets hit the disk within the
// interval, and Close stops the loop and flushes the rest.
func TestBackgroundCheckpointer(t *testing.T) {
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if err := e.StartCheckpointer(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := e.StartCheckpointer(time.Second); err == nil {
		t.Fatal("second StartCheckpointer accepted")
	}
	ds, err := e.Open("logs", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(evictU, 100, field.NewSplitMix64(60))); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background checkpointer wrote nothing within the deadline")
		}
		time.Sleep(time.Millisecond)
	}
	// More ingestion, then Close: the final flush must capture it.
	if err := ds.Ingest(stream.UnitIncrements(evictU, 50, field.NewSplitMix64(61))); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	ds2, ok := e2.Get("logs")
	if !ok {
		t.Fatal("dataset missing after recovery")
	}
	if ds2.Updates() != 150 {
		t.Fatalf("recovered %d updates, want 150 (final flush lost data)", ds2.Updates())
	}
}

// blockCheckpoint makes the checkpoint file path for a dataset
// unwritable by planting a directory where the file must be renamed —
// the portable stand-in for an unwritable data dir (chmod is useless
// under root). ckptFile is fileForName's output, hardcoded per name.
func blockCheckpoint(t *testing.T, dir, ckptFile string) {
	t.Helper()
	if err := os.Mkdir(filepath.Join(dir, ckptFile), 0o755); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointerAccumulatesFailures: the background checkpointer must
// retain *every* distinct failure, not just the last one — an early
// failure on dataset "a" must still be visible in Close's error after
// later ticks fail only on "b".
func TestCheckpointerAccumulatesFailures(t *testing.T) {
	const (
		aFile = "YQ.ckpt" // fileForName("a")
		bFile = "Yg.ckpt" // fileForName("b")
	)
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	blockCheckpoint(t, dir, aFile)
	a, err := e.Open("a", evictU)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Open("b", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(stream.UnitIncrements(evictU, 10, field.NewSplitMix64(70))); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(stream.UnitIncrements(evictU, 10, field.NewSplitMix64(71))); err != nil {
		t.Fatal(err)
	}
	if err := e.StartCheckpointer(2 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Phase 1: ticks fail on "a" (blocked) and succeed on "b". b's file
	// appearing proves at least one tick ran — and that tick recorded
	// a's failure.
	waitForFile := func(name string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && !fi.IsDir() {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("checkpoint %s never appeared", name)
			}
			time.Sleep(time.Millisecond)
		}
	}
	waitForFile(bFile)
	// b's file can appear while that tick is still inside Persist, before
	// it has tried "a" or recorded the failure. Dirty b once more and wait
	// for its file again: the tick that writes it started after the first
	// one returned, so a's failure is on record before "a" is unblocked.
	if err := os.Remove(filepath.Join(dir, bFile)); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(stream.UnitIncrements(evictU, 5, field.NewSplitMix64(74))); err != nil {
		t.Fatal(err)
	}
	waitForFile(bFile)
	// Phase 2: unblock "a", block "b"'s *next* save, dirty both. a's
	// file appearing proves a later tick ran clean on "a" while failing
	// on "b" — so with last-failure-only retention, a's earlier failure
	// would now be gone.
	if err := os.Remove(filepath.Join(dir, aFile)); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, bFile)); err != nil {
		t.Fatal(err)
	}
	blockCheckpoint(t, dir, bFile)
	if err := a.Ingest(stream.UnitIncrements(evictU, 5, field.NewSplitMix64(72))); err != nil {
		t.Fatal(err)
	}
	if err := b.Ingest(stream.UnitIncrements(evictU, 5, field.NewSplitMix64(73))); err != nil {
		t.Fatal(err)
	}
	waitForFile(aFile)

	err = e.Close()
	if err == nil {
		t.Fatal("Close reported no error despite failed background checkpoints")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"b"`) {
		t.Fatalf("Close error lost the recent failure on %q: %v", "b", err)
	}
	if !strings.Contains(msg, `"a"`) {
		t.Fatalf("Close error lost the earlier failure on %q (last-failure-only retention): %v", "a", err)
	}
}

// TestDropRemovesCheckpoint: Drop deletes the on-disk state too, so a
// dropped dataset does not resurrect on restart.
func TestDropRemovesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := e.Open("gone", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(evictU, 10, field.NewSplitMix64(62))); err != nil {
		t.Fatal(err)
	}
	if err := e.Persist(); err != nil {
		t.Fatal(err)
	}
	e.Drop("gone")
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("Drop left %d files in the data dir", len(ents))
	}
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := e2.Recover(); err != nil || n != 0 {
		t.Fatalf("Recover after Drop = (%d, %v), want (0, nil)", n, err)
	}
}

// TestRecoverSkipsDamage: a mangled checkpoint is reported but does not
// take down recovery of the healthy datasets.
func TestRecoverSkipsDamage(t *testing.T) {
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := e.Open("good", evictU)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(evictU, 10, field.NewSplitMix64(63))); err != nil {
		t.Fatal(err)
	}
	if err := e.Persist(); err != nil {
		t.Fatal(err)
	}
	// A torn file alongside it.
	if err := os.WriteFile(filepath.Join(dir, "YmFk.ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	n, err := e2.Recover()
	if n != 1 {
		t.Fatalf("recovered %d datasets, want 1", n)
	}
	if !errors.Is(err, engine.ErrPartialRecovery) {
		t.Fatalf("Recover = %v, want ErrPartialRecovery", err)
	}
	if _, ok := e2.Get("good"); !ok {
		t.Fatal("healthy dataset not recovered")
	}
}

// TestConcurrentEvictRehydrate hammers a budgeted durable engine from
// many goroutines — two datasets ping-ponging through a one-dataset
// budget while writers ingest, readers snapshot, and the background
// checkpointer runs. Meaningful mostly under -race; the final recovery
// proves no acknowledged batch was lost in any transition.
func TestConcurrentEvictRehydrate(t *testing.T) {
	const (
		writers    = 2
		iterations = 15
		batch      = 64
	)
	dir := t.TempDir()
	e := engine.New(f61, 2)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	e.SetBudget(oneDataset)
	if err := e.StartCheckpointer(time.Millisecond); err != nil {
		t.Fatal(err)
	}
	var dss [2]*engine.Dataset
	for i, name := range []string{"x", "y"} {
		ds, err := e.Open(name, evictU)
		if err != nil {
			t.Fatal(err)
		}
		dss[i] = ds
	}
	var wg sync.WaitGroup
	for di, ds := range dss {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(ds *engine.Dataset, seed uint64) {
				defer wg.Done()
				rng := field.NewSplitMix64(seed)
				for i := 0; i < iterations; i++ {
					if err := ds.Ingest(stream.UnitIncrements(evictU, batch, rng)); err != nil {
						t.Error(err)
						return
					}
				}
			}(ds, uint64(1000+10*di+w))
		}
		wg.Add(1)
		go func(ds *engine.Dataset) {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				snap, err := ds.SnapshotErr()
				if err != nil {
					t.Error(err)
					return
				}
				if why := torn(snap); why != "" {
					t.Error("snapshot tore across evict/rehydrate: " + why)
					return
				}
			}
		}(ds)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Nothing acknowledged may be missing after a restart.
	e2 := engine.New(f61, 0)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if n, err := e2.Recover(); err != nil || n != 2 {
		t.Fatalf("Recover = (%d, %v), want (2, nil)", n, err)
	}
	const want = writers * iterations * batch
	for _, name := range []string{"x", "y"} {
		ds, ok := e2.Get(name)
		if !ok {
			t.Fatalf("dataset %q missing", name)
		}
		if ds.Updates() != want {
			t.Fatalf("%q recovered %d updates, want %d (a batch was lost in an eviction race)", name, ds.Updates(), want)
		}
	}
}
