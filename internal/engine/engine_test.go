package engine_test

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// torn reports how a snapshot disagrees with itself: its counts with its
// total, or with its live-pair index (when that lists the live pairs);
// "" when they agree. Its counts must stay below p in magnitude.
func torn(snap *engine.Snapshot) string {
	counts := snap.Counts()
	var total int64
	var live []uint32
	for w := 0; w < len(counts)/2; w++ {
		total += counts[2*w] + counts[2*w+1]
		if counts[2*w]|counts[2*w+1] != 0 {
			live = append(live, uint32(w))
		}
	}
	if total != snap.Total() {
		return fmt.Sprintf("Σcounts=%d but Total=%d", total, snap.Total())
	}
	if idx := engine.LivePairsOf(snap); idx.Sparse() && !slices.Equal(idx.Indices(), live) {
		return fmt.Sprintf("the live-pair index lists %d pairs, the counts hold %d", idx.Len(), len(live))
	}
	return ""
}

// TestSnapshotIsolation: a snapshot's view is frozen; later ingestion is
// visible only to later snapshots, and provers from the old snapshot
// still verify against the old stream.
func TestSnapshotIsolation(t *testing.T) {
	const u = 256
	first := stream.UniformDeltas(u, 9, field.NewSplitMix64(5))
	extra := stream.UnitIncrements(u, 300, field.NewSplitMix64(6))

	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(first); err != nil {
		t.Fatal(err)
	}
	s1 := ds.Snapshot()
	c1 := s1.Counts()[17]
	if err := ds.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	s2 := ds.Snapshot()

	if s1.Updates() != uint64(len(first)) {
		t.Fatalf("old snapshot grew: %d updates", s1.Updates())
	}
	if s1.Counts()[17] != c1 {
		t.Fatal("old snapshot's counts changed after ingest")
	}
	if s2.Updates() != uint64(len(first)+len(extra)) {
		t.Fatalf("new snapshot has %d updates, want %d", s2.Updates(), len(first)+len(extra))
	}

	// A prover from each snapshot verifies against the matching stream.
	for i, tc := range []struct {
		snap *engine.Snapshot
		ups  []stream.Update
	}{{s1, first}, {s2, append(append([]stream.Update(nil), first...), extra...)}} {
		v := conformance.Verifier(t, u, conformance.Cases[0], field.NewSplitMix64(900+uint64(i)), tc.ups)
		p, err := tc.snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(p, v); err != nil {
			t.Fatalf("snapshot %d rejected: %v", i, err)
		}
	}
}

// TestEngineOpenAttach: Open is create-or-attach, with the universe
// pinned at creation.
func TestEngineOpenAttach(t *testing.T) {
	e := engine.New(f61, 0)
	a, err := e.Open("logs", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Open("logs", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("re-open returned a different dataset")
	}
	if _, err := e.Open("logs", 1<<11); err == nil {
		t.Fatal("universe mismatch accepted")
	}
	if _, err := e.Open("", 1<<10); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, ok := e.Get("logs"); !ok {
		t.Fatal("Get missed an open dataset")
	}
	if names := e.Names(); len(names) != 1 || names[0] != "logs" {
		t.Fatalf("Names = %v", names)
	}
	e.Drop("logs")
	if _, ok := e.Get("logs"); ok {
		t.Fatal("Drop left the dataset registered")
	}
}

// TestConcurrentOpenSameName: racing Opens of one name must converge on
// a single dataset (admission can release the engine lock while waiting
// out transitions, so Open re-checks the registry afterwards) with the
// budget charged exactly once.
func TestConcurrentOpenSameName(t *testing.T) {
	const racers = 8
	e := engine.New(f61, 0)
	if err := e.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	e.SetBudget(2 * oneDataset)
	// A resident decoy keeps admission busy evicting while the racers run.
	if _, err := e.Open("decoy", evictU); err != nil {
		t.Fatal(err)
	}
	got := make([]*engine.Dataset, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ds, err := e.Open("same", evictU)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = ds
		}(i)
	}
	wg.Wait()
	for i := 1; i < racers; i++ {
		if got[i] != got[0] {
			t.Fatalf("racer %d got a different dataset for the same name", i)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var want int64
		for _, name := range []string{"decoy", "same"} {
			if ds, ok := e.Get(name); ok && ds.Resident() {
				want += oneDataset
			}
		}
		if e.ResidentBytes() == want {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("budget drifted after racing opens: ResidentBytes=%d, Σ resident=%d", e.ResidentBytes(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDatasetNameBound: a name longer than a posted proof's one-byte
// length field can carry is refused wherever a name enters the engine
// (it used to be accepted and yield a proof DecodeProof rejects), and
// the longest legal name still round-trips through the proof codec.
func TestDatasetNameBound(t *testing.T) {
	e := engine.New(f61, 1)
	long := strings.Repeat("x", 256)
	if _, err := e.Open(long, 256); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Open of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.OpenSlice(long, 256, 0, 128); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("OpenSlice of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.Adopt(long); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Adopt of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.Open("", 256); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Open of the empty name: %v, want ErrDatasetName", err)
	}
	ds, err := e.Open(long[:255], 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(256, 50, field.NewSplitMix64(3))); err != nil {
		t.Fatal(err)
	}
	pf, err := ds.Snapshot().GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fs.DecodeProof(pf.Encode())
	if err != nil {
		t.Fatalf("proof under a 255-byte name does not decode: %v", err)
	}
	if dec.Binding != pf.Binding {
		t.Fatal("proof under a 255-byte name did not round-trip")
	}
}

// TestIngestRejectsPaddedIndices: the bounds check runs against the
// *requested* universe, not the power of two it pads to. At u = 500
// (padded to 512) an index in [500, 512) would land in padding that no
// protocol parameterized by 500 accounts for — it must be rejected,
// atomically, and the error must name the real universe. The replay
// reference refuses it in the same words. So is an index far past the
// table, and ragged columns.
func TestIngestRejectsPaddedIndices(t *testing.T) {
	const u = 500 // deliberately not a power of two
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest([]stream.Update{{Index: u - 1, Delta: 1}}); err != nil {
		t.Fatalf("last in-range index rejected: %v", err)
	}
	for _, bad := range []uint64{u, 511, 1 << 40} { // the first two inside the padded table
		batch := []stream.Update{{Index: 3, Delta: 2}, {Index: bad, Delta: 1}}
		err := ds.Ingest(batch)
		if err == nil {
			t.Fatalf("index %d in the padded range [%d, 512) accepted", bad, u)
		}
		if !strings.Contains(err.Error(), "[0,500)") {
			t.Errorf("error should name the requested universe 500, got: %v", err)
		}
		_, rerr := engine.NewReplayProver(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, batch, 0)
		if rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("NewReplayProver on index %d: %v, want Ingest's %q", bad, rerr, err)
		}
	}
	if ds.Updates() != 1 {
		t.Fatalf("rejected batches partially applied: %d updates", ds.Updates())
	}
	if got := ds.Snapshot().Counts()[3]; got != 0 {
		t.Fatalf("rejected batch leaked a delta: counts[3] = %d", got)
	}
	if err := ds.IngestColumns([]uint64{1, 2}, []int64{1}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestIngestRefusesOverflow: a batch that would take an int64 count or
// Σδ outside int64 is refused whole, at Workers 0 and 2: two updates of
// 2^62 at one index, the second of two such one-update batches, a
// 2^13-update batch whose overflowing index follows updates, in other
// chunks, it must take back, and a batch whose counts fit but
// whose Σδ does not. CheckColumns gives each the same refusal first.
// Each is refused on a sealed head, whose copy-on-write successor the
// refusal drops, and on an unsealed one, whose chunks the batch writes
// in place until the refusal takes its applied prefix back.
// After each refusal the counts, the update count, the version and the
// posted SELF-JOIN SIZE proof are those before it, and the proof is
// byte-equal again after an evict/rehydrate cycle.
func TestIngestRefusesOverflow(t *testing.T) {
	const u = 1 << 15 // eight chunks
	const big = int64(1) << 62
	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := engine.New(f61, workers)
			if err := e.SetDataDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := e.Close(); err != nil {
					t.Error(err)
				}
			})
			ds, err := e.Open("a", u)
			if err != nil {
				t.Fatal(err)
			}
			rng := field.NewSplitMix64(4501 + uint64(workers))
			// A 2^13-update batch that leaves Σδ at -1-2^62, then 2^62 at x:
			// Σδ = -1 has room for two updates of 2^62, one count does not.
			base := append(stream.UnitIncrements(u, 1<<13, rng),
				stream.Update{Index: 7, Delta: -big}, stream.Update{Index: 8, Delta: -(1 << 13) - 1})
			if err := ds.Ingest(base); err != nil {
				t.Fatal(err)
			}
			const x = 3 << 12
			if err := ds.Ingest([]stream.Update{{Index: x, Delta: big}}); err != nil {
				t.Fatal(err)
			}
			proof := func() string {
				pf, err := ds.Snapshot().GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
				if err != nil {
					t.Fatal(err)
				}
				return fmt.Sprintf("%x", sha256.Sum256(pf.Encode()))
			}
			counts, n, version, sum := ds.Snapshot().Counts(), ds.Updates(), ds.Version(), proof()

			// Two -2^62s at z take z to MinInt64 and are taken back when
			// y, in a later chunk, overflows.
			crowd := stream.UnitIncrements(u, 1<<13, rng)
			const y, z = 6<<12 + 5, 1<<12 + 9
			crowd = slices.Insert(crowd, 100, stream.Update{Index: z, Delta: -big}, stream.Update{Index: z, Delta: -big})
			crowd = slices.Insert(crowd, 5000, stream.Update{Index: y, Delta: big}, stream.Update{Index: y, Delta: big})
			for _, tc := range []struct {
				name  string
				batch []stream.Update
				want  string
			}{
				{"two updates of 2^62 at one index", []stream.Update{{Index: 11, Delta: big}, {Index: 11, Delta: big}}, "count at index 11"},
				{"the second one-update batch of 2^62", []stream.Update{{Index: x, Delta: big}}, fmt.Sprintf("count at index %d", x)},
				{"a 2^13-update batch", crowd, fmt.Sprintf("count at index %d", y)},
				{"Σδ past int64", []stream.Update{{Index: 1, Delta: big}, {Index: 2, Delta: big}, {Index: 3, Delta: big}}, "Σδ"},
			} {
				for _, unsealed := range []bool{false, true} {
					name := tc.name + ", on a sealed head"
					if unsealed {
						// An empty batch unseals the head and changes nothing,
						// so the refused batch writes the head's own chunks.
						if err := ds.Ingest(nil); err != nil {
							t.Fatal(err)
						}
						name = tc.name + ", on an unsealed head"
					}
					idx, deltas := columns(tc.batch)
					if total, err := ds.CheckColumns(idx, deltas); err == nil || !strings.Contains(err.Error(), tc.want) || total != -1 {
						t.Fatalf("%s: CheckColumns = %d, %v, want Σδ -1 and a refusal naming %q", name, total, err, tc.want)
					}
					err := ds.Ingest(tc.batch)
					if err == nil || !strings.Contains(err.Error(), tc.want) {
						t.Fatalf("%s: Ingest = %v, want a refusal naming %q", name, err, tc.want)
					}
					if !slices.Equal(ds.Snapshot().Counts(), counts) || ds.Updates() != n || ds.Version() != version {
						t.Fatalf("%s: the refused batch changed the dataset", name)
					}
					if got := proof(); got != sum {
						t.Fatalf("%s: the posted proof moved from %s to %s", name, sum, got)
					}
				}
			}

			// CheckColumns accepts, and applies nothing of, a batch that
			// Ingest accepts.
			if total, err := ds.CheckColumns(columns(crowd[:100])); err != nil || total != -1 {
				t.Fatalf("CheckColumns of an acceptable batch = %d, %v, want -1, nil", total, err)
			}
			if !slices.Equal(ds.Snapshot().Counts(), counts) || ds.Version() != version {
				t.Fatal("CheckColumns changed the dataset")
			}

			e.SetBudget(cost)
			if _, err := e.Open("other", u); err != nil {
				t.Fatal(err)
			}
			if ds.Resident() {
				t.Fatal("a is still resident under a one-dataset budget")
			}
			if got := proof(); got != sum {
				t.Fatalf("the posted proof moved across an evict/rehydrate cycle, from %s to %s", sum, got)
			}
		})
	}
}

// columns splits a batch into IngestColumns' index and delta columns.
func columns(ups []stream.Update) ([]uint64, []int64) {
	idx, deltas := make([]uint64, len(ups)), make([]int64, len(ups))
	for i, up := range ups {
		idx[i], deltas[i] = up.Index, up.Delta
	}
	return idx, deltas
}

// TestConcurrentIngestAndSnapshot hammers one dataset from many
// goroutines — half ingesting, half snapshotting and proving — and is
// meaningful mostly under -race: snapshots must never tear.
func TestConcurrentIngestAndSnapshot(t *testing.T) {
	const (
		u          = 1 << 8
		writers    = 4
		readers    = 4
		iterations = 20
	)
	ds, err := engine.NewDataset(f61, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := field.NewSplitMix64(uint64(100 + w))
			for i := 0; i < iterations; i++ {
				if err := ds.Ingest(stream.UnitIncrements(u, 64, rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				snap := ds.Snapshot()
				// A frozen view must be internally consistent: counts,
				// live-pair index and total all describe the same epoch.
				if why := torn(snap); why != "" {
					t.Error("snapshot tore: " + why)
					return
				}
				if _, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
