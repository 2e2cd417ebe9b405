package engine_test

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

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

// TestCrossDatasetContention hammers a budgeted durable engine with
// four datasets sharing a two-dataset budget — every ingest or snapshot
// can force an eviction of one dataset overlapped with a rehydration of
// another, which is exactly the transition concurrency the per-dataset
// residency latch exists for. Meaningful mostly under -race. It then
// asserts the two governance invariants:
//
//	(a) no budget-accounting drift: once transitions settle,
//	    ResidentBytes equals the Σ of the resident datasets' tables
//	    (and respects the budget);
//	(b) bit-identical transcripts: for every query kind (spread across
//	    the datasets) and worker count, a prover built from the
//	    contended, evicted-and-rehydrated dataset converses identically
//	    to the replay reference (conformance.Reference) over the same
//	    updates.
func TestCrossDatasetContention(t *testing.T) {
	const (
		nDatasets  = 4
		writers    = 2
		iterations = 10
		batch      = 48
	)
	for _, workers := range []int{0, 2, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			e := engine.New(f61, workers)
			if err := e.SetDataDir(t.TempDir()); err != nil {
				t.Fatal(err)
			}
			e.SetBudget(2 * oneDataset) // room for half the fleet
			if err := e.StartCheckpointer(time.Millisecond); err != nil {
				t.Fatal(err)
			}

			seed := func(di, w int) uint64 { return uint64(9000 + 100*di + w) }
			var dss [nDatasets]*engine.Dataset
			for i := range dss {
				ds, err := e.Open(fmt.Sprintf("d%d", i), evictU)
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
					}(ds, seed(di, w))
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
						var total int64
						elems := snap.Elems()
						for j, c := range snap.Counts() {
							total += c
							if f61.FromInt64(c) != elems[j] {
								t.Error("snapshot tore across a transition: counts and elems disagree")
								return
							}
						}
						if total != snap.Total() {
							t.Errorf("snapshot tore: Σcounts=%d but Total=%d", total, snap.Total())
							return
						}
					}
				}(ds)
			}
			wg.Wait()
			if t.Failed() {
				return
			}

			// (a) Accounting returns to Σ of resident tables once the
			// in-flight transitions settle (they complete on background
			// goroutines, so poll briefly).
			deadline := time.Now().Add(10 * time.Second)
			for {
				var want int64
				for _, ds := range dss {
					if ds.Resident() {
						want += oneDataset
					}
				}
				got := e.ResidentBytes()
				if got == want {
					if got > 2*oneDataset {
						t.Fatalf("resident bytes %d exceed the budget %d", got, 2*oneDataset)
					}
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("budget accounting drifted: ResidentBytes=%d, Σ resident tables=%d", got, want)
				}
				time.Sleep(time.Millisecond)
			}

			// (b) Transcript equality against the replay reference, the
			// cases spread across the four datasets.
			for di, ds := range dss {
				var ups []stream.Update
				for w := 0; w < writers; w++ {
					rng := field.NewSplitMix64(seed(di, w))
					ups = append(ups, stream.UnitIncrements(evictU, iterations*batch, rng)...)
				}
				snap, err := ds.SnapshotErr()
				if err != nil {
					t.Fatal(err)
				}
				if snap.Updates() != uint64(len(ups)) || snap.Total() != int64(len(ups)) {
					t.Fatalf("dataset %d drifted: %d updates Σ%d, want %d unit increments",
						di, snap.Updates(), snap.Total(), len(ups))
				}
				for k := di; k < len(conformance.Cases); k += nDatasets {
					c := conformance.Cases[k]
					tseed := uint64(12_000 + k)
					p, err := snap.NewProver(c.Kind, c.Params)
					if err != nil {
						t.Fatal(err)
					}
					got := conformance.Converse(t, p, conformance.Verifier(t, evictU, c, field.NewSplitMix64(tseed), ups))
					if err := conformance.Same(conformance.Reference(t, evictU, c, tseed, ups), got); err != nil {
						t.Errorf("dataset %d %v workers=%d: contended transcript differs: %v", di, c, workers, err)
					}
				}
			}
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
