package engine_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/store"
	"repro/internal/stream"
)

// TestOpenSliceIdentity pins the slice identity rules: geometry is
// validated, re-attach must match exactly, and slice vs whole-universe
// handles never cross.
func TestOpenSliceIdentity(t *testing.T) {
	e := engine.New(f61, 0)
	const u = 100 // pads to 128
	ds, err := e.OpenSlice("ds", u, 32, 64)
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi, ok := ds.Slice(); !ok || lo != 32 || hi != 64 {
		t.Fatalf("Slice() = %d,%d,%v", lo, hi, ok)
	}
	if ds.UniverseSize() != u {
		t.Fatalf("UniverseSize() = %d, want the global %d", ds.UniverseSize(), u)
	}
	if again, err := e.OpenSlice("ds", u, 32, 64); err != nil || again != ds {
		t.Fatalf("re-attach: %v", err)
	}
	if _, err := e.OpenSlice("ds", u, 0, 32); err == nil {
		t.Fatal("mismatched bounds attached")
	}
	if _, err := e.Open("ds", u); err == nil {
		t.Fatal("plain Open attached to a slice")
	}
	if _, err := e.Open("whole", u); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OpenSlice("whole", u, 32, 64); err == nil {
		t.Fatal("OpenSlice attached to a whole dataset")
	}
	for _, bad := range [][3]uint64{
		{u, 40, 72},  // not aligned to its width
		{u, 96, 192}, // beyond the padded universe
		{u, 64, 64},  // empty
		{u, 48, 96},  // width 48 is not a power of two
	} {
		if _, err := e.OpenSlice(fmt.Sprintf("bad-%d-%d", bad[1], bad[2]), bad[0], bad[1], bad[2]); err == nil {
			t.Fatalf("OpenSlice(%d,[%d,%d)) accepted", bad[0], bad[1], bad[2])
		}
	}
	// Out-of-slice and out-of-universe ingests are refused atomically.
	if err := ds.Ingest([]stream.Update{{Index: 10, Delta: 1}}); err == nil {
		t.Fatal("ingest below the slice accepted")
	}
	if err := ds.Ingest([]stream.Update{{Index: 40, Delta: 1}, {Index: 64, Delta: 1}}); err == nil {
		t.Fatal("ingest beyond the slice accepted")
	}
	if err := ds.Ingest([]stream.Update{{Index: 40, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	// Whole-transcript provers and proofs are refused on slices.
	snap := ds.Snapshot()
	if _, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{}); err == nil {
		t.Fatal("NewProver served a slice")
	}
	if _, err := snap.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{}); err == nil {
		t.Fatal("GenerateProof served a slice")
	}
	// Kinds outside the seam fail typed on the partial path.
	if _, err := snap.NewPartialProver(engine.QueryF0, engine.QueryParams{Phi: 0.1}, 0); !errors.Is(err, engine.ErrNotSplittable) {
		t.Fatalf("F0 partial = %v, want ErrNotSplittable", err)
	}
}

// TestSliceHandoffMidIngest is the acceptance bound for rebalancing a
// split dataset: a slice released while its owner is still ingesting
// loses no acknowledged batch — every batch acked before Release
// returns is in the adopted state, every racing batch fails in full.
func TestSliceHandoffMidIngest(t *testing.T) {
	const u = 100
	srcDir, dstDir := t.TempDir(), t.TempDir()

	src := engine.New(f61, 0)
	if err := src.SetDataDir(srcDir); err != nil {
		t.Fatal(err)
	}
	ds, err := src.OpenSlice("ds", u, 32, 64)
	if err != nil {
		t.Fatal(err)
	}

	var acked atomic.Uint64 // updates acknowledged to the "client"
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); ; i++ {
			batch := []stream.Update{
				{Index: 32 + i%32, Delta: 1},
				{Index: 63 - i%16, Delta: 2},
			}
			if err := ds.Ingest(batch); err != nil {
				if !errors.Is(err, engine.ErrReleased) {
					t.Errorf("mid-ingest failure other than ErrReleased: %v", err)
				}
				return
			}
			acked.Add(uint64(len(batch)))
		}
	}()

	// Let some batches land, then pull the slice out from under the
	// ingester.
	for acked.Load() < 64 {
		time.Sleep(10 * time.Microsecond)
	}
	n, err := src.Release("ds")
	if err != nil {
		t.Fatal(err)
	}
	<-done

	if got := acked.Load(); n < got {
		t.Fatalf("released checkpoint covers %d updates, but %d were acked", n, got)
	}
	if err := os.Rename(filepath.Join(srcDir, store.DatasetFile("ds")), filepath.Join(dstDir, store.DatasetFile("ds"))); err != nil {
		t.Fatal(err)
	}
	dst := engine.New(f61, 0)
	if err := dst.SetDataDir(dstDir); err != nil {
		t.Fatal(err)
	}
	adopted, err := dst.Adopt("ds")
	if err != nil {
		t.Fatal(err)
	}
	if adopted != n {
		t.Fatalf("adopted %d updates, released checkpoint had %d", adopted, n)
	}
	got, ok := dst.Get("ds")
	if !ok {
		t.Fatal("adopted slice not registered")
	}
	if lo, hi, isSlice := got.Slice(); !isSlice || lo != 32 || hi != 64 {
		t.Fatalf("adopted slice bounds [%d,%d), want [32,64)", lo, hi)
	}
	// The adopted slice keeps serving: ingest within bounds, partials open.
	if err := got.Ingest([]stream.Update{{Index: 40, Delta: 7}}); err != nil {
		t.Fatal(err)
	}
	sess, err := got.Snapshot().NewPartialProver(engine.QuerySelfJoinSize, engine.QueryParams{}, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Open(); err != nil {
		t.Fatal(err)
	}
}

// TestSliceEvictRecover: a slice dataset survives the evict/rehydrate
// cycle and a full engine restart (Recover) with its geometry and its
// partial transcript bit-intact.
func TestSliceEvictRecover(t *testing.T) {
	const u = 1 << 12 // pads to 4096; slice width 1024
	dir := t.TempDir()
	e := engine.New(f61, 0)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := e.OpenSlice("ds", u, 1024, 2048)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]stream.Update, 0, 512)
	rng := field.NewSplitMix64(9)
	for i := 0; i < 512; i++ {
		batch = append(batch, stream.Update{Index: 1024 + rng.Uint64()%1024, Delta: int64(rng.Uint64()%7) - 3})
	}
	if err := ds.Ingest(batch); err != nil {
		t.Fatal(err)
	}

	record := func(snap *engine.Snapshot) []core.Msg {
		t.Helper()
		sess, err := snap.NewPartialProver(engine.QueryFk, engine.QueryParams{K: 2}, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		m, err := sess.Open()
		if err != nil {
			t.Fatal(err)
		}
		msgs := []core.Msg{m}
		challenges := f61.RandVec(field.NewSplitMix64(77), 10)
		for j := 0; j < 10; j++ { // head rounds of a width-1024 slice
			if m, err = sess.Step(core.Msg{Elems: []field.Elem{challenges[j]}}); err != nil {
				t.Fatal(err)
			}
			msgs = append(msgs, m)
		}
		return msgs
	}
	same := func(a, b []core.Msg, what string) {
		t.Helper()
		if err := conformance.Same(a, b); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
	before := record(ds.Snapshot())

	// Squeeze the budget so opening a second slice evicts the first.
	e.SetBudget(1024*16 + 8)
	if _, err := e.OpenSlice("other", u, 0, 1024); err != nil {
		t.Fatal(err)
	}
	same(before, record(ds.Snapshot()), "after evict/rehydrate")

	// Restart: a fresh engine recovers the slice from the checkpoint dir.
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
	ds2, ok := e2.Get("ds")
	if !ok {
		t.Fatal("slice not recovered")
	}
	if lo, hi, isSlice := ds2.Slice(); !isSlice || lo != 1024 || hi != 2048 {
		t.Fatalf("recovered bounds [%d,%d), want [1024,2048)", lo, hi)
	}
	if ds2.Version() != ds.Version() {
		t.Fatalf("recovered version %d, want %d", ds2.Version(), ds.Version())
	}
	same(before, record(ds2.Snapshot()), "after restart")
}
