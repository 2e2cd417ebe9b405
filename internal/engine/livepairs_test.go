package engine_test

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestLivePairsOncePerVersion: the live-pair scan is a value of the
// sealed table version. At Workers 0 and 2, eight concurrent SELF-JOIN
// SIZE and Fk conversations on one snapshot reproduce the reference
// transcript and share one scan, whose index list they leave
// byte-equal. An ingest makes a version that scans once more while the
// old snapshot still proves the old data, and an evicted dataset
// rehydrates without its memo and scans afresh.
func TestLivePairsOncePerVersion(t *testing.T) {
	const u = 1 << 12
	cases := []conformance.Case{conformance.Cases[0], conformance.Cases[1]}
	ups := stream.UnitIncrements(u, 64, field.NewSplitMix64(3201))
	bump := []stream.Update{{Index: 5, Delta: 3}}
	more := append(slices.Clone(ups), bump...)
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
			e.SetBudget(cost)
			ds, err := e.Open("a", u)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Ingest(ups); err != nil {
				t.Fatal(err)
			}
			scans := func(want uint64) {
				t.Helper()
				if got := engine.LiveScans(ds); got != want {
					t.Fatalf("%d live-pair scans, want %d", got, want)
				}
			}
			snap := ds.Snapshot()
			live := engine.LivePairsOf(snap)
			if !live.Sparse() || len(live.Indices()) == 0 {
				t.Fatalf("scan of %d updates over u = %d is not sparse with live pairs", len(ups), u)
			}
			idx := slices.Clone(live.Indices())
			converseConcurrently(t, u, snap, cases, ups, 8)
			scans(1)
			if !slices.Equal(engine.LivePairsOf(snap).Indices(), idx) {
				t.Fatal("a conversation wrote the shared live-pair indices")
			}

			if err := ds.Ingest(bump); err != nil {
				t.Fatal(err)
			}
			converseConcurrently(t, u, snap, cases, ups, 2)
			scans(1)
			converseConcurrently(t, u, ds.Snapshot(), cases, more, 2)
			scans(2)

			if _, err := e.Open("b", u); err != nil { // evicts a
				t.Fatal(err)
			}
			if ds.Resident() {
				t.Fatal("a is still resident under a one-dataset budget")
			}
			converseConcurrently(t, u, ds.Snapshot(), cases, more, 2)
			scans(3)
		})
	}
}

// converseConcurrently runs n conversations of every case against snap,
// a snapshot over a universe of u, at once and requires each to reproduce the case's reference transcript
// over ups.
func converseConcurrently(t *testing.T, u uint64, snap *engine.Snapshot, cases []conformance.Case, ups []stream.Update, n int) {
	t.Helper()
	type conv struct {
		c    conformance.Case
		want []core.Msg
		rec  *conformance.Recorder
		p    core.ProverSession
		err  error
	}
	var convs []*conv
	for _, c := range cases {
		want := conformance.Reference(t, u, c, 7, ups)
		for i := 0; i < n; i++ {
			p, err := snap.NewProver(c.Kind, c.Params)
			if err != nil {
				t.Fatalf("%v: %v", c, err)
			}
			v := conformance.Verifier(t, u, c, field.NewSplitMix64(7), ups)
			convs = append(convs, &conv{c: c, want: want, rec: &conformance.Recorder{Inner: v}, p: p})
		}
	}
	var wg sync.WaitGroup
	for _, cv := range convs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cv.err = core.Run(cv.p, cv.rec)
		}()
	}
	wg.Wait()
	for _, cv := range convs {
		if cv.err != nil {
			t.Fatalf("%v: conversation rejected: %v", cv.c, cv.err)
		}
		if err := conformance.Same(cv.rec.Msgs, cv.want); err != nil {
			t.Fatalf("%v: transcript differs from the reference: %v", cv.c, err)
		}
	}
}

// BenchmarkF2Conversation prices the prover's side of one SELF-JOIN SIZE
// conversation at the f2_large shape (u = 2^20, 2^15 unit updates,
// Workers 2), driven by an unobserved verifier's challenge schedule.
// hit proves one snapshot over and over, so every conversation finds the
// version's live-pair scan memoized; miss first ingests one update, off
// the clock, so every conversation is the first on a new version and
// pays the scan.
func BenchmarkF2Conversation(b *testing.B) {
	const u, n = 1 << 20, 1 << 15
	ds, err := engine.NewDataset(f61, u, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, n, field.NewSplitMix64(3301))); err != nil {
		b.Fatal(err)
	}
	v, err := engine.NewStreamVerifier(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, field.NewSplitMix64(3302))
	if err != nil {
		b.Fatal(err)
	}
	sched := v.Challenges()
	converse := func(snap *engine.Snapshot) {
		p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.Open(); err != nil {
			b.Fatal(err)
		}
		for _, ch := range sched {
			if _, err := p.Step(ch); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("hit", func(b *testing.B) {
		snap := ds.Snapshot()
		converse(snap)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			converse(snap)
		}
	})
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			// +1 and −1 in turn: a new version each time, the data periodic.
			if err := ds.Ingest([]stream.Update{{Index: 0, Delta: 1 - 2*int64(i%2)}}); err != nil {
				b.Fatal(err)
			}
			snap := ds.Snapshot()
			b.StartTimer()
			converse(snap)
		}
	})
}
