package engine_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// treeCases are the ticketed cases outside the split seam: the SUB-VECTOR
// family, HEAVY HITTERS, F0 and Fmax, every kind that proves from a
// version's tree skeleton.
var treeCases = conformance.Filter(func(c conformance.Case) bool { return c.Ticketed() && !c.Seam() })

// TestSkeletonOncePerVersion: the tree kinds' conversations on one
// sealed version share its tree skeleton. Every kind on one version
// builds one, as the sum-check and GKR kinds build none; an ingest
// between conversations builds a second for the new version, and the
// older version keeps its own; concurrent first
// queries on a fresh version build one (the single-flight memo, checked
// under -race); and a version with more leaves than a sparse version has
// live pairs keeps none and builds one per query. Every conversation
// reproduces the reference transcript.
func TestSkeletonOncePerVersion(t *testing.T) {
	const u = 1 << 10 // a kept skeleton has at most 128 leaves
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(3401)
	var history []stream.Update
	ingest := func(n int) ([]stream.Update, *engine.Snapshot) {
		t.Helper()
		ups := stream.UnitIncrements(u, n, rng)
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		history = append(history, ups...)
		return append([]stream.Update(nil), history...), ds.Snapshot()
	}
	seed := uint64(3410)
	converse := func(snap *engine.Snapshot, ups []stream.Update, c conformance.Case) {
		t.Helper()
		seed++
		p, err := snap.NewProver(c.Kind, c.Params)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got := conformance.Converse(t, p, conformance.Verifier(t, u, c, field.NewSplitMix64(seed), ups))
		if err := conformance.Same(conformance.Reference(t, u, c, seed, ups), got); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	}
	builds := func(want uint64, what string) {
		t.Helper()
		if got := engine.SkeletonBuilds(ds); got != want {
			t.Fatalf("%s: %d skeleton builds, want %d", what, got, want)
		}
	}

	ups1, snap1 := ingest(60)
	builds(0, "before any tree query")
	for _, c := range conformance.Cases {
		converse(snap1, ups1, c)
	}
	builds(1, "every kind on one version")

	ups2, snap2 := ingest(20)
	converse(snap2, ups2, treeCases[0])
	converse(snap2, ups2, treeCases[len(treeCases)-1])
	converse(snap1, ups1, treeCases[1])
	builds(2, "after an ingest, on both versions")

	// Concurrent first queries on a fresh version: one build.
	ups3, snap3 := ingest(20)
	type job struct {
		c   conformance.Case
		v   engine.StreamVerifier
		ref []core.Msg
	}
	var jobs []job
	for i := range 2 * len(treeCases) {
		c := treeCases[i%len(treeCases)]
		seed++
		jobs = append(jobs, job{c, conformance.Verifier(t, u, c, field.NewSplitMix64(seed), ups3), conformance.Reference(t, u, c, seed, ups3)})
	}
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := snap3.NewProver(j.c.Kind, j.c.Params)
			if err != nil {
				errs[i] = err
				return
			}
			rec := &conformance.Recorder{Inner: j.v}
			if _, err := core.Run(p, rec); err != nil {
				errs[i] = err
				return
			}
			if err := conformance.Same(j.ref, rec.Msgs); err != nil {
				errs[i] = fmt.Errorf("%v: %w", j.c, err)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	builds(3, "concurrent first queries on a fresh version")

	// Past 128 leaves a version keeps no skeleton: a build per query.
	ups4, snap4 := ingest(600)
	converse(snap4, ups4, treeCases[0])
	converse(snap4, ups4, treeCases[1])
	builds(5, "two queries on a dense version")
}

// BenchmarkTreeConversation prices one hash-tree conversation's prover
// side on an unchanged version, at mixed_small_routed's size: u = 2^14
// with 1024 light entries of 1–8 and three heavy ones. The u=2^20 rows
// repeat it with 2^15 light entries at Workers 1 and 2: the smallest
// shape whose level 1 holds enough nodes (2 × parallel.MinGrain) for
// Extend to fan out. The challenges are fixed field elements of each
// round's shape, so the bytes and allocations per op are the prover's
// alone.
func BenchmarkTreeConversation(b *testing.B) {
	for _, shape := range []struct {
		prefix  string
		d       int
		light   uint64
		workers []int
	}{
		{"", 14, 1024, []int{0}},
		{"u=2^20/", 20, 1 << 15, []int{1, 2}},
	} {
		u := uint64(1) << shape.d
		bucket := u / shape.light
		rng := field.NewSplitMix64(3501)
		var ups []stream.Update
		for i := range shape.light {
			ups = append(ups, stream.Update{Index: i*bucket + rng.Uint64()%bucket, Delta: 1 + int64(rng.Uint64()%8)})
		}
		for i, heavy := range []uint64{6, 7, 8} {
			ups = append(ups, stream.Update{Index: uint64(2*i+1)*bucket + 3, Delta: int64(heavy * shape.light)})
		}
		for _, q := range []struct {
			name   string
			kind   engine.QueryKind
			params engine.QueryParams
			elems  int // field elements per challenge
		}{
			{"index", engine.QueryIndex, engine.QueryParams{A: 5 * bucket}, 1},
			{"rangequery", engine.QueryRangeQuery, engine.QueryParams{A: u / 4, B: u/4 + 8*bucket - 1}, 1},
			{"predecessor", engine.QueryPredecessor, engine.QueryParams{A: u/3 + 1}, 1},
			{"klargest", engine.QueryKLargest, engine.QueryParams{K: 5}, 1},
			{"heavyhitters", engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.2}, 2},
		} {
			challenges := make([]core.Msg, shape.d-1)
			for j := range challenges {
				challenges[j] = core.Msg{Elems: f61.RandVec(rng, q.elems)}
			}
			for _, workers := range shape.workers {
				ds, err := engine.NewDataset(f61, u, workers)
				if err != nil {
					b.Fatal(err)
				}
				if err := ds.Ingest(ups); err != nil {
					b.Fatal(err)
				}
				snap := ds.Snapshot()
				converse := func() {
					p, err := snap.NewProver(q.kind, q.params)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := p.Open(); err != nil {
						b.Fatal(err)
					}
					for _, ch := range challenges {
						if _, err := p.Step(ch); err != nil {
							b.Fatal(err)
						}
					}
				}
				name := shape.prefix + q.name
				if len(shape.workers) > 1 {
					name += fmt.Sprintf("/workers=%d", workers)
				}
				b.Run(name, func(b *testing.B) {
					converse()
					b.ReportAllocs()
					b.ResetTimer()
					for range b.N {
						converse()
					}
				})
			}
		}
	}
}
