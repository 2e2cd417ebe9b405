package engine_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// kept is a snapshot with copies of its tables, taken when it was new,
// and the stream it holds.
type kept struct {
	snap    *engine.Snapshot
	counts  []int64
	history []stream.Update
}

// part is one dataset under TestLivePairsOncePerVersion: the whole
// universe, or one slice [lo, hi) of it.
type part struct {
	name   string
	ds     *engine.Dataset
	lo, hi uint64
	kept   []kept
}

// TestLivePairsOncePerVersion: a version's live-pair index, assembled
// from the memoized counts and lists of its chunks, equals a fresh
// ScanLivePairs of its elements after every batch of a seeded random
// stream of ± batches: one-update, small and sharded (≥ minShardBatch)
// batches, batches that crowd one chunk past the share of live pairs a
// chunk keeps a list for, and batches that undo an earlier one and so
// return entries to zero. It runs over a whole dataset and over S = 2 slices, at Workers 0
// and 2, through an evict/rehydrate cycle and a Release/Adopt handoff.
// After every batch every older snapshot still holds its tables
// (copy-on-write per chunk), the tables hold the stream's counts, and
// building the new versions' indices ran exactly one chunk scan per
// chunk no version had scanned: one for a one-update version, every chunk
// for a rebuilt one. Four times along the stream — once after a sharded
// batch, once on the versions rehydrated after the eviction, once on
// those adopted after the handoff, and once at the end — the step makes
// two fresh versions, the second one update past the first, so the two
// share every chunk the first one's batch wrote. Their first uses race,
// beside uses of an older snapshot: concurrent SELF-JOIN SIZE and Fk
// conversations on the whole dataset, each reproducing the reference
// transcript, and concurrent index builds on each slice. The scan count
// must still be exact, which is the single-flight guarantee of the
// per-chunk and per-version memos.
func TestLivePairsOncePerVersion(t *testing.T) {
	const u = 1 << 15 // eight chunks
	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	cases := []conformance.Case{conformance.Cases[0], conformance.Cases[1]}
	for _, workers := range []int{0, 2} {
		for _, nslices := range []uint64{1, 2} {
			t.Run(fmt.Sprintf("workers=%d/S=%d", workers, nslices), func(t *testing.T) {
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
				var parts []*part
				for s := uint64(0); s < nslices; s++ {
					p := &part{name: fmt.Sprintf("a%d", s), lo: s * u / nslices, hi: (s + 1) * u / nslices}
					if nslices == 1 {
						p.ds, err = e.Open(p.name, u)
					} else {
						p.ds, err = e.OpenSlice(p.name, u, p.lo, p.hi)
					}
					if err != nil {
						t.Fatal(err)
					}
					parts = append(parts, p)
				}
				rng := field.NewSplitMix64(3201 + uint64(workers) + 10*nslices)
				oneUpdate := func() []stream.Update {
					return []stream.Update{{Index: rng.Uint64() % u, Delta: 1 + int64(rng.Uint64()%3)}}
				}
				counts := make([]int64, u)
				var history []stream.Update
				var batches [][]stream.Update
				for step := 0; step < 28; step++ {
					var batch []stream.Update
					switch {
					case step%7 == 3 && len(batches) > 0: // undo an earlier batch
						for _, up := range batches[rng.Uint64()%uint64(len(batches))] {
							batch = append(batch, stream.Update{Index: up.Index, Delta: -up.Delta})
						}
					case step%7 == 5: // a sharded scatter
						batch = stream.UnitIncrements(u, 1<<13+int(rng.Uint64()%100), rng)
					case step%7 == 1: // one chunk too dense to keep a list of its own
						at := rng.Uint64() % u / engine.ChunkEntries * engine.ChunkEntries
						for _, up := range stream.UnitIncrements(engine.ChunkEntries, 1200, rng) {
							batch = append(batch, stream.Update{Index: at + up.Index, Delta: up.Delta})
						}
					case step%2 == 0:
						batch = oneUpdate()
					default:
						batch = stream.UnitIncrements(u, 1+int(rng.Uint64()%64), rng)
						if rng.Uint64()%2 == 0 {
							for i := range batch {
								batch[i].Delta = -batch[i].Delta
							}
						}
					}
					// The step's versions: one per batch, and at a racing
					// step a second, one update past the first.
					race := step == 5 || step == 9 || step == 18 || step == 27
					vbatches := [][]stream.Update{batch}
					if race {
						vbatches = append(vbatches, oneUpdate())
					}
					var vcounts [][]int64
					var vhistory [][]stream.Update
					for _, vb := range vbatches {
						batches = append(batches, vb)
						history = append(history, vb...)
						for _, up := range vb {
							counts[up.Index] += up.Delta
						}
						vcounts, vhistory = append(vcounts, slices.Clone(counts)), append(vhistory, slices.Clone(history))
					}
					rebuilt := false // the parts' next versions are rebuilt from checkpoints, every chunk unscanned
					switch step {
					case 9: // evict every part: the other dataset needs the whole budget
						if _, err := e.Open("other", u); err != nil {
							t.Fatal(err)
						}
						for _, p := range parts {
							if p.ds.Resident() {
								t.Fatalf("%s is still resident under a one-dataset budget", p.name)
							}
						}
						rebuilt = true
					case 18: // hand every part off and take it back
						for _, p := range parts {
							if _, err := e.Release(p.name); err != nil {
								t.Fatal(err)
							}
							if _, err := e.Adopt(p.name); err != nil {
								t.Fatal(err)
							}
							var ok bool
							if p.ds, ok = e.Get(p.name); !ok {
								t.Fatalf("%s not registered after Adopt", p.name)
							}
						}
						rebuilt = true
					}
					for _, p := range parts {
						name := fmt.Sprintf("step %d, %s", step, p.name)
						before := engine.LiveScans(p.ds)
						var fresh []kept
						wantScans := uint64(0)
						for j, vb := range vbatches {
							touched := map[uint64]bool{}
							var sub []stream.Update
							for _, up := range vb {
								if up.Index >= p.lo && up.Index < p.hi {
									sub = append(sub, up)
									touched[(up.Index-p.lo)/engine.ChunkEntries] = true
								}
							}
							if err := p.ds.Ingest(sub); err != nil {
								t.Fatal(err)
							}
							if rebuilt && j == 0 {
								wantScans += (p.hi - p.lo) / engine.ChunkEntries
							} else {
								wantScans += uint64(len(touched))
							}
							fresh = append(fresh, kept{snap: p.ds.Snapshot(), counts: vcounts[j][p.lo:p.hi], history: vhistory[j]})
						}
						if race {
							old := p.kept[len(p.kept)/2]
							if nslices == 1 {
								converseConcurrently(t, u, append(fresh, old), cases, 2)
							} else {
								buildConcurrently(append(fresh, old), 4)
							}
						}
						for _, k := range fresh {
							engine.LivePairsOf(k.snap)
						}
						if scans := engine.LiveScans(p.ds) - before; scans != wantScans {
							t.Fatalf("%s: %d new versions ran %d chunk scans, want %d", name, len(fresh), scans, wantScans)
						}
						for _, k := range fresh {
							live := engine.LivePairsOf(k.snap)
							want := sumcheck.ScanLivePairs(2, 0, sumcheck.Flat(imageOf(k.snap.Counts())))
							if live.Sparse() != want.Sparse() || !slices.Equal(live.Indices(), want.Indices()) {
								t.Fatalf("%s: index (sparse %v, %d pairs) differs from a fresh scan (sparse %v, %d pairs)",
									name, live.Sparse(), live.Len(), want.Sparse(), want.Len())
							}
							if !slices.Equal(k.snap.Counts(), k.counts) {
								t.Fatalf("%s: the tables do not hold the stream's counts", name)
							}
							p.kept = append(p.kept, k)
						}
						for v, k := range p.kept {
							if !slices.Equal(k.snap.Counts(), k.counts) {
								t.Fatalf("%s: the snapshot of version %d changed", name, v)
							}
						}
					}
				}
			})
		}
	}
}

// imageOf returns the field image of counts.
func imageOf(counts []int64) []field.Elem {
	elems := make([]field.Elem, len(counts))
	f61.FromInt64Slice(elems, counts)
	return elems
}

// buildConcurrently builds the live-pair index of every kept snapshot
// from n goroutines each, all at once.
func buildConcurrently(ks []kept, n int) {
	var wg sync.WaitGroup
	for _, k := range ks {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				engine.LivePairsOf(k.snap)
			}()
		}
	}
	wg.Wait()
}

// TestNoFieldImage: the engine holds counts and no field image of them.
// After an ingest, a rehydrate or a Recover a chunk holds its 32 KiB of
// counts and nothing else; after a proof, at most its live list beside
// them, and Snapshot.Counts adds nothing. The first proof of a version
// scans each held chunk exactly once, a second proof of the version scans
// none, and a one-update version scans the chunk it wrote. A chunk that
// holds a count of p or more builds a reduced copy of its counts, once,
// in the memo of its first proof: a second proof builds none, and after
// a rehydrate or a Recover it is built again only by the next proof.
func TestNoFieldImage(t *testing.T) {
	const u = 1 << 15 // eight chunks
	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	e := engine.New(f61, 2)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := e.Open("a", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 1<<12, field.NewSplitMix64(4601))); err != nil {
		t.Fatal(err)
	}
	held := engine.HeldChunks(ds)
	if held != u/engine.ChunkEntries {
		t.Fatalf("the ingest wrote %d of %d chunks", held, u/engine.ChunkEntries)
	}
	const countBytes, listBytes = 8 * engine.ChunkEntries, engine.ChunkEntries / 2
	holds := func(when string, reduced int, proved bool) {
		t.Helper()
		if got := engine.ReducedChunks(ds); got != reduced {
			t.Fatalf("%s: %d chunks hold a reduced copy, want %d", when, got, reduced)
		}
		want, slack := (held+reduced)*countBytes, 0
		if proved {
			slack = held * listBytes
		}
		if got := engine.ChunkBytes(ds); got < want || got > want+slack {
			t.Fatalf("%s: the chunks hold %d bytes, want %d counts and at most %d of live lists", when, got, want, slack)
		}
	}
	scans := func(when string, want int, use func(*engine.Snapshot)) {
		t.Helper()
		before := engine.LiveScans(ds)
		use(ds.Snapshot())
		if got := engine.LiveScans(ds) - before; got != uint64(want) {
			t.Fatalf("%s scanned %d chunks, want %d", when, got, want)
		}
	}
	prove := func(s *engine.Snapshot) {
		if _, err := s.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{}); err != nil {
			t.Fatal(err)
		}
	}
	holds("after an ingest", 0, false)
	scans("the first proof of a version", held, prove)
	holds("after the first proof", 0, true)
	scans("a second proof of the version", 0, prove)
	scans("Snapshot.Counts", 0, func(s *engine.Snapshot) { s.Counts() })
	holds("after Snapshot.Counts", 0, true)
	if err := ds.IngestColumns([]uint64{12345}, []int64{1}); err != nil {
		t.Fatal(err)
	}
	scans("the first proof of a one-update version", 1, prove)
	if err := ds.IngestColumns([]uint64{12346}, []int64{int64(f61.Modulus())}); err != nil {
		t.Fatal(err)
	}
	scans("the first proof of a version holding p", 1, prove)
	holds("after the first proof of a version holding p", 1, true)
	scans("a second proof of the version holding p", 0, prove)
	holds("after a second proof of the version holding p", 1, true)

	e.SetBudget(cost)
	if _, err := e.Open("other", u); err != nil {
		t.Fatal(err)
	}
	if ds.Resident() {
		t.Fatal("a is still resident under a one-dataset budget")
	}
	ds.Snapshot() // rehydrates a
	holds("after a rehydrate", 0, false)
	scans("the first proof after a rehydrate", held, prove)
	holds("after the first proof after a rehydrate", 1, true)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e = engine.New(f61, 2)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Recover(); err != nil {
		t.Fatal(err)
	}
	var ok bool
	if ds, ok = e.Get("a"); !ok || !ds.Resident() {
		t.Fatal("a is not resident after Recover")
	}
	holds("after Recover", 0, false)
	scans("the first proof after Recover", held, prove)
	holds("after the first proof after Recover", 1, true)
}

// TestVersionAllocations: a one-update ingest after a snapshot, at
// u = 2^20, allocates the chunk it writes and the version's chunk-pointer
// array and nothing in proportion to u: at most 7 allocations (the
// snapshot, the new table state and its chunk-pointer array, the chunk
// and its counts, and the ingest's bookkeeping), and at most one chunk's
// 32 KiB of counts plus the 2 KiB array and 4 KiB of slack in bytes: no
// field image is ever built, and the chunk's live-pair scan waits for
// the version's first proof. A flat-table clone allocated 16 MiB here.
func TestVersionAllocations(t *testing.T) {
	const u = 1 << 20
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 1<<12, field.NewSplitMix64(3401))); err != nil {
		t.Fatal(err)
	}
	idx, deltas := []uint64{12345}, []int64{1}
	bump := func() {
		ds.Snapshot()
		deltas[0] = -deltas[0] // +1 and −1 in turn: the data stays periodic
		if err := ds.IngestColumns(idx, deltas); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(20, bump)
	t.Logf("a one-update version at u = 2^20: %.1f allocations", allocs)
	if allocs > 7 {
		t.Errorf("a one-update version allocated %.1f times, want ≤ 7", allocs)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		bump()
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	const limit = 32<<10 + 8*(u>>12) + 4<<10
	t.Logf("a one-update version at u = 2^20: %d bytes", perRun)
	if perRun > limit {
		t.Errorf("a one-update version allocated %d bytes, want ≤ %d", perRun, limit)
	}
}

// converseConcurrently runs n conversations of every case against each
// kept snapshot, a snapshot over a universe of u, all at once, and
// requires each to reproduce the case's reference transcript over the
// stream the snapshot holds.
func converseConcurrently(t *testing.T, u uint64, ks []kept, cases []conformance.Case, n int) {
	t.Helper()
	type conv struct {
		c    conformance.Case
		want []core.Msg
		rec  *conformance.Recorder
		p    core.ProverSession
		err  error
	}
	var convs []*conv
	for _, k := range ks {
		for _, c := range cases {
			want := conformance.Reference(t, u, c, 7, k.history)
			for i := 0; i < n; i++ {
				p, err := k.snap.NewProver(c.Kind, c.Params)
				if err != nil {
					t.Fatalf("%v: %v", c, err)
				}
				v := conformance.Verifier(t, u, c, field.NewSplitMix64(7), k.history)
				convs = append(convs, &conv{c: c, want: want, rec: &conformance.Recorder{Inner: v}, p: p})
			}
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

// BenchmarkVersion prices what a new dataset version costs: a one-update
// ingest after a snapshot, then that version's live-pair index, at a
// fixed 2^12 non-zero entries over growing universes. The index scans the
// one chunk the update copied and links the other chunks' lists, so the
// cost barely grows with u.
func BenchmarkVersion(b *testing.B) {
	for _, logu := range []int{16, 20, 22} {
		b.Run(fmt.Sprintf("u=2^%d", logu), func(b *testing.B) {
			u := uint64(1) << logu
			ds, err := engine.NewDataset(f61, u, 0)
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.Ingest(stream.UnitIncrements(u, 1<<12, field.NewSplitMix64(3501))); err != nil {
				b.Fatal(err)
			}
			engine.LivePairsOf(ds.Snapshot())
			idx, deltas := []uint64{u / 3}, []int64{1}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				deltas[0] = 1 - 2*int64(i%2) // +1 and −1 in turn
				if err := ds.IngestColumns(idx, deltas); err != nil {
					b.Fatal(err)
				}
				engine.LivePairsOf(ds.Snapshot())
			}
		})
	}
}

// BenchmarkF2Conversation prices the prover's side of one SELF-JOIN SIZE
// conversation at the f2_large shape (u = 2^20, 2^15 unit updates,
// Workers 2), driven by an unobserved verifier's challenge schedule.
// hit proves one snapshot over and over, so every conversation finds the
// version's live-pair index memoized; miss first ingests one update, off
// the clock, so every conversation is the first on a new version and
// pays the index, which scans the one chunk the update copied. dense
// proves one snapshot of a table with no zero entry (nnz = u), so every
// round is dense and the first reads through the chunks; dense-miss does
// so on a new version each time, so every conversation also pays the
// index's dense verdict: one chunk scan and a sum of per-chunk counts.
func BenchmarkF2Conversation(b *testing.B) {
	const u, n = 1 << 20, 1 << 15
	v, err := engine.NewStreamVerifier(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, field.NewSplitMix64(3302))
	if err != nil {
		b.Fatal(err)
	}
	sched := v.(*core.FkVerifier).Challenges()
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
	ds, err := engine.NewDataset(f61, u, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, n, field.NewSplitMix64(3301))); err != nil {
		b.Fatal(err)
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
	dense, err := engine.NewDataset(f61, u, 2)
	if err != nil {
		b.Fatal(err)
	}
	rng := field.NewSplitMix64(3303)
	idx, deltas := make([]uint64, u), make([]int64, u)
	for i := range idx {
		idx[i], deltas[i] = uint64(i), 1+int64(rng.Uint64()%1000)
	}
	if err := dense.IngestColumns(idx, deltas); err != nil {
		b.Fatal(err)
	}
	b.Run("dense", func(b *testing.B) {
		snap := dense.Snapshot()
		converse(snap)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			converse(snap)
		}
	})
	b.Run("dense-miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := dense.Ingest([]stream.Update{{Index: 0, Delta: 1 - 2*int64(i%2)}}); err != nil {
				b.Fatal(err)
			}
			snap := dense.Snapshot()
			b.StartTimer()
			converse(snap)
		}
	})
}
