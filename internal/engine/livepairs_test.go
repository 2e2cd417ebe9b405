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
// stream of ± batches: one-update, small and large (2^13 updates or more)
// batches, batches that crowd one chunk past the share of live pairs a
// chunk keeps a list for, and batches that undo an earlier one and so
// return entries to zero. It runs over a whole dataset and over S = 2 slices, at Workers 0
// and 2, through an evict/rehydrate cycle and a Release/Adopt handoff.
// After every batch every older snapshot still holds its tables
// (copy-on-write per chunk), the tables hold the stream's counts, and
// building the new versions' indices ran exactly one chunk scan per
// chunk no version had scanned: one for a one-update version, every chunk
// for a rebuilt one. Four times along the stream — once after a large
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
					case step%7 == 5: // a large batch
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

// TestVersionAllocations: an ingest after a snapshot allocates the chunks
// it writes and the version's chunk-pointer array and nothing in
// proportion to u or to the batch: at most 5 allocations (the snapshot,
// the new table state and its chunk-pointer array, and the ingest's
// bookkeeping) plus 2 per chunk written (the chunk and its counts; a
// sparse chunk's two lists make 3, inside the bookkeeping's share), and
// in bytes at most 32 KiB of counts and a 128-byte header per chunk
// written, the 8-byte-per-chunk array and 3968 bytes of slack (for one
// chunk, the 4 KiB of slack this test has always allowed). No field
// image is ever built, the chunks' live-pair scans wait for the
// version's first proof, and the batch is applied in place, with no
// per-update index of its own. One row writes one update at u = 2^20 (a
// flat-table clone allocated 16 MiB here); the other writes a
// 2^15-update batch over every one of the 64 chunks of u = 2^18 at
// Workers 2 (a sharded scatter's counting sort allocated 4 bytes per
// update here). The batch takes each of its chunks dense. A sparse row's
// chunk stays sparse, so its version
// allocates the chunk-pointer array (as the runtime allocates it,
// pointerArrayBytes) and at most 1 KiB more, not 32 KiB per chunk
// written: a one-update version of a 4096-update dataset at u = 2^21,
// about 8 counts per chunk (a dense chunk allocated 37 KiB here).
func TestVersionAllocations(t *testing.T) {
	for _, row := range []struct {
		name    string
		u       uint64
		workers int
		n       int  // updates per batch
		chunks  int  // the chunks the batch writes
		sparse  bool // the written chunks stay sparse
	}{
		{"a one-update version at u = 2^20", 1 << 20, 0, 1, 1, false},
		{"a 2^15-update batch at u = 2^18", 1 << 18, 2, 1 << 15, 64, false},
		{"a one-update version of a 4096-update dataset at u = 2^21", 1 << 21, 0, 1, 1, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			ds, err := engine.NewDataset(f61, row.u, row.workers)
			if err != nil {
				t.Fatal(err)
			}
			if err := ds.Ingest(stream.UnitIncrements(row.u, 1<<12, field.NewSplitMix64(3401))); err != nil {
				t.Fatal(err)
			}
			idx, deltas := columns(stream.UnitIncrements(row.u, row.n, field.NewSplitMix64(3402)))
			written := map[uint64]bool{}
			for _, i := range idx {
				written[i/engine.ChunkEntries] = true
			}
			if len(written) != row.chunks {
				t.Fatalf("the batch writes %d chunks, want %d", len(written), row.chunks)
			}
			bump := func() {
				ds.Snapshot()
				for k := range deltas {
					deltas[k] = -deltas[k] // + and − in turn: the data stays periodic
				}
				if err := ds.IngestColumns(idx, deltas); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(20, bump)
			t.Logf("%s: %.1f allocations", row.name, allocs)
			if want := float64(5 + 2*row.chunks); allocs > want {
				t.Errorf("%s allocated %.1f times, want ≤ %.0f", row.name, allocs, want)
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
			limit := uint64(row.chunks)*(32<<10+128) + 8*(row.u/engine.ChunkEntries) + 4<<10 - 128
			if row.sparse {
				limit = pointerArrayBytes(int(row.u/engine.ChunkEntries)) + 1<<10
			}
			t.Logf("%s: %d bytes", row.name, perRun)
			if perRun > limit {
				t.Errorf("%s allocated %d bytes, want ≤ %d", row.name, perRun, limit)
			}
		})
	}
}

// pointerArraySink keeps pointerArrayBytes's array alive.
var pointerArraySink []*int

// pointerArrayBytes returns the bytes the runtime allocates for an array
// of n pointers: 8 per pointer, rounded up to its size class with the
// header a large pointer-holding object carries (4864 bytes for 512).
func pointerArrayBytes(n int) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pointerArraySink = make([]*int, n)
	runtime.ReadMemStats(&after)
	pointerArraySink = nil
	return after.TotalAlloc - before.TotalAlloc
}

// TestSparseDatasetBytes: a sparse stream's dataset allocates in
// proportion to its updates, not to u. Creating a dataset over
// u = 2^21 and ingesting 2^12 unit updates, about 8 per chunk, holds
// every chunk sparse and allocates at most 32 bytes per update besides
// the chunk-pointer array, where dense chunks allocated 32 KiB per chunk
// written, 4 KiB per update. It runs alone (not parallel), and takes the
// smallest of three runs, since MemStats counts the whole process.
func TestSparseDatasetBytes(t *testing.T) {
	const u, n = 1 << 21, 1 << 12
	idx, deltas := columns(stream.UnitIncrements(u, n, field.NewSplitMix64(3403)))
	best := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		ds, err := engine.NewDataset(f61, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.IngestColumns(idx, deltas); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
		if held := engine.HeldChunks(ds); held == 0 {
			t.Fatal("the ingest wrote no chunk")
		}
	}
	limit := 32*uint64(n) + pointerArrayBytes(u/engine.ChunkEntries)
	t.Logf("2^12 updates at u = 2^21: %d bytes (%.1f per update)", best, float64(best)/n)
	if best > limit {
		t.Fatalf("2^12 updates at u = 2^21 allocated %d bytes, want ≤ %d", best, limit)
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

// BenchmarkLiveScan prices the live-pair index of a version whose every
// chunk is new, at Workers 1 and 2: each op adds the same 2^15-update
// batch at u = 2^20, off the clock, which copies all 256 chunks and
// keeps the live entries as they were, and then builds the new
// version's index, whose chunk memos fan out.
func BenchmarkLiveScan(b *testing.B) {
	const u, n = 1 << 20, 1 << 15
	idx, deltas := columns(stream.UnitIncrements(u, n, field.NewSplitMix64(3502)))
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ds, err := engine.NewDataset(f61, u, workers)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				if err := ds.IngestColumns(idx, deltas); err != nil {
					b.Fatal(err)
				}
				snap := ds.Snapshot()
				b.StartTimer()
				engine.LivePairsOf(snap)
			}
		})
	}
}

// BenchmarkIngestBatch prices the write side at the ingest_evict shape:
// one 2^15-update batch at u = 2^18 through IngestColumns onto a sealed
// head, so each op copies the 64 chunks the batch writes and applies it
// in one serial pass, at Workers 0 and 2 (the pass does not fan out, so
// the two rows should read alike).
func BenchmarkIngestBatch(b *testing.B) {
	const u, n = 1 << 18, 1 << 15
	idx, deltas := columns(stream.UnitIncrements(u, n, field.NewSplitMix64(3601)))
	for _, workers := range []int{0, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			ds, err := engine.NewDataset(f61, u, workers)
			if err != nil {
				b.Fatal(err)
			}
			if err := ds.IngestColumns(idx, deltas); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Snapshot()
				for k := range deltas {
					deltas[k] = -deltas[k] // − and + in turn: the data stays periodic
				}
				if err := ds.IngestColumns(idx, deltas); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkF2Conversation prices the prover's side of one SELF-JOIN SIZE
// conversation at the f2_large shape (u = 2^20, 2^15 unit updates,
// Workers 2), driven by an unobserved verifier's challenge schedule;
// every row but cold also runs at Workers 1, so hit's and dense's two
// counts price the sum-check prover's fan-out, and miss's that plus the
// live-pair index's. hit proves one snapshot over and over, so every conversation finds the
// version's live-pair index memoized; cold does the same, but each
// conversation follows a fresh verifier's pass over the 2^15 updates,
// off the clock, as every f2_large operation does; miss first ingests
// one update, off the clock, so every conversation is the first on a new
// version and pays the index, which scans the one chunk the update
// copied. dense proves one snapshot of a table with no zero entry
// (nnz = u), so every round is dense and the first reads through the
// chunks; dense-miss does so on a new version each time, so every
// conversation also pays the index's dense verdict: one chunk scan and a
// sum of per-chunk counts.
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
	// datasets returns one dataset per worker count, 1 and 2, each fed
	// by ingest.
	datasets := func(ingest func(*engine.Dataset) error) map[int]*engine.Dataset {
		out := map[int]*engine.Dataset{}
		for _, workers := range []int{1, 2} {
			ds, err := engine.NewDataset(f61, u, workers)
			if err != nil {
				b.Fatal(err)
			}
			if err := ingest(ds); err != nil {
				b.Fatal(err)
			}
			out[workers] = ds
		}
		return out
	}
	// snapshotRows proves one snapshot of each dataset over and over.
	snapshotRows := func(name string, dss map[int]*engine.Dataset) {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				snap := dss[workers].Snapshot()
				converse(snap)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					converse(snap)
				}
			})
		}
	}
	// missRows first ingests one update into each dataset, off the
	// clock, so that every conversation is the first on a new version.
	missRows := func(name string, dss map[int]*engine.Dataset) {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", name, workers), func(b *testing.B) {
				ds := dss[workers]
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
	}
	ups := stream.UnitIncrements(u, n, field.NewSplitMix64(3301))
	sparse := datasets(func(ds *engine.Dataset) error { return ds.Ingest(ups) })
	ds := sparse[2]
	snapshotRows("hit", sparse)
	b.Run("cold", func(b *testing.B) {
		snap := ds.Snapshot()
		converse(snap)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			w, err := engine.NewStreamVerifier(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, field.NewSplitMix64(uint64(i)))
			if err != nil {
				b.Fatal(err)
			}
			for _, up := range ups {
				if err := w.Observe(up); err != nil {
					b.Fatal(err)
				}
			}
			b.StartTimer()
			converse(snap)
		}
	})
	missRows("miss", sparse)
	rng := field.NewSplitMix64(3303)
	idx, deltas := make([]uint64, u), make([]int64, u)
	for i := range idx {
		idx[i], deltas[i] = uint64(i), 1+int64(rng.Uint64()%1000)
	}
	denses := datasets(func(ds *engine.Dataset) error { return ds.IngestColumns(idx, deltas) })
	snapshotRows("dense", denses)
	missRows("dense-miss", denses)
}
