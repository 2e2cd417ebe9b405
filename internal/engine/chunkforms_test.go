package engine

import (
	"math"
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/sumcheck"
)

// FuzzChunkForms drives seeded batches at two of the four chunks of a
// small table, sized so the chunks pass maxSparse non-zero counts and,
// as batches are taken back by their negations, fall below it again,
// with snapshots between most batches, and checks the dataset against a
// flat reference after every one:
//
//   - the counts, chunk by chunk: a nil chunk holds zeros, a sparse one
//     lists at most maxSparse counts, none zero, at increasing offsets,
//     and a dense one's peak is at least its largest |count|; a chunk
//     not held dense turns dense on a batch just when its non-zero
//     counts and the batch's updates to it could pass maxSparse, and a
//     dense chunk stays dense on a write;
//   - CheckColumns and IngestColumns refuse exactly the batches the
//     reference overflows, and a refused batch — one that ends by
//     overflowing a count the unsealed head holds, written in place —
//     leaves every count as it was, and a chunk its form pass left
//     sparse exactly as it was;
//   - a snapshot's live pairs, and each chunk's memoized count and list,
//     are the reference's pairs holding a count that is not 0 mod p
//     (counts of p and more make reduced copies);
//   - every older snapshot's counts are unchanged (DESIGN invariant 6);
//   - an evict/rehydrate round trip keeps the counts and holds each
//     chunk in the form its non-zero counts pick (invariant 8).
func FuzzChunkForms(f *testing.F) {
	for _, seed := range formsSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) { chunkForms(t, seed) })
}

// formsSeeds is FuzzChunkForms's seed corpus.
var formsSeeds = []uint64{1, 2, 3, 0x5eed, 0xc4a1}

// TestChunkFormsCross: FuzzChunkForms's seed corpus takes a sparse
// chunk dense on a write and brings a dense chunk back sparse through a
// rehydrate, so its checks cover both crossings.
func TestChunkFormsCross(t *testing.T) {
	up, down := 0, 0
	for _, seed := range formsSeeds {
		u, d := chunkForms(t, seed)
		up, down = up+u, down+d
	}
	t.Logf("%d sparse chunks went dense on a write, %d dense ones came back sparse", up, down)
	if up == 0 || down == 0 {
		t.Fatalf("the seeds crossed maxSparse %d times upward and %d times downward, want both", up, down)
	}
}

// chunkForms is FuzzChunkForms's body. It returns how many times a
// sparse chunk went dense on a write, and a dense one came back sparse
// through a rehydrate.
func chunkForms(t *testing.T, seed uint64) (up, down int) {
	const w = 1 << chunkShift
	const u = 4 * w
	fld := field.Mersenne()
	e := New(fld, 0)
	if err := e.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = e.Close() })
	ds, err := e.Open("forms", u)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(seed)
	ref, total := make([]int64, u), int64(0)
	type kept struct {
		snap   *Snapshot
		counts []int64
	}
	var snaps []kept
	var applied [][2][]int64 // accepted batches: indices (as int64) and deltas
	dense := map[int]bool{}  // chunks held dense since the last rehydrate
	for step := range 40 {
		idx, deltas := formsBatch(rng, applied)
		if rng.Uint64()%6 == 0 {
			// An overflow: write the head in place first — a small batch
			// that leaves a count of 1 at j, no snapshot — then end a
			// small batch by taking a zero count beside j to −MaxInt64,
			// which keeps Σδ in range, and the count at j past MaxInt64.
			idx, deltas = idx[:min(len(idx), 8)], deltas[:min(len(deltas), 8)]
			j := idx[0] &^ 1
			pre, preD := append(slices.Clone(idx), j, j+1), append(slices.Clone(deltas), 1-ref[j], -ref[j+1])
			next := slices.Clone(ref)
			if t2, ok := formsApply(next, total, pre, preD); ok {
				if err := ds.IngestColumns(pre, preD); err != nil {
					t.Fatal(err)
				}
				ref, total = next, t2
				applied = append(applied, formsRecord(pre, preD))
				idx, deltas = append(idx, j+1, j), append(deltas, -math.MaxInt64, math.MaxInt64)
			}
		} else if rng.Uint64()%4 != 0 {
			s := ds.Snapshot()
			snaps = append(snaps, kept{s, slices.Clone(ref)})
		}
		before := headForms(ds)
		next := slices.Clone(ref)
		nextTotal, ok := formsApply(next, total, idx, deltas)
		if _, err := ds.CheckColumns(idx, deltas); (err == nil) != ok {
			t.Fatalf("step %d: CheckColumns = %v, the reference overflows: %v", step, err, !ok)
		}
		err := ds.IngestColumns(idx, deltas)
		if (err == nil) != ok {
			t.Fatalf("step %d: IngestColumns = %v, the reference overflows: %v", step, err, !ok)
		}
		after := headForms(ds)
		if ok {
			ref, total = next, nextTotal
			applied = append(applied, formsRecord(idx, deltas))
			// The form pass: a chunk not held dense turns dense just when
			// its non-zero counts and the batch's updates to it could
			// pass maxSparse.
			tally := map[int]int{}
			for _, i := range idx {
				tally[int(i)/w]++
			}
			for k, n := range tally {
				if b := before[k]; b.offs != nil || b.counts == nil {
					if want := len(b.offs)+n > maxSparse(w); (after[k].offs == nil) != want {
						t.Fatalf("step %d: chunk %d of %d counts took %d updates: dense %v, want %v", step, k, len(b.offs), n, after[k].offs == nil, want)
					}
				}
			}
		} else {
			// checkForms below checks every chunk's counts; a chunk the
			// batch's form pass left sparse holds exactly its lists.
			for k, b := range before {
				if a := after[k]; b.offs != nil && a.offs != nil && (!slices.Equal(a.offs, b.offs) || !slices.Equal(a.counts, b.counts)) {
					t.Fatalf("step %d: the refused batch changed sparse chunk %d", step, k)
				}
			}
		}
		for k, a := range after {
			if a.offs != nil && dense[k] {
				t.Fatalf("step %d: dense chunk %d turned sparse on a write", step, k)
			}
			if before[k].offs != nil && a.offs == nil {
				up++
			}
			dense[k] = a.offs == nil && a.counts != nil
		}
		checkForms(t, step, after, ref)
		if step%4 == 3 {
			checkLive(t, step, fld, ds.Snapshot(), ref)
		}
		for i, k := range snaps {
			if !slices.Equal(k.snap.Counts(), k.counts) {
				t.Fatalf("step %d: snapshot %d changed", step, i)
			}
		}
		if step%5 == 4 {
			e.mu.Lock()
			e.beginEvictLocked(ds)
			e.quiesceLocked()
			e.mu.Unlock()
			if ds.Resident() {
				t.Fatalf("step %d: the dataset is resident after its eviction", step)
			}
			if _, err := ds.SnapshotErr(); err != nil {
				t.Fatal(err)
			}
			back := headForms(ds)
			checkForms(t, step, back, ref)
			for k, a := range back {
				if dense[k] && a.offs != nil {
					down++
				}
			}
			clear(dense)
			for k, a := range back {
				nz := 0
				for _, c := range ref[k*w : (k+1)*w] {
					nz += min(1, int(magnitude(c)))
				}
				switch {
				case nz == 0 && a.counts != nil, nz > 0 && nz <= maxSparse(w) && a.offs == nil, nz > maxSparse(w) && a.offs != nil:
					t.Fatalf("step %d: chunk %d of %d non-zero counts rehydrated as %d listed (sparse %v)", step, k, nz, len(a.counts), a.offs != nil)
				}
				dense[k] = a.offs == nil && a.counts != nil
			}
		}
	}
	return up, down
}

// formsBatch returns a batch aimed at two of a table's four chunks: at
// random, the negation of an earlier accepted batch, or 1 to 600
// updates of small deltas, an occasional one of 2^61 (past p), at
// offsets drawn from a pool of a few hundred per chunk.
func formsBatch(rng *field.SplitMix64, applied [][2][]int64) ([]uint64, []int64) {
	const w = 1 << chunkShift
	if len(applied) > 0 && rng.Uint64()%3 == 0 {
		b := applied[rng.Uint64()%uint64(len(applied))]
		idx, deltas := make([]uint64, len(b[0])), make([]int64, len(b[1]))
		for k := range idx {
			idx[k], deltas[k] = uint64(b[0][k]), -b[1][k]
		}
		return idx, deltas
	}
	n := []int{1, 3, 40, 200, 600}[rng.Uint64()%5]
	first, second := rng.Uint64()%4, rng.Uint64()%4
	pool := 64 + rng.Uint64()%500
	idx, deltas := make([]uint64, n), make([]int64, n)
	for k := range idx {
		c := first
		if rng.Uint64()%2 == 0 {
			c = second
		}
		idx[k] = c*w + (rng.Uint64()%pool)*7%w
		deltas[k] = int64(rng.Uint64()%7) - 3
		if rng.Uint64()%50 == 0 {
			deltas[k] = 1 << 61
		}
	}
	return idx, deltas
}

// formsRecord returns a batch as formsBatch replays it.
func formsRecord(idx []uint64, deltas []int64) [2][]int64 {
	rec := [2][]int64{make([]int64, len(idx)), slices.Clone(deltas)}
	for k, i := range idx {
		rec[0][k] = int64(i)
	}
	return rec
}

// formsApply applies a batch to counts and their sum total, returning
// the new total, or false — counts then undefined — when a count or the
// total would leave int64.
func formsApply(counts []int64, total int64, idx []uint64, deltas []int64) (int64, bool) {
	for k, i := range idx {
		var ok bool
		if total, ok = addInt64(total, deltas[k]); !ok {
			return total, false
		}
		if counts[i], ok = addInt64(counts[i], deltas[k]); !ok {
			return total, false
		}
	}
	return total, true
}

// chunkForm is a copy of one chunk's form: its lists, or its counts and
// peak; counts nil for a nil chunk.
type chunkForm struct {
	offs   []uint16
	counts []int64
	peak   uint64
}

// headForms copies the resident head's chunks.
func headForms(d *Dataset) []chunkForm {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]chunkForm, len(d.head.chunks))
	for k, ch := range d.head.chunks {
		if ch != nil {
			out[k] = chunkForm{slices.Clone(ch.offs), slices.Clone(ch.counts), ch.maxCount()}
		}
	}
	return out
}

// checkForms checks every chunk's form and counts against ref.
func checkForms(t *testing.T, step int, forms []chunkForm, ref []int64) {
	t.Helper()
	const w = 1 << chunkShift
	for k, a := range forms {
		want := ref[k*w : (k+1)*w]
		got := make([]int64, w)
		var peak uint64
		for _, c := range want {
			peak = max(peak, magnitude(c))
		}
		switch {
		case a.counts == nil && a.offs == nil:
		case a.offs != nil:
			if len(a.offs) > maxSparse(w) || len(a.offs) != len(a.counts) {
				t.Fatalf("step %d: sparse chunk %d lists %d offsets and %d counts", step, k, len(a.offs), len(a.counts))
			}
			for j, o := range a.offs {
				if j > 0 && o <= a.offs[j-1] || a.counts[j] == 0 {
					t.Fatalf("step %d: sparse chunk %d lists offset %d (count %d) out of order or zero", step, k, o, a.counts[j])
				}
				got[o] = a.counts[j]
			}
			if a.peak != peak {
				t.Fatalf("step %d: sparse chunk %d has peak %d, want %d", step, k, a.peak, peak)
			}
		default:
			got = a.counts
			if a.peak < peak {
				t.Fatalf("step %d: dense chunk %d has peak %d below its largest |count| %d", step, k, a.peak, peak)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("step %d: chunk %d's counts differ from the reference", step, k)
		}
	}
}

// checkLive checks s's live pairs, and its chunks' memos, against the
// pairs of ref holding a count that is not 0 mod p.
func checkLive(t *testing.T, step int, f field.Field, s *Snapshot, ref []int64) {
	t.Helper()
	const half = 1 << (chunkShift - 1)
	var want []uint32
	for w := range len(ref) / 2 {
		if f.FromInt64(ref[2*w]) != 0 || f.FromInt64(ref[2*w+1]) != 0 {
			want = append(want, uint32(w))
		}
	}
	live := s.livePairs()
	if live.Sparse() != (len(want) <= sumcheck.MaxSparseLive(2, len(ref))) || live.Sparse() && !slices.Equal(live.Indices(), want) {
		t.Fatalf("step %d: live pairs (sparse %v, %d) differ from the reference's %d", step, live.Sparse(), live.Len(), len(want))
	}
	for k, ch := range s.st.chunks {
		var in []uint32
		for _, w := range want {
			if int(w)/half == k {
				in = append(in, w)
			}
		}
		if ch == nil {
			if in != nil {
				t.Fatalf("step %d: nil chunk %d holds live pairs", step, k)
			}
			continue
		}
		if int(ch.nlive) != len(in) || ch.live != nil && !slices.Equal(ch.live, in) {
			t.Fatalf("step %d: chunk %d memoized %d live pairs, want %d", step, k, ch.nlive, len(in))
		}
	}
}
