package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/sumcheck"
)

// chunkShift sets the chunk of a dataset's tables: 2^12 entries, 32 KiB
// of counts. A table narrower than that is one chunk. It is the checkpoint
// format's chunk, so a checkpoint's records are the engine's chunks.
const chunkShift = store.ChunkShift

// chunk is 2^shift consecutive entries of a dataset's counts: 32 KiB. It
// is written in place only by the unsealed table state whose gen it
// carries; every other state holding it shares it read-only and copies
// its counts before a write, so a sealed version's chunks never change.
// Every write keeps peak, an upper bound on the chunk's largest |count|.
//
// The counts are every prover's one input: the sum-check provers read
// them as field elements as they go (sumcheck.Counts), which needs each
// |count| below p. A chunk also memoizes its live pairs — scanned once,
// single-flight, by the first snapshot that needs them, and shared by
// every version that holds the chunk — and, when its peak may reach p,
// a reduced copy of its counts, each in [0, p), which the sum-check
// provers read instead. A copied chunk starts without a memo, so a
// memoized chunk is never written. The chunk lists its live pairs only
// while it would be held sparse on its own — at most a quarter of its
// pairs live, 4 bytes each, so at most 1/16 of its 32 KiB of counts —
// and a denser chunk keeps just the count.
type chunk struct {
	counts []int64
	gen    uint64 // the table state that may write the chunk in place
	peak   uint64 // at least the largest |count|

	memo    sync.Once
	reduced []int64  // counts mod p, once memo has run, when peak may reach p
	nlive   int      // live pairs of the counts, once memo has run
	live    []uint32 // their indices in the whole table, when nlive is at most MaxSparseLive of the chunk
}

// memoize scans the chunk's counts for live pairs, through a reduced copy
// it builds first when the chunk's peak may reach p; first is the table's
// index of the chunk's first pair. scans counts the memos that run.
func (ch *chunk) memoize(f field.Field, first int, scans *atomic.Uint64) {
	ch.memo.Do(func() {
		if ch.peak >= f.Modulus() {
			ch.reduced = sumcheck.ReducedCounts(f, ch.counts)
		}
		ch.live, ch.nlive = sumcheck.AppendLiveCounts(nil, first, ch.proved(), sumcheck.MaxSparseLive(2, len(ch.counts)))
		scans.Add(1)
	})
}

// proved returns the counts the sum-check provers read: the reduced copy
// when the memo built one, else the counts themselves. It reads the memo,
// so it is called only after memoize.
func (ch *chunk) proved() []int64 {
	if ch.reduced != nil {
		return ch.reduced
	}
	return ch.counts
}

// magnitude returns |c| as a uint64, without a branch (MinInt64 included).
func magnitude(c int64) uint64 {
	m := uint64(c >> 63)
	return (uint64(c) ^ m) - m
}

// peakOf returns the largest |count| of counts.
func peakOf(counts []int64) uint64 {
	var peak uint64
	for _, c := range counts {
		peak = max(peak, magnitude(c))
	}
	return peak
}

// gens issues table-state generations: each state writes in place only
// the chunks it allocated or copied itself.
var gens atomic.Uint64

// tableState is one immutable-once-sealed version of a dataset's
// aggregate state: its tables as chunks of 2^shift entries. A chunk no
// ingest has written is nil (all zero); a state rebuilt from a
// checkpoint holds the chunks the checkpoint has records of. While
// unsealed it is mutated in place by ingestion; Snapshot seals it, and
// the next ingest clones it — the chunk-pointer array only, u/2^shift
// pointers — and copies each chunk it writes, once (copy-on-write per
// chunk).
//
// A sealed state also memoizes its live-pair scan (see
// Snapshot.livePairs), assembled from its chunks' memoized counts and
// lists: a version whose ingest touched m chunks scans those m chunks,
// 2^shift entries each, and reads every other chunk's memo as it stands.
// A state rebuilt from a checkpoint holds only unscanned chunks, so its
// first index reads every held chunk once, as the rebuild did. A dense
// verdict, reached on the summed counts, lists nothing. A sparse one
// links the chunks' lists and lists afresh, into an index of the
// version's own, any chunk too dense to keep a list: at most 4 bytes per
// live pair, 1/32 of the table bytes of a sparse version.
type tableState struct {
	shift   uint
	chunks  []*chunk
	gen     uint64
	total   int64
	n       uint64 // updates ingested
	version uint64 // ingest batches applied; the proof-cache key component
	sealed  bool

	liveOnce sync.Once
	live     sumcheck.LivePairs // the live-pair scan of the elements, once liveOnce has run
}

// newTableState returns an all-zero state of u entries (u a power of
// two): every chunk nil.
func newTableState(u uint64) *tableState {
	shift := uint(chunkShift)
	for uint64(1)<<shift > u {
		shift--
	}
	return &tableState{shift: shift, chunks: make([]*chunk, u>>shift), gen: gens.Add(1)}
}

// stateFromChunks builds an unsealed state of u entries (u a power of
// two) holding the given chunks, 2^shift counts each: every held chunk
// aliases its counts. A chunk not given stays nil.
func stateFromChunks(u uint64, chunks []store.Chunk) *tableState {
	st := newTableState(u)
	for _, c := range chunks {
		st.chunks[c.Index] = &chunk{counts: c.Counts, gen: st.gen, peak: peakOf(c.Counts)}
	}
	return st
}

// clone returns an unsealed successor sharing every chunk.
func (st *tableState) clone() *tableState {
	return &tableState{
		shift:   st.shift,
		chunks:  slices.Clone(st.chunks),
		gen:     gens.Add(1),
		total:   st.total,
		n:       st.n,
		version: st.version,
	}
}

// own replaces chunk k with one the state owns, before its first write:
// a copy of its counts, or all zeros for a nil chunk. A copy skips zeroing
// the memory it overwrites. The state owns a chunk that carries its gen.
func (st *tableState) own(k uint64) *chunk {
	ch := &chunk{gen: st.gen}
	if old := st.chunks[k]; old != nil {
		ch.counts, ch.peak = slices.Clone(old.counts), old.peak
	} else {
		ch.counts = make([]int64, 1<<st.shift)
	}
	st.chunks[k] = ch
	return ch
}

// add applies a batch to the unsealed state's counts: index idx[k]-base
// gains deltas[k]. When a count would leave int64 it applies none of the
// batch, taking back, last first, what it had added, and refuses it.
//
// Large batches over tables of at least as many chunks as workers go
// through a sharded scatter: a stable O(n) counting sort groups update
// positions by chunk, then each worker applies the updates of a
// contiguous run of chunks in batch order; a chunk that refuses an
// update takes back its own, and on any refusal the workers then take
// back every chunk they applied whole, and check, on the restored
// counts, names the update the serial application refuses. No two
// workers touch one chunk and per-index order is preserved, so the
// result is the serial left-to-right application's for every worker
// count, and each copy-on-write copy is made once.
func (st *tableState) add(idx []uint64, deltas []int64, base uint64, workers int) error {
	mask := uint64(1)<<st.shift - 1
	nw := parallel.Workers(workers)
	if nw <= 1 || len(idx) < minShardBatch || len(st.chunks) < nw {
		chunks, shift, gen := st.chunks, st.shift, st.gen // own writes elements, never the header
		for k, i := range idx {
			i -= base // slice tables are indexed locally
			ch := chunks[i>>shift]
			if ch == nil || ch.gen != gen {
				ch = st.own(i >> shift)
			}
			c, ok := addInt64(ch.counts[i&mask], deltas[k])
			if !ok {
				for back := k - 1; back >= 0; back-- {
					j := idx[back] - base
					chunks[j>>shift].counts[j&mask] -= deltas[back]
				}
				return errOverflow(idx[k])
			}
			ch.counts[i&mask] = c
			ch.peak = max(ch.peak, magnitude(c))
		}
		return nil
	}
	nc := len(st.chunks)
	start := make([]int, nc+1)
	for _, i := range idx {
		start[(i-base)>>st.shift+1]++
	}
	for c := 0; c < nc; c++ {
		start[c+1] += start[c]
	}
	pos := make([]int32, len(idx))
	next := slices.Clone(start[:nc])
	for k, i := range idx {
		c := (i - base) >> st.shift
		pos[next[c]] = int32(k)
		next[c]++
	}
	// undo takes back the updates of chunk c's positions ks, last first.
	undo := func(c int, ks []int32) {
		for n := len(ks) - 1; n >= 0; n-- {
			k := ks[n]
			st.chunks[c].counts[(idx[k]-base)&mask] -= deltas[k]
		}
	}
	bad := make([]bool, nc) // the chunks that refused an update
	parallel.ForGrain(nw, nc, 1, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			ks := pos[start[c]:start[c+1]]
			if len(ks) == 0 {
				continue
			}
			ch := st.chunks[c]
			if ch == nil || ch.gen != st.gen {
				ch = st.own(uint64(c))
			}
			for n, k := range ks {
				j := (idx[k] - base) & mask
				x, ok := addInt64(ch.counts[j], deltas[k])
				if !ok {
					undo(c, ks[:n])
					bad[c] = true
					break
				}
				ch.counts[j] = x
				ch.peak = max(ch.peak, magnitude(x))
			}
		}
	})
	if !slices.Contains(bad, true) {
		return nil
	}
	parallel.ForGrain(nw, nc, 1, func(_, lo, hi int) {
		for c := lo; c < hi; c++ {
			if !bad[c] {
				undo(c, pos[start[c]:start[c+1]])
			}
		}
	})
	return st.check(idx, deltas, base) // on the restored counts: the serial application's refusal
}

// check returns the refusal add would give the batch, writing nothing:
// it follows each index's count through the batch in order.
func (st *tableState) check(idx []uint64, deltas []int64, base uint64) error {
	mask := uint64(1)<<st.shift - 1
	seen := make(map[uint64]int64)
	for k, i := range idx {
		c, ok := seen[i]
		if !ok {
			if ch := st.chunks[(i-base)>>st.shift]; ch != nil {
				c = ch.counts[(i-base)&mask]
			}
		}
		if c, ok = addInt64(c, deltas[k]); !ok {
			return errOverflow(i)
		}
		seen[i] = c
	}
	return nil
}

// column returns the state's counts chunk by chunk, as col picks them
// from each chunk, nil for nil chunks: the provers read them in place, as
// a sumcheck.Counts.
func column(st *tableState, col func(*chunk) []int64) sumcheck.Counts {
	out := sumcheck.Counts{Width: 1 << st.shift, Chunks: make([][]int64, len(st.chunks))}
	for k, ch := range st.chunks {
		if ch != nil {
			out.Chunks[k] = col(ch)
		}
	}
	return out
}

// scanLive memoizes the sealed state's live-pair scan: it runs, across
// workers, the memo of each chunk no version has memoized yet (its live
// pairs, and its reduced copy when it needs one), then totals every
// chunk's live pairs and, when that makes the table sparse, lists them in
// order. scans counts the chunk memos that run.
func (st *tableState) scanLive(f field.Field, workers int, scans *atomic.Uint64) sumcheck.LivePairs {
	st.liveOnce.Do(func() {
		half := 1 << (st.shift - 1)
		nw, grain := parallel.Workers(workers), max(1, parallel.MinGrain>>st.shift)
		sums := make([]int, parallel.ChunksGrain(nw, len(st.chunks), grain))
		parallel.ForGrain(nw, len(st.chunks), grain, func(task, lo, hi int) {
			sum := 0
			for k, ch := range st.chunks[lo:hi] {
				if ch != nil {
					ch.memoize(f, (lo+k)*half, scans)
					sum += ch.nlive
				}
			}
			sums[task] = sum
		})
		entries, n := len(st.chunks)<<st.shift, 0
		for _, x := range sums {
			n += x
		}
		var runs [][]uint32
		if n <= sumcheck.MaxSparseLive(2, entries) {
			runs = make([][]uint32, 0, len(st.chunks))
			for k, ch := range st.chunks {
				switch {
				case ch == nil || ch.nlive == 0:
				case ch.live != nil:
					runs = append(runs, ch.live)
				default: // too dense to keep a list of its own
					live, _ := sumcheck.AppendLiveCounts(nil, k*half, ch.proved(), ch.nlive)
					runs = append(runs, live)
				}
			}
		}
		st.live = sumcheck.LivePairsFromRuns(2, entries, n, runs)
	})
	return st.live
}
