package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/parallel"
	"repro/internal/sumcheck"
)

// chunkShift sets the chunk of a dataset's tables: 2^12 entries, 64 KiB
// of counts and field elements. A table narrower than that is one chunk.
const chunkShift = 12

// chunk is 2^shift consecutive entries of a dataset's tables. It is
// written in place only by the unsealed table state whose gen it carries;
// every other state holding it shares it read-only and copies it before a
// write, so a sealed version's chunks never change.
//
// A chunk also memoizes its live pairs: counted once, single-flight, by
// the first snapshot that needs them, and shared by every version that
// holds the chunk. A copied chunk starts without them. The chunk lists
// its live pairs only while it would be held sparse on its own — at most
// a quarter of its pairs live, 4 bytes each, so at most 1/32 of its 64 KiB
// of table — and a denser chunk keeps just the count.
type chunk struct {
	counts []int64
	elems  []field.Elem
	gen    uint64 // the table state that may write the chunk in place

	scan  sync.Once
	nlive int      // live pairs of elems, once scan has run
	live  []uint32 // their indices in the whole table, when nlive is at most MaxSparseLive of the chunk
}

// scanLive memoizes the chunk's live pairs; first is the table's index of
// the chunk's first pair. scans counts the scans that run.
func (ch *chunk) scanLive(first int, scans *atomic.Uint64) {
	ch.scan.Do(func() {
		ch.live, ch.nlive = sumcheck.AppendLivePairs(nil, first, ch.elems, sumcheck.MaxSparseLive(2, len(ch.elems)))
		scans.Add(1)
	})
}

// gens issues table-state generations: each state writes in place only
// the chunks it allocated or copied itself.
var gens atomic.Uint64

// tableState is one immutable-once-sealed version of a dataset's
// aggregate state: its tables as chunks of 2^shift entries. A chunk no
// ingest has written is nil (all zero); a state rebuilt from a
// checkpoint holds every chunk. While unsealed it is mutated in place by
// ingestion; Snapshot seals it, and the next ingest clones it — the
// chunk-pointer array only, u/2^shift pointers — and copies each chunk it
// writes, once (copy-on-write per chunk).
//
// A sealed state also memoizes its live-pair scan (see
// Snapshot.livePairs), assembled from its chunks' memoized counts and
// lists: a version whose ingest touched m chunks scans those m chunks,
// 2^shift entries each, and reads every other chunk's memo as it stands.
// A state rebuilt from a checkpoint holds only unscanned chunks, so its
// first index reads its whole table once, as the rebuild did. A dense
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

// stateFromCounts builds an unsealed state whose counts are counts (a
// power-of-two length): its chunks alias counts, and their field images,
// one allocation like counts, are computed across workers. Every chunk is
// held, zeros or not, so the state owns its whole table as a resident
// dataset does.
func stateFromCounts(f field.Field, workers int, counts []int64) *tableState {
	st := newTableState(uint64(len(counts)))
	w := 1 << st.shift
	elems := make([]field.Elem, len(counts))
	build := func(_, lo, hi int) {
		for i, x := range counts[lo*w : hi*w] {
			elems[lo*w+i] = f.FromInt64(x)
		}
		for k := lo; k < hi; k++ {
			st.chunks[k] = &chunk{counts: counts[k*w : (k+1)*w : (k+1)*w], elems: elems[k*w : (k+1)*w : (k+1)*w], gen: st.gen}
		}
	}
	parallel.ForGrain(parallel.Workers(workers), len(st.chunks), max(1, minShardBatch/w), build)
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
// a copy, or all zeros for a nil chunk. A copy skips zeroing the memory it
// overwrites. The state owns a chunk that carries its gen.
func (st *tableState) own(k uint64) *chunk {
	ch := &chunk{gen: st.gen}
	if old := st.chunks[k]; old != nil {
		ch.counts, ch.elems = slices.Clone(old.counts), slices.Clone(old.elems)
	} else {
		ch.counts, ch.elems = make([]int64, 1<<st.shift), make([]field.Elem, 1<<st.shift)
	}
	st.chunks[k] = ch
	return ch
}

// countsOf and elemsOf pick a chunk's columns.
func countsOf(ch *chunk) []int64     { return ch.counts }
func elemsOf(ch *chunk) []field.Elem { return ch.elems }

// column returns one column of the state chunk by chunk, nil for nil
// chunks: the checkpoint codec and the sum-check prover read it in place.
func column[T any](st *tableState, col func(*chunk) []T) [][]T {
	out := make([][]T, len(st.chunks))
	for k, ch := range st.chunks {
		if ch != nil {
			out[k] = col(ch)
		}
	}
	return out
}

// flat returns one column of the state as a fresh flat table, zeros for
// nil chunks.
func flat[T any](st *tableState, col func(*chunk) []T) []T {
	out := make([]T, len(st.chunks)<<st.shift)
	for k, ch := range st.chunks {
		if ch != nil {
			copy(out[k<<st.shift:], col(ch))
		}
	}
	return out
}

// scanLive memoizes the sealed state's live-pair scan: it scans, across
// workers, the chunks no version has scanned yet, then totals every
// chunk's live pairs and, when that makes the table sparse, lists them in
// order. scans counts the chunk scans that run.
func (st *tableState) scanLive(workers int, scans *atomic.Uint64) sumcheck.LivePairs {
	st.liveOnce.Do(func() {
		half := 1 << (st.shift - 1)
		nw, grain := parallel.Workers(workers), max(1, parallel.MinGrain>>st.shift)
		sums := make([]int, parallel.ChunksGrain(nw, len(st.chunks), grain))
		parallel.ForGrain(nw, len(st.chunks), grain, func(task, lo, hi int) {
			sum := 0
			for k, ch := range st.chunks[lo:hi] {
				if ch != nil {
					ch.scanLive((lo+k)*half, scans)
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
					live, _ := sumcheck.AppendLivePairs(nil, k*half, ch.elems, ch.nlive)
					runs = append(runs, live)
				}
			}
		}
		st.live = sumcheck.LivePairsFromRuns(2, entries, n, runs)
	})
	return st.live
}
