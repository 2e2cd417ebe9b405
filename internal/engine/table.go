package engine

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/field"
	"repro/internal/hashtree"
	"repro/internal/parallel"
	"repro/internal/store"
	"repro/internal/sumcheck"
)

// chunkShift sets the chunk of a dataset's tables: 2^12 entries, 32 KiB
// of counts. A table narrower than that is one chunk. It is the checkpoint
// format's chunk, so a checkpoint's records are the engine's chunks.
const chunkShift = store.ChunkShift

// chunk is 2^shift consecutive entries of a dataset's counts, held in
// one of two forms. A dense chunk is all 2^shift counts, 32 KiB. A
// sparse chunk lists only its non-zero counts, at most maxSparse of
// them, beside their offsets in increasing order: the layout of the
// checkpoint's sparse record, about 10 bytes per count. An ingest picks a
// written chunk's form before it writes it (tableState.add), and a
// rehydrate picks it from the checkpoint's record (store.DecodeChunks);
// a dense chunk never turns sparse on a write.
//
// A chunk is written in place only by the unsealed table state whose gen
// it carries; every other state holding it shares it read-only and
// copies it before a write, so a sealed version's chunks never change.
// Every write to a dense chunk keeps peak, an upper bound on its largest
// |count|; a sparse chunk reads its largest |count| off its few counts
// (maxCount).
//
// The counts are every prover's one input: the sum-check provers read
// them as field elements as they go (sumcheck.Counts, which carries both
// forms), which needs each |count| below p. A chunk also memoizes its
// live pairs — listed once, single-flight, by the first snapshot that
// needs them, and shared by every version that holds the chunk — and,
// when its largest |count| may reach p, a reduced copy of its counts,
// each in [0, p), which the sum-check provers read instead. A copied
// chunk starts without a memo, so a memoized chunk is never written. The
// chunk lists its live pairs only while it would be held sparse on its
// own — at most a quarter of its pairs live, 4 bytes each, so at most
// 1/16 of its 32 KiB of counts — and a denser chunk keeps just the count.
type chunk struct {
	counts []int64  // dense: the 2^shift counts; sparse: the non-zero ones, at offs
	offs   []uint16 // sparse: the offsets of counts, strictly increasing; nil for a dense chunk
	gen    uint64   // the table state that may write the chunk in place
	peak   uint64   // dense: at least the largest |count|

	memo    sync.Once
	nlive   int32    // live pairs of the counts, once memo has run; 32 bits beside memo keep a chunk at 128 bytes
	reduced []int64  // counts mod p, once memo has run, when maxCount may reach p
	live    []uint32 // their indices in the whole table, when nlive is at most MaxSparseLive of the chunk
}

// maxSparse is the most non-zero counts a chunk of width entries holds
// sparse: width/16, 256 of a 4096-entry chunk, the checkpoint decoder's
// rule, so a rehydrated chunk takes the form the ingest would give it.
func maxSparse(width int) int { return store.MaxSparse(uint64(width)) }

// maxCount returns at least the chunk's largest |count|.
func (ch *chunk) maxCount() uint64 {
	if ch.offs != nil {
		return peakOf(ch.counts)
	}
	return ch.peak
}

// at returns the count at offset j.
func (ch *chunk) at(j int) int64 {
	if ch.offs == nil {
		return ch.counts[j]
	}
	if k, ok := slices.BinarySearch(ch.offs, uint16(j)); ok {
		return ch.counts[k]
	}
	return 0
}

// put sets the count at offset j to c: in place in a dense chunk; in a
// sparse one by replacing, inserting or removing its entry, so that the
// chunk lists no zero.
func (ch *chunk) put(j int, c int64) {
	if ch.offs == nil {
		ch.counts[j] = c
		return
	}
	k, ok := slices.BinarySearch(ch.offs, uint16(j))
	switch {
	case ok && c != 0:
		ch.counts[k] = c
	case ok:
		ch.offs, ch.counts = slices.Delete(ch.offs, k, k+1), slices.Delete(ch.counts, k, k+1)
	case c != 0:
		ch.offs, ch.counts = slices.Insert(ch.offs, k, uint16(j)), slices.Insert(ch.counts, k, c)
	}
}

// memoize lists the chunk's live pairs, through a reduced copy of its
// counts it builds first when they may reach p; the chunk is entries
// [2·first, 2·first+width) of the table. scans counts the memos that
// run.
func (ch *chunk) memoize(f field.Field, first, width int, scans *atomic.Uint64) {
	ch.memo.Do(func() {
		if ch.maxCount() >= f.Modulus() {
			ch.reduced = sumcheck.ReducedCounts(f, ch.counts)
		}
		var n int
		ch.live, n = ch.appendLive(nil, first, sumcheck.MaxSparseLive(2, width))
		ch.nlive = int32(n)
		scans.Add(1)
	})
}

// appendLive appends the chunk's live pairs to dst and returns their
// count n, as sumcheck.AppendLiveCounts does over its proved counts: pair
// first+w for each pair w holding a count that is not 0 mod p, dst as
// given when n > limit. A sparse chunk reads its listed counts only, into
// a list of its own size when dst is nil. It reads the memo, so it is
// called only from memoize or after it.
func (ch *chunk) appendLive(dst []uint32, first, limit int) ([]uint32, int) {
	proved := ch.proved()
	if ch.offs == nil {
		return sumcheck.AppendLiveCounts(dst, first, proved, limit)
	}
	given, n, prev := dst, 0, -1
	if dst == nil {
		dst = make([]uint32, 0, len(ch.offs))
	}
	for j, o := range ch.offs {
		if w := first + int(o>>1); proved[j] != 0 && w != prev {
			if n++; n <= limit {
				dst = append(dst, uint32(w))
			}
			prev = w
		}
	}
	if n > limit {
		return given, n
	}
	return dst, n
}

// proved returns the counts the sum-check provers read: the reduced copy
// when the memo built one, else the counts themselves, in the chunk's
// form. It reads the memo, so it is called only after memoize.
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
// copies the chunks' lists, and lists afresh any chunk too dense to keep
// a list, into one index of the version's own: at most 4 bytes per live
// pair, 1/32 of the table bytes of a sparse version. Its opening, which
// the version's first sparse proof builds, adds the live pairs' values,
// 16 bytes per live pair, and a first message per Fk combiner.
//
// A sealed state memoizes its tree skeleton too (treeSkeleton), on the
// first tree query of its version, when it has at most as many leaves as
// a sparse version has live pairs; tableBytes charges the most such a
// skeleton holds. The memo lives and dies with the state: the next
// ingest's clone starts without one, and a version no query reaches
// again is collected with it.
type tableState struct {
	shift   uint
	chunks  []*chunk
	tally   []uint32 // add's per-chunk update tally, all zero between batches; shared along a dataset's states
	gen     uint64
	total   int64
	n       uint64 // updates ingested
	version uint64 // ingest batches applied; the proof-cache key component
	sealed  bool

	liveOnce sync.Once
	live     sumcheck.LivePairs // the live-pair scan of the elements, once liveOnce has run

	skelOnce sync.Once
	skel     *hashtree.Skeleton // the tree skeleton of the counts, once skelOnce has run, if kept
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
// two) holding the given chunks, in the form each is given in, each with
// its Peak: every held chunk aliases its counts. A chunk not given stays
// nil.
func stateFromChunks(u uint64, chunks []store.Chunk) *tableState {
	st := newTableState(u)
	for _, c := range chunks {
		st.chunks[c.Index] = &chunk{counts: c.Counts, offs: c.Offsets, gen: st.gen, peak: c.Peak}
	}
	return st
}

// clone returns an unsealed successor sharing every chunk, and the
// ingest's tally.
func (st *tableState) clone() *tableState {
	return &tableState{
		shift:   st.shift,
		chunks:  slices.Clone(st.chunks),
		tally:   st.tally,
		gen:     gens.Add(1),
		total:   st.total,
		n:       st.n,
		version: st.version,
	}
}

// own replaces chunk k with one the state owns, before its first write,
// with room for the inserts non-zero counts the batch may add to it: a
// copy of a dense chunk, dense; else a copy of a sparse chunk's lists, or
// empty lists for a nil chunk, while its non-zero counts and inserts fit
// in maxSparse; else the chunk's counts written out dense. A dense copy
// skips zeroing the memory it overwrites. The state owns a chunk that
// carries its gen.
func (st *tableState) own(k uint64, inserts int) *chunk {
	ch, old := &chunk{gen: st.gen}, st.chunks[k]
	width := 1 << st.shift
	switch {
	case old != nil && old.offs == nil:
		ch.counts, ch.peak = slices.Clone(old.counts), old.peak
	case old == nil && inserts <= maxSparse(width):
		ch.offs, ch.counts = make([]uint16, 0, inserts), make([]int64, 0, inserts)
	case old == nil:
		ch.counts = make([]int64, width)
	case len(old.offs)+inserts <= maxSparse(width):
		n := len(old.offs) + inserts
		ch.offs = append(make([]uint16, 0, n), old.offs...)
		ch.counts = append(make([]int64, 0, n), old.counts...)
	default:
		sparse := sumcheck.Counts{Width: width, Chunks: [][]int64{old.counts}, Offsets: [][]uint16{old.offs}}
		ch.counts, ch.peak = sparse.Expand(0, make([]int64, width)), peakOf(old.counts)
	}
	st.chunks[k] = ch
	return ch
}

// add applies a batch to the unsealed state's counts in one serial pass,
// in batch order: index idx[k]-base gains deltas[k]. First it picks the
// form of each chunk the batch writes: it tallies the batch's updates to
// each chunk not held dense, and owns each such chunk once, dense when
// its non-zero counts and its updates could pass maxSparse — so no batch
// inserts into a sparse chunk more than maxSparse times — and leaves a
// dense chunk to the pass, which owns it on its first write. When a count
// would leave int64 it applies none of the batch, taking back, last
// first, what it had added (a sparse chunk's lists exactly, since they
// hold no zero), and refuses it.
func (st *tableState) add(idx []uint64, deltas []int64, base uint64) error {
	mask := uint64(1)<<st.shift - 1
	chunks, shift, gen := st.chunks, st.shift, st.gen // own writes elements, never the header
	if st.tally == nil {
		st.tally = make([]uint32, len(chunks))
	}
	tally := st.tally
	for _, i := range idx {
		k := (i - base) >> shift
		if ch := chunks[k]; ch == nil || ch.offs != nil {
			tally[k]++
		}
	}
	for _, i := range idx {
		k := (i - base) >> shift
		if n := int(tally[k]); n != 0 {
			tally[k] = 0
			if ch := chunks[k]; ch == nil || ch.gen != gen || len(ch.offs)+n > maxSparse(1<<shift) {
				st.own(k, n)
			}
		}
	}
	for k, i := range idx {
		i -= base // slice tables are indexed locally
		ch := chunks[i>>shift]
		if ch.gen != gen {
			ch = st.own(i>>shift, 0) // dense: the form pass owned every other chunk
		}
		if ch.offs != nil {
			j := int(i & mask)
			c, ok := addInt64(ch.at(j), deltas[k])
			if !ok {
				return st.takeBack(idx[:k], deltas, base, idx[k])
			}
			ch.put(j, c)
			continue
		}
		c, ok := addInt64(ch.counts[i&mask], deltas[k])
		if !ok {
			return st.takeBack(idx[:k], deltas, base, idx[k])
		}
		ch.counts[i&mask] = c
		ch.peak = max(ch.peak, magnitude(c))
	}
	return nil
}

// takeBack undoes the first len(idx) updates of a batch, last first, and
// returns the refusal of the update at index over.
func (st *tableState) takeBack(idx []uint64, deltas []int64, base, over uint64) error {
	mask := uint64(1)<<st.shift - 1
	for back := len(idx) - 1; back >= 0; back-- {
		i := idx[back] - base
		ch, j := st.chunks[i>>st.shift], int(i&mask)
		ch.put(j, ch.at(j)-deltas[back])
	}
	return errOverflow(over)
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
				c = ch.at(int((i - base) & mask))
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
// from each chunk in its form, nil for nil chunks and for sparse chunks
// that list nothing: the provers read them in place, as a
// sumcheck.Counts.
func column(st *tableState, col func(*chunk) []int64) sumcheck.Counts {
	out := sumcheck.Counts{Width: 1 << st.shift, Chunks: make([][]int64, len(st.chunks))}
	for k, ch := range st.chunks {
		switch {
		case ch == nil:
		case ch.offs == nil:
			out.Chunks[k] = col(ch)
		case len(ch.offs) > 0:
			if out.Offsets == nil {
				out.Offsets = make([][]uint16, len(st.chunks))
			}
			out.Chunks[k], out.Offsets[k] = col(ch), ch.offs
		}
	}
	return out
}

// countChunks returns the state's counts chunk by chunk, borrowed:
// CIRCUIT reads them in place, and the hash-tree kinds, F0 and Fmax
// read the tree skeleton built from them (treeSkeleton).
func (st *tableState) countChunks() sumcheck.Counts {
	return column(st, func(ch *chunk) []int64 { return ch.counts })
}

// treeSkeleton returns the tree skeleton of the sealed state's counts,
// shaped for a universe of u. The state's first call builds it,
// single-flight, and keeps it when it has at most
// sumcheck.MaxSparseLive(2, entries) leaves, the bound tableBytes
// charges for; every later call shares a kept skeleton, or builds its
// own, kept by no one, when the first was too dense to keep. builds
// counts the skeletons built.
func (st *tableState) treeSkeleton(f field.Field, u uint64, builds *atomic.Uint64) (*hashtree.Skeleton, error) {
	build := func() (*hashtree.Skeleton, error) {
		params, err := hashtree.ParamsForUniverse(u)
		if err != nil {
			return nil, err
		}
		builds.Add(1)
		return hashtree.NewSkeleton(f, params, st.countChunks())
	}
	var sk *hashtree.Skeleton
	var err error
	first := false
	st.skelOnce.Do(func() {
		first = true
		if sk, err = build(); err != nil {
			return
		}
		if leaves, _ := sk.Leaves(); len(leaves) <= sumcheck.MaxSparseLive(2, len(st.chunks)<<st.shift) {
			st.skel = sk
		}
	})
	switch {
	case first:
		return sk, err
	case st.skel != nil:
		return st.skel, nil
	}
	return build()
}

// scanLive memoizes the sealed state's live-pair scan: it runs, across
// workers, the memo of each chunk no version has memoized yet (its live
// pairs, and its reduced copy when it needs one), then totals every
// chunk's live pairs and, when that makes the table sparse, lists them in
// order, in one index of the version's own. A sparse scan also carries
// the version's opening (sumcheck.LivePairs), which the first sparse
// prover over the version builds and every later one borrows. scans
// counts the chunk memos that run.
func (st *tableState) scanLive(f field.Field, workers int, scans *atomic.Uint64) sumcheck.LivePairs {
	st.liveOnce.Do(func() {
		half := 1 << (st.shift - 1)
		nw, grain := parallel.Workers(workers), max(1, parallel.MinGrain>>st.shift)
		sums := make([]int, parallel.ChunksGrain(nw, len(st.chunks), grain))
		parallel.ForGrain(nw, len(st.chunks), grain, func(task, lo, hi int) {
			sum := 0
			for k, ch := range st.chunks[lo:hi] {
				if ch != nil {
					ch.memoize(f, (lo+k)*half, 1<<st.shift, scans)
					sum += int(ch.nlive)
				}
			}
			sums[task] = sum
		})
		entries, n := len(st.chunks)<<st.shift, 0
		for _, x := range sums {
			n += x
		}
		var idx []uint32
		if n <= sumcheck.MaxSparseLive(2, entries) {
			idx = make([]uint32, 0, n)
			for k, ch := range st.chunks {
				switch {
				case ch == nil || ch.nlive == 0:
				case ch.live != nil:
					idx = append(idx, ch.live...)
				default: // too dense to keep a list of its own
					idx, _ = ch.appendLive(idx, k*half, int(ch.nlive))
				}
			}
		}
		st.live = sumcheck.LivePairsFromRuns(2, entries, n, [][]uint32{idx})
	})
	return st.live
}
