package engine

import "repro/internal/sumcheck"

// LiveScans reports how many chunk memos d's table versions have run: each
// scans one chunk's counts for live pairs.
func LiveScans(d *Dataset) uint64 { return d.liveScans.Load() }

// SkeletonBuilds reports how many tree skeletons d's table versions have
// built, kept by a version's memo or not.
func SkeletonBuilds(d *Dataset) uint64 { return d.skelBuilds.Load() }

// LivePairsOf returns s's live-pair memo, scanning on first use.
func LivePairsOf(s *Snapshot) sumcheck.LivePairs { return s.livePairs() }

// ChunkEntries is the width of a table chunk at u ≥ 2^chunkShift.
const ChunkEntries = 1 << chunkShift

// HeldChunks reports how many chunks d's resident head holds (nil chunks
// are all zero and held by no one); 0 while d is not resident.
func HeldChunks(d *Dataset) int { return headChunks(d, func(*chunk) int { return 1 }) }

// ReducedChunks reports how many chunks d's resident head holds with a
// reduced copy of their counts built; 0 while d is not resident.
func ReducedChunks(d *Dataset) int {
	return headChunks(d, func(ch *chunk) int { return min(1, len(ch.reduced)) })
}

// ChunkBytes reports the bytes d's resident head holds in its chunks:
// their counts, reduced copies and live lists; 0 while d is not resident.
func ChunkBytes(d *Dataset) int {
	return headChunks(d, func(ch *chunk) int { return 8*len(ch.counts) + 8*len(ch.reduced) + 4*cap(ch.live) })
}

// headChunks sums size over the chunks d's resident head holds.
func headChunks(d *Dataset, size func(*chunk) int) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	if d.head != nil {
		for _, ch := range d.head.chunks {
			if ch != nil {
				n += size(ch)
			}
		}
	}
	return n
}
