package engine

import "repro/internal/sumcheck"

// LiveScans reports how many chunk memos d's table versions have run: each
// builds one chunk's field image and scans it for live pairs.
func LiveScans(d *Dataset) uint64 { return d.liveScans.Load() }

// LivePairsOf returns s's live-pair memo, scanning on first use.
func LivePairsOf(s *Snapshot) sumcheck.LivePairs { return s.livePairs() }

// ChunkEntries is the width of a table chunk at u ≥ 2^chunkShift.
const ChunkEntries = 1 << chunkShift

// HeldChunks reports how many chunks d's resident head holds (nil chunks
// are all zero and held by no one); 0 while d is not resident.
func HeldChunks(d *Dataset) int { return headChunks(d, func(*chunk) bool { return true }) }

// ImageChunks reports how many chunks d's resident head holds with their
// field image built; 0 while d is not resident.
func ImageChunks(d *Dataset) int {
	return headChunks(d, func(ch *chunk) bool { return ch.elems != nil })
}

func headChunks(d *Dataset, keep func(*chunk) bool) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := 0
	if d.head != nil {
		for _, ch := range d.head.chunks {
			if ch != nil && keep(ch) {
				n++
			}
		}
	}
	return n
}
