package engine

import "repro/internal/sumcheck"

// LiveScans reports how many chunk live-pair scans d's table versions have run.
func LiveScans(d *Dataset) uint64 { return d.liveScans.Load() }

// LivePairsOf returns s's live-pair memo, scanning on first use.
func LivePairsOf(s *Snapshot) sumcheck.LivePairs { return s.livePairs() }

// ChunkEntries is the width of a table chunk at u ≥ 2^chunkShift.
const ChunkEntries = 1 << chunkShift
