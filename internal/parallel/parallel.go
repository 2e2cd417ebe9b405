// Package parallel provides the deterministic fork–join primitives behind
// the prover-side hot paths. The prover work in the protocols of
// Cormode–Thaler–Yi — per-round sum-check messages, table folding,
// hash-tree levels, GKR gate loops — is a reduction over a large contiguous
// table, which makes it embarrassingly parallel: the table is split into
// contiguous chunks, each chunk is processed by one goroutine, and the
// per-chunk partial results are combined in chunk order. Because all field
// arithmetic is exact (no floating point), the combined result is
// bit-identical regardless of the worker count; chunk-ordered reduction
// keeps even non-commutative combiners deterministic.
package parallel

import (
	"runtime"
	"sync"
)

// MinGrain is the smallest chunk worth a goroutine. Below this the
// fork–join overhead (≈ a few µs) exceeds the arithmetic saved, so For
// silently degrades to a serial loop. Exported so benchmarks can size
// workloads meaningfully.
const MinGrain = 1 << 11

// Workers resolves a worker-count option shared by every prover in this
// repository: n > 0 is used as given, n == 0 selects the serial path (one
// worker, the default), and n < 0 selects runtime.NumCPU().
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n < 0:
		return runtime.NumCPU()
	default:
		return 1
	}
}

// For splits [0, n) into at most `workers` contiguous chunks and runs
// body(chunk, lo, hi) for each, concurrently when that is worthwhile. The
// chunk index is dense in [0, Chunks(workers, n)), so callers can write
// per-chunk partials into a pre-sized slice and reduce them in chunk
// order. For never runs more than one body on the same chunk, and returns
// only after every body has returned.
//
// For assumes cheap per-index work (one field operation or so) and
// applies the MinGrain floor; when each index is itself a large unit of
// work (e.g. one O(u) polynomial evaluation), use ForGrain with a smaller
// grain.
func For(workers, n int, body func(chunk, lo, hi int)) {
	ForGrain(workers, n, MinGrain, body)
}

// ForGrain is For with an explicit minimum chunk size.
func ForGrain(workers, n, grain int, body func(chunk, lo, hi int)) {
	w := span(workers, n, grain)
	if w <= 1 {
		if n > 0 {
			body(0, 0, n)
		}
		return
	}
	chunk := (n + w - 1) / w
	var wg sync.WaitGroup
	c := 0
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(c, lo, hi int) {
			defer wg.Done()
			body(c, lo, hi)
		}(c, lo, hi)
		c++
	}
	wg.Wait()
}

// Chunks reports how many chunks For(workers, n, …) will use, so callers
// can pre-size their partial-result slices.
func Chunks(workers, n int) int {
	return ChunksGrain(workers, n, MinGrain)
}

// ChunksGrain is Chunks for a ForGrain call with the same grain.
func ChunksGrain(workers, n, grain int) int {
	w := span(workers, n, grain)
	if w <= 1 {
		if n <= 0 {
			return 0
		}
		return 1
	}
	chunk := (n + w - 1) / w
	return (n + chunk - 1) / chunk
}

// span clamps the worker count so every chunk has at least grain
// elements; tiny inputs run serially.
func span(workers, n, grain int) int {
	if grain < 1 {
		grain = 1
	}
	if workers > n/grain {
		workers = n / grain
	}
	return workers
}
