// Package stream defines the paper's input model and workload generators.
//
// The input (§2, "Input Model") is a sequence of updates (i, δ): an
// implicit vector a of length u starts at zero and each update performs
// a_i ← a_i + δ. Positive and negative δ are both allowed, which captures
// insertions, deletions, and key–value association. Both the verifier and
// the prover observe the same stream.
package stream

import (
	"fmt"
	"math"
	"sort"
)

// Update is one stream element: add Delta to the entry at Index.
type Update struct {
	Index uint64
	Delta int64
}

// RNG is the randomness source for generators (satisfied by
// field.SplitMix64; redeclared here to keep this package dependency-free).
type RNG interface {
	Uint64() uint64
}

// Apply replays updates onto a fresh length-u vector and returns it. It is
// the reference "ground truth" used by tests and by naive baselines; real
// verifiers never materialize this vector.
func Apply(updates []Update, u uint64) ([]int64, error) {
	a := make([]int64, u)
	for _, upd := range updates {
		if upd.Index >= u {
			return nil, fmt.Errorf("stream: index %d outside universe [0,%d)", upd.Index, u)
		}
		a[upd.Index] += upd.Delta
	}
	return a, nil
}

// SumDeltas returns Σ δ over the stream: for insert-only streams this is
// the stream length n used by the heavy-hitters threshold φn.
func SumDeltas(updates []Update) int64 {
	var n int64
	for _, u := range updates {
		n += u.Delta
	}
	return n
}

// UniformDeltas reproduces the workload of the paper's experiments (§5):
// u = n and "the number of occurrences of each item i was picked uniformly
// in the range [0,1000]". It emits exactly one update per index with
// delta uniform in [0, maxDelta].
func UniformDeltas(u uint64, maxDelta int64, rng RNG) []Update {
	out := make([]Update, u)
	for i := uint64(0); i < u; i++ {
		out[i] = Update{Index: i, Delta: int64(rng.Uint64() % uint64(maxDelta+1))}
	}
	return out
}

// UnitIncrements generates n updates each with δ=1 and a uniformly random
// index, the classic insert-only multiset stream (SELF-JOIN SIZE's
// promised form).
func UnitIncrements(u uint64, n int, rng RNG) []Update {
	out := make([]Update, n)
	for i := range out {
		out[i] = Update{Index: rng.Uint64() % u, Delta: 1}
	}
	return out
}

// Zipf generates n unit-increment updates whose indices follow a Zipf
// distribution with exponent s > 0 over [0, u): index k is drawn with
// probability proportional to 1/(k+1)^s. It is used by the skewed
// workloads (heavy hitters, Fmax). The sampler precomputes the cumulative
// distribution, so memory is O(u); keep u modest (≤ 2^24) in tests.
func Zipf(u uint64, n int, s float64, rng RNG) ([]Update, error) {
	if u == 0 || s <= 0 {
		return nil, fmt.Errorf("stream: invalid zipf parameters u=%d s=%v", u, s)
	}
	cdf := make([]float64, u)
	total := 0.0
	for k := uint64(0); k < u; k++ {
		total += 1.0 / math.Pow(float64(k+1), s)
		cdf[k] = total
	}
	out := make([]Update, n)
	for i := range out {
		// 53-bit uniform in [0,1).
		x := float64(rng.Uint64()>>11) / (1 << 53) * total
		idx := sort.SearchFloat64s(cdf, x)
		if uint64(idx) >= u {
			idx = int(u - 1)
		}
		out[i] = Update{Index: uint64(idx), Delta: 1}
	}
	return out, nil
}

// KVPair is a (key, value) association for DICTIONARY and RANGE-SUM style
// workloads, where every key is distinct.
type KVPair struct {
	Key, Value uint64
}

// DistinctKV draws n distinct keys uniformly from [0, u) and pairs each
// with a value uniform in [0, maxValue]. It returns the pairs sorted by
// key for reproducibility.
func DistinctKV(u uint64, n int, maxValue uint64, rng RNG) ([]KVPair, error) {
	if uint64(n) > u {
		return nil, fmt.Errorf("stream: cannot draw %d distinct keys from universe %d", n, u)
	}
	seen := make(map[uint64]bool, n)
	out := make([]KVPair, 0, n)
	for len(out) < n {
		k := rng.Uint64() % u
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, KVPair{Key: k, Value: rng.Uint64() % (maxValue + 1)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// KVUpdates converts key–value pairs to stream updates (value as delta).
func KVUpdates(pairs []KVPair) []Update {
	out := make([]Update, len(pairs))
	for i, p := range pairs {
		out[i] = Update{Index: p.Key, Delta: int64(p.Value)}
	}
	return out
}
