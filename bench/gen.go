package main

import (
	"hash/fnv"

	"repro/internal/field"
	"repro/internal/stream"
)

// rngFor derives an independent generator for one named input of a run:
// the same (seed, what) always yields the same inputs.
func rngFor(seed uint64, what string) *field.SplitMix64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(what)) // hash.Hash.Write never fails
	return field.NewSplitMix64(seed*0x9e3779b97f4a7c15 ^ h.Sum64())
}

// dataset is one generated stream plus the dense reference counts every
// answer is checked against.
type dataset struct {
	name   string
	u      uint64
	ups    []stream.Update
	counts []int64
}

func newDataset(name string, u uint64, ups []stream.Update) *dataset {
	d := &dataset{name: name, u: u, ups: ups, counts: make([]int64, u)}
	d.apply(ups)
	return d
}

func (d *dataset) apply(ups []stream.Update) {
	for _, up := range ups {
		d.counts[up.Index] += up.Delta
	}
}

// randomStream is n updates with uniform indices and deltas in [1,4] —
// the input of the F2-only workloads, whose conversation shape depends
// on u alone.
func randomStream(u uint64, n int, rng *field.SplitMix64) []stream.Update {
	ups := make([]stream.Update, n)
	for i := range ups {
		ups[i] = stream.Update{Index: rng.Uint64() % u, Delta: int64(rng.Uint64()%4) + 1}
	}
	return ups
}

// negate returns the batch that cancels ups. The write-side workloads
// alternate a batch with its negation, so dataset state is periodic in
// the cycle and a fresh verifier only ever observes a bounded stream.
func negate(ups []stream.Update) []stream.Update {
	out := make([]stream.Update, len(ups))
	for i, up := range ups {
		out[i] = stream.Update{Index: up.Index, Delta: -up.Delta}
	}
	return out
}

// plantedStream is the input of the mixed workload: light items at
// seed-independent positions (one per bucket of u/light indices) whose
// values are a seeded permutation of a fixed multiset, plus heavy items
// planted at fixed positions with fixed values, delivered in seeded
// order. Positions and the value multiset do not depend on the seed, so
// the words every query kind exchanges (sub-vector sizes, heavy-hitter
// frontiers, the F0/Fmax interpolation degree ⌈φ·Σδ⌉) repeat exactly
// across seeds; the answers to point and range queries still vary.
// Every heavy value exceeds the light total, so a threshold between the
// two separates them at every tree level.
func plantedStream(u uint64, light int, lightMax int64, heavy []int64, rng *field.SplitMix64) []stream.Update {
	bucket := u / uint64(light)
	vals := make([]int64, light)
	for j := range vals {
		vals[j] = int64(j)%lightMax + 1
	}
	shuffle(len(vals), rng, func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	ups := make([]stream.Update, 0, light+len(heavy))
	for j, v := range vals {
		ups = append(ups, stream.Update{Index: uint64(j)*bucket + (uint64(j)*7)%(bucket-1), Delta: v})
	}
	for h, v := range heavy {
		// A heavy item takes the last slot of its bucket, which no light
		// item uses, so every index is distinct (the DICTIONARY promise).
		j := uint64(h+1) * uint64(light) / uint64(len(heavy)+1)
		ups = append(ups, stream.Update{Index: j*bucket + bucket - 1, Delta: v})
	}
	shuffle(len(ups), rng, func(i, j int) { ups[i], ups[j] = ups[j], ups[i] })
	return ups
}

func shuffle(n int, rng *field.SplitMix64, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, int(rng.Uint64()%uint64(i+1)))
	}
}
