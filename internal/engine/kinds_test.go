package engine_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestKindTable is the kind table's completeness test: every QueryKind
// constant has a row that yields a verifier, a snapshot prover and a
// replay prover for every worker count; the seam — a partial prover and
// a combiner, both or neither — is exactly {SELF-JOIN SIZE, Fk,
// RANGE-SUM}; and an unknown kind is refused in the same words by all
// five entry points.
func TestKindTable(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 10, field.NewSplitMix64(906))
	cases := append(allKinds(), circuitF2, kindCase{kind: 0}, kindCase{kind: 99})
	seam := map[engine.QueryKind]bool{engine.QuerySelfJoinSize: true, engine.QueryFk: true, engine.QueryRangeSum: true}

	for _, workers := range []int{0, 2, -1} {
		ds, err := engine.NewDataset(f61, u, workers)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		snap := ds.Snapshot()
		for k, c := range cases {
			// The known kinds come first, every constant once and in order
			// (a short list would put kind 0 among them).
			known := k < int(engine.QueryCircuit)
			if known && c.kind != engine.QueryKind(k+1) {
				t.Fatalf("case %d is kind %d: allKinds() + CIRCUIT must name every constant, in order", k, c.kind)
			}
			_, v := engine.NewStreamVerifier(f61, u, c.kind, c.params, field.NewSplitMix64(1))
			_, sp := snap.NewProver(c.kind, c.params)
			_, rp := engine.NewReplayProver(f61, u, c.kind, c.params, ups, workers)
			_, pp := snap.NewPartialProver(c.kind, c.params)
			_, comb := engine.SplitCombiner(f61, u, c.kind, c.params)
			for i, err := range []error{v, sp, rp, pp, comb} {
				name := fmt.Sprintf("kind=%d/workers=%d: entry point %d", c.kind, workers, i+1)
				switch {
				case !known:
					if want := fmt.Sprintf("engine: unknown query kind %d", c.kind); err == nil || err.Error() != want {
						t.Errorf("%s: %v, want %q", name, err, want)
					}
				case i < 3 || seam[c.kind]:
					if err != nil {
						t.Errorf("%s: %v", name, err)
					}
				case !errors.Is(err, engine.ErrNotSplittable):
					t.Errorf("%s, outside the seam: %v, want ErrNotSplittable", name, err)
				}
			}
		}
	}
}
