package engine_test

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestKindTable is the kind table's completeness test: conformance.Cases,
// the one kind list every transcript test iterates, names every
// QueryKind constant once, in order, CIRCUIT last; every constant has a
// row that yields a verifier, a snapshot prover and a replay prover for
// every worker count; the snapshot prover has no Observe (its one input
// is the table it borrows) and a full conversation leaves the snapshot's
// tables untouched; the seam — a partial prover and a combiner, both or
// neither — is exactly {SELF-JOIN SIZE, Fk, RANGE-SUM}; and an unknown
// kind is refused in the same words by all five entry points.
func TestKindTable(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 10, field.NewSplitMix64(906))
	cases := append(slices.Clone(conformance.Cases), conformance.Case{Kind: 0}, conformance.Case{Kind: 99})
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
		counts := append([]int64(nil), snap.Counts()...)
		for k, c := range cases {
			// The known kinds come first, every constant once and in order
			// (a short list would put kind 0 among them).
			known := k < int(engine.QueryCircuit)
			if known && c.Kind != engine.QueryKind(k+1) {
				t.Fatalf("case %d is kind %d: conformance.Cases must name every constant, in order, CIRCUIT last", k, c.Kind)
			}
			verifier, v := engine.NewStreamVerifier(f61, u, c.Kind, c.Params, field.NewSplitMix64(1))
			prover, sp := snap.NewProver(c.Kind, c.Params)
			_, rp := engine.NewReplayProver(f61, u, c.Kind, c.Params, ups, workers)
			_, pp := snap.NewPartialProver(c.Kind, c.Params)
			_, comb := engine.SplitCombiner(f61, u, c.Kind, c.Params)
			if known && v == nil && sp == nil {
				if _, ok := prover.(interface{ Observe(stream.Update) error }); ok {
					t.Errorf("kind=%d/workers=%d: the snapshot prover has an Observe method", c.Kind, workers)
				}
				for _, up := range ups {
					if err := verifier.Observe(up); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := core.Run(prover, verifier); err != nil {
					t.Errorf("kind=%d/workers=%d: snapshot prover rejected: %v", c.Kind, workers, err)
				}
				if !slices.Equal(snap.Counts(), counts) {
					t.Fatalf("kind=%d/workers=%d: a conversation changed the snapshot's tables", c.Kind, workers)
				}
			}
			for i, err := range []error{v, sp, rp, pp, comb} {
				name := fmt.Sprintf("kind=%d/workers=%d: entry point %d", c.Kind, workers, i+1)
				switch {
				case !known:
					if want := fmt.Sprintf("engine: unknown query kind %d", c.Kind); err == nil || err.Error() != want {
						t.Errorf("%s: %v, want %q", name, err, want)
					}
				case i < 3 || seam[c.Kind]:
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
