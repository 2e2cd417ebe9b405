package sip_test

import (
	"testing"

	"repro/sip"
)

// TestParallelProverPublicAPI exercises the workers knob exactly as a
// library user would: same stream, serial and parallel datasets,
// identical verified results.
func TestParallelProverPublicAPI(t *testing.T) {
	const u = 1 << 12
	f := sip.Mersenne()
	ups := make([]sip.Update, 0, u)
	rng := sip.NewSeededRNG(123)
	for i := uint64(0); i < u; i++ {
		ups = append(ups, sip.Update{Index: i, Delta: int64(rng.Uint64() % 1000)})
	}

	results := make([]sip.Elem, 0, 3)
	for _, workers := range []int{0, 4, -1} {
		proto, err := sip.NewSelfJoinSize(f, u)
		if err != nil {
			t.Fatal(err)
		}
		v := proto.NewVerifier(sip.NewSeededRNG(456))
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		p := datasetProver(t, f, u, workers, ups, sip.QuerySelfJoinSize, sip.QueryParams{})
		if _, err := sip.Run(p, v); err != nil {
			t.Fatalf("workers=%d: rejected: %v", workers, err)
		}
		res, err := v.Result()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	if results[0] != results[1] || results[0] != results[2] {
		t.Fatalf("results differ across worker counts: %v", results)
	}
}
