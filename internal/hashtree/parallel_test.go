package hashtree

import (
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestIncrementalExtendWorkersIdentical: building the tree with a worker
// pool must produce exactly the serial hashes at every level.
func TestIncrementalExtendWorkersIdentical(t *testing.T) {
	f := field.Mersenne()
	params, err := NewParams(14)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(params.U, 100, field.NewSplitMix64(21))
	rng := field.NewSplitMix64(22)
	rs := f.RandVec(rng, params.D)
	qs := f.RandVec(rng, params.D)

	serial, err := NewIncremental(f, params, ups)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewIncremental(f, params, ups)
	if err != nil {
		t.Fatal(err)
	}
	par.Workers = -1
	for j := 0; j < params.D; j++ {
		if err := serial.Extend(rs[j], qs[j]); err != nil {
			t.Fatal(err)
		}
		if err := par.Extend(rs[j], qs[j]); err != nil {
			t.Fatal(err)
		}
		want, got := heldNodes(serial), heldNodes(par)
		if len(got) != len(want) {
			t.Fatalf("level %d: %d nodes, want %d", j+1, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("level %d node %d: parallel %+v, serial %+v", j+1, i, got[i], want[i])
			}
		}
	}
}
