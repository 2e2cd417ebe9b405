package engine

import (
	"slices"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// TestShardedIngestMatchesSerial: the parallel scatter kernel must equal
// the serial left-to-right application exactly. Internal test: it forces
// the sharded path via minShardBatch.
func TestShardedIngestMatchesSerial(t *testing.T) {
	f := field.Mersenne()
	const u = 1 << 10
	n := minShardBatch + 1234 // force the sharded path
	ups := stream.UniformDeltas(u, 3, field.NewSplitMix64(11))
	for len(ups) < n {
		ups = append(ups, stream.UnitIncrements(u, n-len(ups), field.NewSplitMix64(12))...)
	}
	serial, err := NewDataset(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewDataset(f, u, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := serial.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if err := sharded.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	ss, sh := serial.Snapshot(), sharded.Snapshot()
	if ss.Total() != sh.Total() || ss.Updates() != sh.Updates() {
		t.Fatalf("totals differ: (%d,%d) vs (%d,%d)", ss.Total(), ss.Updates(), sh.Total(), sh.Updates())
	}
	if !slices.Equal(ss.Counts(), sh.Counts()) || !slices.Equal(ss.Elems(), sh.Elems()) {
		t.Fatal("the sharded tables differ from the serial ones")
	}
}
