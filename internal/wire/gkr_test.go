package wire

// CIRCUIT-over-the-wire tests: the GKR workload rides the v2/mux
// protocol like any fixed query kind — transcripts bit-identical across
// worker counts and mux interleaving, dishonest servers rejected, and
// unknown circuit names surfacing as typed per-channel errors that
// leave the connection usable.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

// circuitMuxKinds are the registry families driven over the mux wire.
func circuitMuxKinds() []struct {
	kind   QueryKind
	params QueryParams
} {
	return []struct {
		kind   QueryKind
		params QueryParams
	}{
		{QueryCircuit, QueryParams{Circuit: circuit.FamilyF2}},
		{QueryCircuit, QueryParams{Circuit: circuit.FamilyCount}},
		{QueryCircuit, QueryParams{Circuit: circuit.FamilyMatMul, A: 16}},
	}
}

// TestMuxCircuitTranscripts is the wire-layer acceptance test for the
// GKR workload: for every circuit family and worker count, a CIRCUIT
// conversation multiplexed with its siblings on one connection is
// bit-identical to the same conversation run serially, and all are
// accepted.
func TestMuxCircuitTranscripts(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(1700))
	kinds := circuitMuxKinds()
	for _, workers := range []int{0, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			addr, stop := startServerOpts(t, &Server{F: f61, Workers: workers})
			defer stop()

			cl, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.OpenDataset("gkrmux", u); err != nil {
				t.Fatal(err)
			}
			if _, err := cl.Ingest(ups); err != nil {
				t.Fatal(err)
			}

			seed := func(k int) uint64 { return uint64(21_000 + k) }

			// Serial baseline, one conversation at a time.
			serial := make([][]core.Msg, len(kinds))
			for k, c := range kinds {
				v, obs := muxVerifier(t, u, c.kind, c.params, seed(k))
				observeAll(t, obs, ups)
				rec := &recordingVerifier{inner: v}
				if _, err := cl.Query(c.kind, c.params, rec); err != nil {
					t.Fatalf("serial %s: %v", c.params.Circuit, err)
				}
				serial[k] = rec.msgs
			}

			// Overlapped: every family in flight at once.
			recs := make([]*recordingVerifier, len(kinds))
			handles := make([]*QueryHandle, len(kinds))
			for k, c := range kinds {
				v, obs := muxVerifier(t, u, c.kind, c.params, seed(k))
				observeAll(t, obs, ups)
				recs[k] = &recordingVerifier{inner: v}
				h, err := cl.QueryAsync(c.kind, c.params, recs[k])
				if err != nil {
					t.Fatalf("QueryAsync %s: %v", c.params.Circuit, err)
				}
				handles[k] = h
			}
			for k, h := range handles {
				if _, err := h.Wait(); err != nil {
					t.Fatalf("overlapped %s rejected: %v", kinds[k].params.Circuit, err)
				}
			}
			for k := range kinds {
				if err := sameTranscript(serial[k], recs[k].msgs); err != nil {
					t.Errorf("%s workers=%d: overlapped transcript differs from serial: %v", kinds[k].params.Circuit, workers, err)
				}
			}
		})
	}
}

// TestCircuitDishonestServerRejected: a cloud that doctors its
// maintained counts is caught by the client-side GKR verifier for every
// circuit family — the final streamed-input check cannot be fooled.
func TestCircuitDishonestServerRejected(t *testing.T) {
	const u = 256
	addr, stop := startServer(t, func(c []int64) []int64 { c[3]++; return c })
	defer stop()
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(1702))

	for _, c := range circuitMuxKinds() {
		cl, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		v, obs := muxVerifier(t, u, c.kind, c.params, 1703)
		observeAll(t, obs, ups)
		openFresh(t, cl, u, ups)
		if _, err := cl.Query(c.kind, c.params, v); !errors.Is(err, core.ErrRejected) {
			t.Errorf("%s: dishonest cloud not rejected: %v", c.params.Circuit, err)
		}
		cl.Close()
	}
}

// TestMuxCircuitUnknownFamily pins the failure mode for a bad circuit
// name: a per-channel error naming the family, a surviving connection,
// and a working follow-up query.
func TestMuxCircuitUnknownFamily(t *testing.T) {
	const u = 128
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("badcircuit", u); err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 10, field.NewSplitMix64(1701))
	if _, err := cl.Ingest(ups); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"NOPE", ""} {
		v, obs := muxVerifier(t, u, QueryCircuit, QueryParams{Circuit: circuit.FamilyF2}, 9)
		observeAll(t, obs, ups)
		_, err = cl.Query(QueryCircuit, QueryParams{Circuit: name}, v)
		if err == nil {
			t.Fatalf("circuit %q: query succeeded, want error", name)
		}
		if !strings.Contains(err.Error(), "unknown circuit family") {
			t.Fatalf("circuit %q: err = %v, want unknown-family text", name, err)
		}
	}

	// The connection survives the failed channels.
	v, obs := muxVerifier(t, u, QueryCircuit, QueryParams{Circuit: circuit.FamilyF2}, 10)
	observeAll(t, obs, ups)
	if _, err := cl.Query(QueryCircuit, QueryParams{Circuit: circuit.FamilyF2}, v); err != nil {
		t.Fatalf("follow-up query after failed channels: %v", err)
	}
}

// TestMuxCircuitOversizeName pins the codec bound: a name longer than
// frames.MaxCircuitName is refused client-side before touching the wire.
func TestMuxCircuitOversizeName(t *testing.T) {
	const u = 64
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	cl, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("longname", u); err != nil {
		t.Fatal(err)
	}
	v, obs := muxVerifier(t, u, QueryCircuit, QueryParams{Circuit: circuit.FamilyF2}, 11)
	observeAll(t, obs, nil)
	long := strings.Repeat("X", frames.MaxCircuitName+1)
	if _, err := cl.Query(QueryCircuit, QueryParams{Circuit: long}, v); err == nil {
		t.Fatal("oversize circuit name accepted")
	}
}
