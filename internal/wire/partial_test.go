package wire

import (
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/stream"
)

// TestWireSplitPartialConversations is the wire half of the
// split-universe contract: two servers each own one slice of a dataset,
// fed by a scatter of the same global batches over OpenDatasetSlice +
// Ingest; partial conversations opened over the wire through
// PartialQuery and folded by a core.SplitProver reproduce, bit for bit,
// the transcript of a single whole-universe server's prover.
func TestWireSplitPartialConversations(t *testing.T) {
	const u = 200 // pads to 256; S=2 slices of width 128
	batches := [][]stream.Update{
		stream.UniformDeltas(u, 120, field.NewSplitMix64(81)),
		stream.UniformDeltas(u, 60, field.NewSplitMix64(82)),
		{{Index: 3, Delta: 4}, {Index: 190, Delta: -2}},
	}

	// Reference: one engine holding the whole dataset.
	ref := engine.New(f61, 0)
	refDS, err := ref.Open("ds", u)
	if err != nil {
		t.Fatal(err)
	}
	var seen []stream.Update // what the verifiers observe
	for _, b := range batches {
		if err := refDS.Ingest(b); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, b...)
	}
	refSnap := refDS.Snapshot()

	// Two slice-owner servers, one client each.
	const s = 2
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	width := params.U / s
	clients := make([]*Client, s)
	for k := 0; k < s; k++ {
		addr, stop := startServerOpts(t, &Server{F: f61})
		defer stop()
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[k] = c
		lo, hi := uint64(k)*width, uint64(k+1)*width
		if count, err := c.OpenDatasetSlice("ds", u, lo, hi); err != nil || count != 0 {
			t.Fatalf("slice %d open: count %d, err %v", k, count, err)
		}
		// Every global batch is delivered to every owner — Ingest sends an
		// empty batch frame when the scatter owns none of it, so the slice
		// version tracks the global version.
		for _, b := range batches {
			var sub []stream.Update
			for _, up := range b {
				if up.Index >= lo && up.Index < hi {
					sub = append(sub, up)
				}
			}
			if _, err := c.Ingest(sub); err != nil {
				t.Fatalf("slice %d ingest: %v", k, err)
			}
		}
	}

	for _, tc := range conformance.Filter(conformance.Case.Seam) {
		comb, err := engine.SplitCombiner(f61, u, tc.Kind, tc.Params)
		if err != nil {
			t.Fatal(err)
		}
		// Both provers run through core.Run against the same verifier.
		verifier := func() core.VerifierSession {
			return conformance.Verifier(t, u, tc, field.NewSplitMix64(600), seen)
		}
		refProver, err := refSnap.NewProver(tc.Kind, tc.Params)
		if err != nil {
			t.Fatal(err)
		}
		refMsgs := conformance.Converse(t, refProver, verifier())

		convs := make([]*PartialConv, s)
		split, err := core.NewSplitProver(f61, u, comb, 0, func() ([]core.SplitOwner, error) {
			owners := make([]core.SplitOwner, s)
			for k, c := range clients {
				conv, err := c.PartialQuery(tc.Kind, tc.Params)
				if err != nil {
					return nil, err
				}
				convs[k], owners[k] = conv, conv
			}
			return owners, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		msgs := conformance.Converse(t, split, verifier())
		if split.Version() != refSnap.Version() {
			t.Fatalf("%v: pinned version %d, want %d", tc, split.Version(), refSnap.Version())
		}
		// The leaf round finished the owner legs: each conversation is
		// retired, and Close has nothing left to finish.
		for k, conv := range convs {
			if !conv.closed {
				t.Fatalf("%v: slice %d's conversation outlived the leaf round", tc, k)
			}
		}
		if err := split.Close(); err != nil {
			t.Fatalf("%v close: %v", tc, err)
		}
		if err := conformance.Same(refMsgs, msgs); err != nil {
			t.Fatalf("%v: %v", tc, err)
		}
	}
}

// TestWireSliceRefusals pins the wire-level slice discipline: a
// whole-transcript query on a slice-attached connection fails typed on
// its channel (the connection survives and keeps serving partials), a
// non-seam kind fails typed, and PartialQuery works on a whole dataset
// too — the S=1 degenerate split.
func TestWireSliceRefusals(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const u = 100 // pads to 128
	if _, err := c.OpenDatasetSlice("ds", u, 0, 64); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest([]stream.Update{{Index: 5, Delta: 3}, {Index: 60, Delta: 1}}); err != nil {
		t.Fatal(err)
	}

	// Whole-transcript query: refused per-channel, with the slice bounds
	// in the error.
	proto, err := core.NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(QuerySelfJoinSize, QueryParams{}, proto.NewVerifier(field.NewSplitMix64(5))); err == nil ||
		!strings.Contains(err.Error(), "slice") {
		t.Fatalf("whole-transcript query on a slice: %v", err)
	}
	// Non-seam kind on the partial path: refused per-channel, typed text.
	conv, err := c.PartialQuery(QueryF0, QueryParams{Phi: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Msg(); err == nil || !strings.Contains(err.Error(), "split-universe seam") {
		t.Fatalf("F0 partial = %v, want a seam refusal", err)
	}
	_ = conv.Finish()

	// The connection survived both refusals: a seam-kind partial works.
	conv, err = c.PartialQuery(QuerySelfJoinSize, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	opening, err := conv.Msg()
	if err != nil {
		t.Fatal(err)
	}
	if len(opening.Ints) != 1 || opening.Ints[0] != 1 {
		t.Fatalf("opening version ints = %v, want [1] after one batch", opening.Ints)
	}
	if err := conv.Finish(); err != nil {
		t.Fatal(err)
	}

	// Mismatched re-attach is refused.
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.OpenDatasetSlice("ds", u, 64, 128); err == nil {
		t.Fatal("mismatched slice bounds attached")
	}

	// PartialQuery on a whole dataset: the S=1 degenerate split — its
	// transcript under a 1-owner core.SplitProver equals the plain
	// prover transcript (head rounds only; S=1 needs no leaf collect).
	c3, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.OpenDataset("whole", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Ingest([]stream.Update{{Index: 9, Delta: 2}}); err != nil {
		t.Fatal(err)
	}
	conv, err = c3.PartialQuery(QuerySelfJoinSize, QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if opening, err = conv.Msg(); err != nil {
		t.Fatal(err)
	}
	if len(opening.Ints) != 1 || opening.Ints[0] != 1 {
		t.Fatalf("whole-dataset partial opening ints = %v, want [1]", opening.Ints)
	}
	if err := conv.Finish(); err != nil {
		t.Fatal(err)
	}
}
