package conformance_test

import (
	"bytes"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/wire"
)

// soundness is the matrix's data-liar column: Server.Corrupt in
// process, at a server and behind a router, every case interactive and
// overlapped, and SELF-JOIN SIZE (the one posted kind) posted too. Every
// lie must meet core.ErrRejected, and the connection it was told on
// must then serve honest conversations. The message liars — a relay
// rewriting one prover message at a hop — are the other half of the
// column, internal/shard's TestMessageLiars: a relay parses frames,
// which only internal/wire/... and internal/shard may.
func soundness(t *testing.T, cells *atomic.Int64) {
	for _, hop := range []string{"direct", "server", "router"} {
		t.Run("data/"+hop, func(t *testing.T) {
			t.Parallel()
			dataLiar(t, hop, indices(0, len(conformance.Cases)), cells)
		})
	}
}

// doctor is the data liar's rewrite: one occurrence less of the most
// frequent item, so every kind's answer or fingerprint moves.
func doctor(counts []int64) []int64 {
	top := 0
	for i, n := range counts {
		if n > counts[top] {
			top = i
		}
	}
	counts[top]--
	return counts
}

// dataLiar puts Server.Corrupt (in process: a doctored snapshot) at hop.
// Each of cases ks is asked interactively (and, SELF-JOIN SIZE, posted)
// while it lies, then honestly on the same connection, in a subtest
// named after the case; then, in overlapped/dishonest and
// overlapped/honest, all of them at once. The queries go out on a
// second connection attached to the uploader's dataset by name: the lie
// follows the dataset, not the connection.
func dataLiar(t *testing.T, hop string, ks []int, cells *atomic.Int64) {
	ups := prefix(initial)
	if hop == "direct" {
		ds, err := engine.NewDataset(f, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		snap := ds.Snapshot()
		liar, err := engine.SnapshotFromCounts(f, u, 0, doctor(append([]int64(nil), snap.Counts()...)))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range ks {
			cs := caseAt(k)
			t.Run(cs.String(), func(t *testing.T) {
				p, err := liar.NewProver(cs.Kind, cs.Params)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := core.Run(p, conformance.Verifier(t, u, cs, field.NewSplitMix64(seed(k)), ups)); !errors.Is(err, core.ErrRejected) {
					t.Errorf("%v interactive: %v, want ErrRejected", cs, err)
				}
				cells.Add(1)
				if engine.CheckPosted(cs.Kind) != nil {
					return
				}
				b := snap.ProofBinding(cs.Kind, cs.Params)
				lie, err := engine.RecordProof(f, b, func() (core.ProverSession, error) { return liar.NewProver(cs.Kind, cs.Params) })
				if err != nil {
					t.Fatal(err)
				}
				if err := b.Verify(lie, conformance.Verifier(t, u, cs, b.RNG(), ups)); !errors.Is(err, core.ErrRejected) {
					t.Errorf("%v posted: %v, want ErrRejected", cs, err)
				}
				cells.Add(1)
			})
		}
		return
	}

	var lying atomic.Bool
	corrupt := func(counts []int64) []int64 {
		if lying.Load() {
			return doctor(counts)
		}
		return counts
	}
	var addr string
	if hop == "server" {
		addr = startBackend(t, &backend{name: "s1", corrupt: corrupt}).addr
	} else {
		bs := []*backend{startBackend(t, &backend{name: "s1"}), startBackend(t, &backend{name: "s2", corrupt: corrupt})}
		_, addr = startRouter(t, table(bs, map[string]string{dataset: "s2"}, nil))
	}
	uploader := dial(t, addr)
	if _, err := uploader.OpenDataset(dataset, u); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:initial] {
		if _, err := uploader.Ingest(b); err != nil {
			t.Fatal(err)
		}
	}
	c := dial(t, addr)
	if n, err := c.OpenDataset(dataset, u); err != nil || n != uint64(len(ups)) {
		t.Fatalf("attach by name: %d updates, %v", n, err)
	}
	// ask holds case k's conversation in each delivery, lying or not;
	// an honest answer must be the reference's.
	ask := func(t *testing.T, k int, lie bool) {
		cs := caseAt(k)
		lying.Store(lie)
		verdict := func(what string, err error) {
			t.Helper()
			switch {
			case lie && !errors.Is(err, core.ErrRejected):
				t.Errorf("%v %s, lying: %v, want ErrRejected", cs, what, err)
			case !lie && err != nil:
				t.Errorf("%v %s, honest: %v", cs, what, err)
			}
		}
		rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, cs, field.NewSplitMix64(seed(k)), ups)}
		_, err := c.Query(cs.Kind, cs.Params, rec)
		verdict("interactive", err)
		if err == nil && !lie {
			verdict("interactive", conformance.Same(reference(t, k, initial).msgs, rec.Msgs))
		}
		if engine.CheckPosted(cs.Kind) != nil {
			return
		}
		pf, _, err := c.QueryCached(cs.Kind, cs.Params, 0, func(b fs.Binding) (core.VerifierSession, error) {
			return conformance.Verifier(t, u, cs, b.RNG(), ups), nil
		})
		verdict("posted", err)
		if err == nil && !lie && !bytes.Equal(pf.Encode(), reference(t, k, initial).proof) {
			t.Errorf("%v posted, honest: the proof bytes differ from the reference", cs)
		}
	}
	for _, k := range ks {
		t.Run(caseAt(k).String(), func(t *testing.T) {
			ask(t, k, true)
			ask(t, k, false)
		})
		cells.Add(2)
	}
	// Overlapped: every case in flight at once, lying, then honest.
	t.Run("overlapped", func(t *testing.T) {
		for _, lie := range []bool{true, false} {
			name := "honest"
			if lie {
				name = "dishonest"
			}
			t.Run(name, func(t *testing.T) {
				lying.Store(lie)
				waits := make([]*wire.QueryHandle, len(ks))
				for i, k := range ks {
					cs := caseAt(k)
					h, err := c.QueryAsync(cs.Kind, cs.Params, conformance.Verifier(t, u, cs, field.NewSplitMix64(seed(k)), ups))
					if err != nil {
						t.Fatal(err)
					}
					waits[i] = h
				}
				for i, h := range waits {
					if _, err := h.Wait(); lie && !errors.Is(err, core.ErrRejected) || !lie && err != nil {
						t.Errorf("%v overlapped, lying %v: %v", caseAt(ks[i]), lie, err)
					}
				}
			})
		}
	})
	cells.Add(int64(len(ks)))
}
