package engine_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// TestGenerateProofAllKinds is the contract of the replay layer: for
// every query kind, a STREAMING verifier — one that observed the
// original stream update by update, as a real client does — accepts the
// proof GenerateProof recorded with no verifier in the loop, and
// rejects, with core.ErrRejected, a proof recorded under the same
// honest binding by a prover whose counts were doctored: a posted proof
// meets a liar exactly as an interactive conversation does.
func TestGenerateProofAllKinds(t *testing.T) {
	const u = 500
	f := field.Mersenne()
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(42))
	ds, err := engine.NewDataset(f, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	// The liar lost one occurrence of the most frequent item, so even
	// Fmax's answer changes.
	doctored := append([]int64(nil), snap.Counts()...)
	top := 0
	for i, c := range doctored {
		if c > doctored[top] {
			top = i
		}
	}
	doctored[top]--
	liar, err := engine.SnapshotFromCounts(f, u, 2, doctored)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range append(allKinds(), circuitF2) {
		b := snap.ProofBinding(tc.kind, tc.params)
		streamed := func() core.VerifierSession {
			v, obs, err := newVerifier(f, u, tc.kind, tc.params, b.RNG())
			if err != nil {
				t.Fatalf("kind %d: streaming verifier: %v", tc.kind, err)
			}
			for _, up := range ups {
				if err := obs(up); err != nil {
					t.Fatalf("kind %d: observe: %v", tc.kind, err)
				}
			}
			return v
		}
		pf, err := snap.GenerateProof(tc.kind, tc.params)
		if err != nil {
			t.Fatalf("kind %d: GenerateProof: %v", tc.kind, err)
		}
		if pf.Binding != b || b.Version != 1 {
			t.Fatalf("kind %d: proof binding %+v, want %+v at version 1", tc.kind, pf.Binding, b)
		}
		if err := b.Verify(pf, streamed()); err != nil {
			t.Fatalf("kind %d: streaming verifier rejected the posted proof: %v", tc.kind, err)
		}

		lie, err := engine.RecordProof(f, b, func() (core.ProverSession, error) { return liar.NewProver(tc.kind, tc.params) })
		if err != nil {
			t.Fatalf("kind %d: recording the liar: %v", tc.kind, err)
		}
		if err := b.Verify(lie, streamed()); !errors.Is(err, core.ErrRejected) {
			t.Fatalf("kind %d: proof over doctored counts: got %v, want ErrRejected", tc.kind, err)
		}
	}
}

// TestChallengesMatchVerifier pins the schedule the proof generator
// relies on: for every kind, what an unobserved verifier's Challenges()
// announces equals, message for message, what a stream-fed verifier on
// the same RNG says in a live conversation with the snapshot prover —
// and Record driven by that schedule gets the prover messages of that
// conversation.
func TestChallengesMatchVerifier(t *testing.T) {
	const u = 500
	f := field.Mersenne()
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(42))
	ds, err := engine.NewDataset(f, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	for _, tc := range append(allKinds(), circuitF2) {
		unobserved, err := engine.NewStreamVerifier(f, u, tc.kind, tc.params, field.NewSplitMix64(77))
		if err != nil {
			t.Fatal(err)
		}
		sched := unobserved.Challenges()

		v, obs, err := newVerifier(f, u, tc.kind, tc.params, field.NewSplitMix64(77))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
		p, err := snap.NewProver(tc.kind, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		live := &recordingProver{inner: p}
		var said []core.Msg
		msg, err := live.Open()
		if err != nil {
			t.Fatal(err)
		}
		ch, done, err := v.Begin(msg)
		for err == nil && !done {
			said = append(said, ch)
			if msg, err = live.Step(ch); err != nil {
				break
			}
			ch, done, err = v.Step(msg)
		}
		if err != nil {
			t.Fatalf("kind %d: live conversation: %v", tc.kind, err)
		}
		if err := sameMsgs(sched, said); err != nil {
			t.Fatalf("kind %d: Challenges() vs live verifier: %v", tc.kind, err)
		}

		p2, err := snap.NewProver(tc.kind, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := snap.ProofBinding(tc.kind, tc.params).Record(p2, sched)
		if err != nil {
			t.Fatalf("kind %d: Record: %v", tc.kind, err)
		}
		if err := sameMsgs(pf.Messages, live.msgs); err != nil {
			t.Fatalf("kind %d: Record vs live prover: %v", tc.kind, err)
		}
	}
}

// TestGenerateProofDeterministic: at a fixed dataset version the proof
// is a pure function of the binding — two independent generations are
// bit-identical.
func TestGenerateProofDeterministic(t *testing.T) {
	const u = 500
	f := field.Mersenne()
	ds, err := engine.NewDataset(f, u, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(u, 300, field.NewSplitMix64(5))); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	a, err := snap.GenerateProof(engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.GenerateProof(engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.02})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("two generations at one version are not bit-identical")
	}
}

// TestProofVersionInvalidation: an ingest between two proofs of the
// same query yields a different binding (fresh challenges) and a
// different proof — and the new proof still verifies for a client that
// observed the whole stream.
func TestProofVersionInvalidation(t *testing.T) {
	const u = 256
	f := field.Mersenne()
	e := engine.New(f, 2)
	ds, err := e.Open("metrics", u)
	if err != nil {
		t.Fatal(err)
	}
	ups1 := stream.UnitIncrements(u, 100, field.NewSplitMix64(8))
	ups2 := stream.UnitIncrements(u, 50, field.NewSplitMix64(9))
	if err := ds.Ingest(ups1); err != nil {
		t.Fatal(err)
	}
	pf1, err := ds.Snapshot().GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups2); err != nil {
		t.Fatal(err)
	}
	snap2 := ds.Snapshot()
	pf2, err := snap2.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if pf1.Version == pf2.Version {
		t.Fatalf("ingest did not rotate the proof version (%d)", pf1.Version)
	}
	if bytes.Equal(pf1.Encode(), pf2.Encode()) {
		t.Fatal("proofs at different versions are identical")
	}
	b2 := snap2.ProofBinding(engine.QuerySelfJoinSize, engine.QueryParams{})
	v, obs, err := newVerifier(f, u, engine.QuerySelfJoinSize, engine.QueryParams{}, b2.RNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range append(append([]stream.Update{}, ups1...), ups2...) {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := b2.Verify(pf2, v); err != nil {
		t.Fatalf("post-ingest proof rejected by a fully-observed verifier: %v", err)
	}
	// The stale proof must not verify under the new binding.
	if err := b2.Verify(pf1, v); err == nil {
		t.Fatal("stale proof accepted under the new version's binding")
	}
}

// TestVersionCounter: the version bumps once per non-empty ingest
// batch, snapshots pin the version they were taken at, and empty
// batches leave it alone.
func TestVersionCounter(t *testing.T) {
	const u = 64
	ds, err := engine.NewDataset(field.Mersenne(), u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds.Version(); got != 0 {
		t.Fatalf("fresh dataset version %d, want 0", got)
	}
	if err := ds.IngestColumns(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := ds.Version(); got != 0 {
		t.Fatalf("empty batch bumped version to %d", got)
	}
	if err := ds.IngestColumns([]uint64{1, 2}, []int64{3, 4}); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	if err := ds.IngestColumns([]uint64{5}, []int64{6}); err != nil {
		t.Fatal(err)
	}
	if got := ds.Version(); got != 2 {
		t.Fatalf("version %d after two batches, want 2", got)
	}
	if got := snap.Version(); got != 1 {
		t.Fatalf("snapshot version %d, want the pinned 1", got)
	}
}

// TestVersionSurvivesRecovery: the version counter rides in the
// checkpoint, so a restarted engine resumes from the persisted version
// instead of resurrecting version keys already used for other data.
func TestVersionSurvivesRecovery(t *testing.T) {
	const u = 64
	f := field.Mersenne()
	dir := t.TempDir()
	e := engine.New(f, 1)
	if err := e.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	ds, err := e.Open("metrics", u)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := ds.Ingest(stream.UnitIncrements(u, 10, field.NewSplitMix64(uint64(i)))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := engine.New(f, 1)
	if err := e2.SetDataDir(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	ds2, err := e2.Open("metrics", u)
	if err != nil {
		t.Fatal(err)
	}
	if got := ds2.Version(); got != 3 {
		t.Fatalf("recovered version %d, want 3", got)
	}
	if err := ds2.Ingest(stream.UnitIncrements(u, 5, field.NewSplitMix64(77))); err != nil {
		t.Fatal(err)
	}
	if got := ds2.Version(); got != 4 {
		t.Fatalf("post-recovery ingest version %d, want 4", got)
	}
}

// TestProofGolden pins the bytes of the posted proof for every query
// kind on one fixed (stream seed, dataset name, universe): the digests
// were generated before the count-replay generator was removed and
// must never move without a deliberate transcript-version bump.
func TestProofGolden(t *testing.T) {
	const u = 500
	golden := map[engine.QueryKind]string{
		engine.QuerySelfJoinSize: "039e6e3cfd0db29f18abdf6053a064a8f21706ad135c2c7c60a0ccb61db08258",
		engine.QueryFk:           "53d245e29fa6a271e2e9eb45a185a171f0e4bc056cab78be6003d0ccb6e9babd",
		engine.QueryRangeSum:     "6cb79aaadf33554f722623fabf65b68e67b736266bf5d2ea1b17f478be8068cd",
		engine.QueryRangeQuery:   "16de449c5607efc6a111d5461ab1ed080500bb0f6774263fa50a8805c498382a",
		engine.QueryIndex:        "35f9ff46057fb79aafecb782b67e1990bc52ef17678cb9c6ea63087a22effaf4",
		engine.QueryDictionary:   "45de301d1d0a4743ea81eeeba16bb7647d43578b8ec30e268a9da34e81cc8793",
		engine.QueryPredecessor:  "cdc9746a3e05bfebce2c4d68f86963aef01adbebf32f39749d7f56aa8219fbcb",
		engine.QuerySuccessor:    "8ab0ff3705203aae541dee6018560f9efc1297eb2f5cff022732f42f63cbbb53",
		engine.QueryKLargest:     "f722bfa3a8eaedffbff5e7458fbf5c05069ee30b911aa3933021c0604f78b1aa",
		engine.QueryHeavyHitters: "bf40d6ab23ef900edc8e116b1d0a3fcd202abce8d4d3f0d5f68defb594331d37",
		engine.QueryF0:           "b9ce649c9bd3d73293133642935d5ad3ab55819fc168a04e291467fe8c095c59",
		engine.QueryFmax:         "4702dfbf4c90fcb14534e19a55ed22eb90f3eca8f458e305c100a207c9c2be6e",
		engine.QueryCircuit:      "eee83761a58146edfd37ad01cd4425afaee8f94ea6853dad67a250729239edcc",
	}
	e := engine.New(field.Mersenne(), 2)
	ds, err := e.Open("golden", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UniformDeltas(u, 20, field.NewSplitMix64(42))); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	for _, tc := range append(allKinds(), circuitF2) {
		pf, err := snap.GenerateProof(tc.kind, tc.params)
		if err != nil {
			t.Fatalf("kind %d: GenerateProof: %v", tc.kind, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(pf.Encode()))
		if got != golden[tc.kind] {
			t.Errorf("kind %d: proof sha256 %s, want %s", tc.kind, got, golden[tc.kind])
		}
	}
}

// TestPostedProofForgery pins a known gap: a posted proof has no
// soundness against the server that generates it. The verifier's whole
// randomness is the public binding's RNG, so the server reads r₁ off
// NewStreamVerifier(…, b.RNG()).Challenges() before it writes g₁. It
// adds c·(X − r₁) to the honest g₁ with c = Δ/(1 − 2r₁), which raises
// g₁(0) + g₁(1) by Δ and leaves g₁(r₁) alone, claims C + Δ, and answers
// every later round honestly. The client's streaming verifier accepts
// the false claim; a verifier whose randomness the server did not know
// rejects the same messages. When posted proofs become sound, the first
// assertion flips.
func TestPostedProofForgery(t *testing.T) {
	const u = 1 << 10
	const delta field.Elem = 1000
	f := field.Mersenne()
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(42))
	e := engine.New(f, 0)
	ds, err := e.Open("forged", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	streamed := func(tc kindCase, rng field.RNG) engine.StreamVerifier {
		v, err := engine.NewStreamVerifier(f, u, tc.kind, tc.params, rng)
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	for _, tc := range []kindCase{
		{engine.QuerySelfJoinSize, engine.QueryParams{}},
		{engine.QueryFk, engine.QueryParams{K: 3}},
		{engine.QueryRangeSum, engine.QueryParams{A: 3, B: 700}},
	} {
		b := snap.ProofBinding(tc.kind, tc.params)
		r1 := streamed(tc, b.RNG()).Challenges()[0].Elems[0]
		c := f.Mul(delta, f.Inv(f.Sub(1, f.Mul(2, r1))))
		forge := func(round int, m core.Msg) core.Msg {
			if round == 0 { // [claim, g₁(0), …, g₁(deg)]
				m.Elems[0] = f.Add(m.Elems[0], delta)
				for x := range m.Elems[1:] {
					m.Elems[1+x] = f.Add(m.Elems[1+x], f.Mul(c, f.Sub(field.Elem(x), r1)))
				}
			}
			return m
		}
		forged, err := engine.RecordProof(f, b, func() (core.ProverSession, error) {
			p, err := snap.NewProver(tc.kind, tc.params)
			return &core.TamperedProver{P: p, T: forge}, err
		})
		if err != nil {
			t.Fatal(err)
		}

		client := streamed(tc, b.RNG())
		if err := b.Verify(forged, client); err != nil {
			t.Fatalf("kind %d: the forgery was rejected (%v); if posted proofs are now sound, flip this pin", tc.kind, err)
		}
		got, err := client.(interface{ Result() (field.Elem, error) }).Result()
		if err != nil {
			t.Fatal(err)
		}
		honest, err := snap.GenerateProof(tc.kind, tc.params)
		if err != nil {
			t.Fatal(err)
		}
		if want := f.Add(honest.Messages[0].Elems[0], delta); got != want {
			t.Fatalf("kind %d: accepted answer %d, want the forged %d", tc.kind, got, want)
		}

		if err := b.Verify(forged, streamed(tc, field.NewSplitMix64(7))); !errors.Is(err, core.ErrRejected) {
			t.Fatalf("kind %d: a verifier on an independent RNG: %v, want ErrRejected", tc.kind, err)
		}
	}
}
