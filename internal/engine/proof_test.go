package engine_test

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire"
)

// TestChallengesMatchVerifier pins the schedule the proof generator
// relies on, for SELF-JOIN SIZE, the one posted kind: what an unobserved
// verifier's Challenges() announces equals, message for message, what a
// stream-fed verifier on the same RNG says in a live conversation with
// the snapshot prover — and Record driven by that schedule gets the
// prover messages of that conversation.
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
	tc := conformance.Case{Kind: engine.QuerySelfJoinSize}
	unobserved, err := engine.NewStreamVerifier(f, u, tc.Kind, tc.Params, field.NewSplitMix64(77))
	if err != nil {
		t.Fatal(err)
	}
	sched := unobserved.(*core.FkVerifier).Challenges()

	p, err := snap.NewProver(tc.Kind, tc.Params)
	if err != nil {
		t.Fatal(err)
	}
	live := &conformance.Recorder{Inner: conformance.Verifier(t, u, tc, field.NewSplitMix64(77), ups)}
	if _, err := core.Run(p, live); err != nil {
		t.Fatalf("%v: live conversation: %v", tc, err)
	}
	if err := conformance.Same(sched, live.Said); err != nil {
		t.Fatalf("%v: Challenges() vs live verifier: %v", tc, err)
	}

	p2, err := snap.NewProver(tc.Kind, tc.Params)
	if err != nil {
		t.Fatal(err)
	}
	pf, err := snap.ProofBinding(tc.Kind, tc.Params).Record(p2, sched)
	if err != nil {
		t.Fatalf("%v: Record: %v", tc, err)
	}
	if err := conformance.Same(pf.Messages, live.Msgs); err != nil {
		t.Fatalf("%v: Record vs live prover: %v", tc, err)
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
	a, err := snap.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := snap.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
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
	v := conformance.Verifier(t, u, conformance.Cases[0], b2.RNG(), append(append([]stream.Update{}, ups1...), ups2...))
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

// TestProofGolden pins the bytes of the posted proof on one fixed
// (stream seed, dataset name, universe): the digest was generated
// before the count-replay generator was removed and must never move
// without a deliberate transcript-version bump. SELF-JOIN SIZE is the
// one posted kind; every other kind's row is its refusal, ErrNotPosted
// naming the kind, from GenerateProof and from RecordProof before the
// prover is built.
func TestProofGolden(t *testing.T) {
	const u = 500
	golden := map[engine.QueryKind]string{
		engine.QuerySelfJoinSize: "039e6e3cfd0db29f18abdf6053a064a8f21706ad135c2c7c60a0ccb61db08258",
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
	for _, tc := range conformance.Cases {
		pf, err := snap.GenerateProof(tc.Kind, tc.Params)
		if _, posted := golden[tc.Kind]; !posted {
			name := fmt.Sprintf("kind %d", tc.Kind)
			if !errors.Is(err, engine.ErrNotPosted) || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: GenerateProof = %v, want ErrNotPosted naming the kind", name, err)
			}
			_, err := engine.RecordProof(field.Mersenne(), snap.ProofBinding(tc.Kind, tc.Params), func() (core.ProverSession, error) {
				t.Errorf("%s: RecordProof built a prover for a kind it refuses", name)
				return snap.NewProver(tc.Kind, tc.Params)
			})
			if !errors.Is(err, engine.ErrNotPosted) {
				t.Errorf("%s: RecordProof = %v, want ErrNotPosted", name, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("kind %d: GenerateProof: %v", tc.Kind, err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(pf.Encode()))
		if got != golden[tc.Kind] {
			t.Errorf("kind %d: proof sha256 %s, want %s", tc.Kind, got, golden[tc.Kind])
		}
	}
}

// TestPostedProofForgery pins both halves of a known gap. A posted
// proof has no soundness against the server that generates it: the
// verifier's whole randomness is the public binding's RNG, so the
// server reads r₁ off the schedule of NewStreamVerifier(…, b.RNG())
// before it writes g₁. It adds c·(X − r₁) to the honest g₁ with
// c = Δ/(1 − 2r₁), which raises g₁(0) + g₁(1) by Δ and leaves g₁(r₁)
// alone, claims C + Δ, and answers every later round honestly. The
// client's streaming verifier accepts the false SELF-JOIN SIZE claim; a
// verifier whose randomness the server did not know rejects the same
// messages. When the SELF-JOIN SIZE posted proof becomes sound, that
// assertion flips. The other half: Fk and RANGE-SUM, which the same
// forgery broke, have no posted proof at all — RecordProof and a
// client's FetchProof refuse them with ErrNotPosted.
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
	streamed := func(rng field.RNG) *core.FkVerifier {
		v, err := engine.NewStreamVerifier(f, u, engine.QuerySelfJoinSize, engine.QueryParams{}, rng)
		if err != nil {
			t.Fatal(err)
		}
		conformance.Feed(t, v, ups)
		return v.(*core.FkVerifier)
	}
	b := snap.ProofBinding(engine.QuerySelfJoinSize, engine.QueryParams{})
	r1 := streamed(b.RNG()).Challenges()[0].Elems[0]
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
		p, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		return &core.TamperedProver{P: p, T: forge}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	client := streamed(b.RNG())
	if err := b.Verify(forged, client); err != nil {
		t.Fatalf("the forgery was rejected (%v); if posted proofs are now sound, flip this pin", err)
	}
	got, err := client.Result()
	if err != nil {
		t.Fatal(err)
	}
	honest, err := snap.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if want := f.Add(honest.Messages[0].Elems[0], delta); got != want {
		t.Fatalf("accepted answer %d, want the forged %d", got, want)
	}
	if err := b.Verify(forged, streamed(field.NewSplitMix64(7))); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("a verifier on an independent RNG: %v, want ErrRejected", err)
	}

	srv := &wire.Server{F: f, Engine: e}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	cl, err := wire.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.OpenDataset("forged", u); err != nil {
		t.Fatal(err)
	}
	for _, q := range []conformance.Case{
		{Kind: engine.QueryFk, Params: engine.QueryParams{K: 3}},
		{Kind: engine.QueryRangeSum, Params: engine.QueryParams{A: 3, B: 700}},
	} {
		_, err := engine.RecordProof(f, snap.ProofBinding(q.Kind, q.Params), func() (core.ProverSession, error) {
			return snap.NewProver(q.Kind, q.Params)
		})
		if !errors.Is(err, engine.ErrNotPosted) {
			t.Errorf("%v: RecordProof = %v, want ErrNotPosted", q, err)
		}
		if _, err := cl.FetchProof(q.Kind, q.Params, 0); !errors.Is(err, wire.ErrNotPosted) {
			t.Errorf("%v: FetchProof = %v, want ErrNotPosted", q, err)
		}
	}
}
