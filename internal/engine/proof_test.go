package engine_test

import (
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
