package fs_test

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

func testBinding(f field.Field, u uint64) fs.Binding {
	return fs.Binding{
		Modulus:  f.Modulus(),
		Universe: u,
		Dataset:  "metrics",
		Version:  3,
		Query:    fs.Query{Kind: 1},
	}
}

// proveF2 builds a small F2 proof over a deterministic stream, returning
// the proof and the update list so callers can build fresh verifiers.
func proveF2(t *testing.T, b fs.Binding, f field.Field, u uint64) (*fs.Proof, []stream.Update) {
	t.Helper()
	proto, err := core.NewSelfJoinSize(f, u)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UnitIncrements(u, 200, field.NewSplitMix64(11))
	p := proto.NewProver()
	for _, up := range ups {
		if err := p.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	// The schedule comes from a verifier that never sees the stream.
	pf, err := b.Record(p, proto.NewVerifier(b.RNG()).Challenges())
	if err != nil {
		t.Fatalf("Record: %v", err)
	}
	return pf, ups
}

func freshF2Verifier(t *testing.T, b fs.Binding, f field.Field, u uint64, ups []stream.Update) core.VerifierSession {
	t.Helper()
	proto, err := core.NewSelfJoinSize(f, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(b.RNG())
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

func TestTranscriptDeterministic(t *testing.T) {
	mk := func() *fs.Transcript {
		tr := fs.New("test/domain")
		tr.AbsorbUint("a", 7)
		tr.AbsorbBytes("b", []byte("payload"))
		tr.AbsorbMsg("m", core.Msg{Ints: []uint64{1, 2}, Elems: []field.Elem{3}})
		return tr
	}
	t1, t2 := mk(), mk()
	if t1.Digest() != t2.Digest() {
		t.Fatal("same absorbs produced different digests")
	}
	r1, r2 := t1.RNG("x"), t2.RNG("x")
	for i := 0; i < 64; i++ {
		if r1.Uint64() != r2.Uint64() {
			t.Fatalf("RNG streams diverged at draw %d", i)
		}
	}
	// A later absorb must not perturb an RNG already split off.
	r3 := t1.RNG("x")
	t1.AbsorbUint("later", 1)
	r4 := t1.RNG("x")
	first := r3.Uint64()
	if first != t2.RNG("x").Uint64() {
		t.Fatal("RNG depends on state after the split")
	}
	if r4.Uint64() == first {
		t.Fatal("absorb did not rotate a freshly split RNG")
	}
}

func TestTranscriptSeparation(t *testing.T) {
	base := func() *fs.Transcript { return fs.New("test/domain") }
	a := base()
	a.AbsorbBytes("l", []byte("ab"))
	bt := base()
	bt.AbsorbBytes("la", []byte("b"))
	if a.Digest() == bt.Digest() {
		t.Fatal("label/data boundary not injective")
	}
	c := base()
	c.AbsorbUint("l", 0x6162)
	if a.Digest() == c.Digest() {
		t.Fatal("uint and bytes absorbs collide")
	}
}

func TestBindingVersionRotatesChallenges(t *testing.T) {
	f := field.Mersenne()
	b1 := testBinding(f, 1<<8)
	b2 := b1
	b2.Version++
	if b1.RNG().Uint64() == b2.RNG().Uint64() {
		t.Fatal("bumping the version did not rotate the challenge stream")
	}
	b3 := b1
	b3.Query.A = 9
	if b1.RNG().Uint64() == b3.RNG().Uint64() {
		t.Fatal("changing the query did not rotate the challenge stream")
	}
}

func TestProveVerifyRoundTrip(t *testing.T) {
	f := field.Mersenne()
	u := uint64(1) << 8
	b := testBinding(f, u)
	pf, ups := proveF2(t, b, f, u)

	v := freshF2Verifier(t, b, f, u, ups)
	if err := b.Verify(pf, v); err != nil {
		t.Fatalf("Verify: %v", err)
	}

	// A second generation is bit-identical: encode both and compare.
	pf2, _ := proveF2(t, b, f, u)
	if !bytes.Equal(pf.Encode(), pf2.Encode()) {
		t.Fatal("regenerated proof is not bit-identical")
	}
}

func TestVerifyRejectsWrongBinding(t *testing.T) {
	f := field.Mersenne()
	u := uint64(1) << 8
	b := testBinding(f, u)
	pf, ups := proveF2(t, b, f, u)
	stale := b
	stale.Version++
	v := freshF2Verifier(t, stale, f, u, ups)
	if err := stale.Verify(pf, v); !errors.Is(err, fs.ErrBinding) {
		t.Fatalf("verify with stale binding: got %v, want ErrBinding", err)
	}
}

func TestVerifyRejectsTamperedMessage(t *testing.T) {
	f := field.Mersenne()
	u := uint64(1) << 8
	b := testBinding(f, u)
	pf, ups := proveF2(t, b, f, u)
	for _, tamper := range []func(p *fs.Proof){
		func(p *fs.Proof) { p.Messages[0].Elems[0]++ },
		func(p *fs.Proof) { p.Messages[len(p.Messages)-1].Elems[0] ^= 1 },
		func(p *fs.Proof) { p.Digest[0] ^= 0x80 },
		func(p *fs.Proof) { p.Messages = p.Messages[:len(p.Messages)-1] },
		func(p *fs.Proof) { p.Messages = append(p.Messages, core.Msg{Elems: []field.Elem{1, 2, 3}}) },
	} {
		clone, err := fs.DecodeProof(pf.Encode())
		if err != nil {
			t.Fatal(err)
		}
		tamper(clone)
		v := freshF2Verifier(t, b, f, u, ups)
		if err := b.Verify(clone, v); err == nil {
			t.Fatal("tampered proof verified")
		}
	}
}

func TestProofCodecRoundTrip(t *testing.T) {
	f := field.Mersenne()
	u := uint64(1) << 8
	b := testBinding(f, u)
	b.Query = fs.Query{Kind: 13, A: 1, B: 2, K: -3, Phi: 0.25, Circuit: "MATMUL"}
	pf, _ := proveF2(t, b, f, u)
	pf.Query = b.Query // codec test only; not re-verified
	enc := pf.Encode()
	if len(enc) != pf.EncodedSize() {
		t.Fatalf("EncodedSize %d != len(Encode) %d", pf.EncodedSize(), len(enc))
	}
	dec, err := fs.DecodeProof(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Binding != pf.Binding || dec.Digest != pf.Digest || len(dec.Messages) != len(pf.Messages) {
		t.Fatal("decode did not round-trip")
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("re-encode is not the identity")
	}
	// Truncations and trailing garbage are rejected.
	for cut := 0; cut < len(enc); cut += 7 {
		if _, err := fs.DecodeProof(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded", cut)
		}
	}
	if _, err := fs.DecodeProof(append(append([]byte{}, enc...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}
