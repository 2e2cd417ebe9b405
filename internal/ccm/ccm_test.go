package ccm

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

func TestNew(t *testing.T) {
	for _, c := range []struct {
		u    uint64
		ell  int
		capU uint64
	}{
		{1, 2, 4}, {4, 2, 4}, {5, 3, 9}, {16, 4, 16}, {1000, 32, 1024},
	} {
		p, err := New(f61, c.u)
		if err != nil {
			t.Fatalf("New(%d): %v", c.u, err)
		}
		if p.Ell != c.ell || p.U != c.capU {
			t.Errorf("New(%d) = ℓ=%d U=%d, want ℓ=%d U=%d", c.u, p.Ell, p.U, c.ell, c.capU)
		}
	}
	if _, err := New(f61, 0); err == nil {
		t.Error("u=0 accepted")
	}
	if _, err := New(field.Field{}, 4); err == nil {
		t.Error("invalid field accepted")
	}
}

func refF2(t *testing.T, ups []stream.Update, u uint64) field.Elem {
	t.Helper()
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	var total field.Elem
	for _, v := range a {
		e := f61.FromInt64(v)
		total = f61.Add(total, f61.Mul(e, e))
	}
	return total
}

func TestCompleteness(t *testing.T) {
	for _, u := range []uint64{4, 100, 1024, 4096} {
		proto, err := New(f61, u)
		if err != nil {
			t.Fatal(err)
		}
		rng := field.NewSplitMix64(u)
		ups := stream.UniformDeltas(proto.U, 100, rng)
		v := proto.NewVerifier(rng)
		p := proto.NewProver()
		for _, up := range ups {
			if err := v.Observe(up.Index, up.Delta); err != nil {
				t.Fatal(err)
			}
			if err := p.Observe(up.Index, up.Delta); err != nil {
				t.Fatal(err)
			}
		}
		proof := p.Prove(0)
		got, err := v.Verify(proof)
		if err != nil {
			t.Fatalf("u=%d: honest proof rejected: %v", u, err)
		}
		if want := refF2(t, ups, proto.U); got != want {
			t.Fatalf("u=%d: F2 = %d, want %d", u, got, want)
		}
		if total := proto.F.DotSlices(p.table, p.table); total != got {
			t.Fatalf("u=%d: prover's F2 %d ≠ verified %d", u, total, got)
		}
		// Θ(√u) accounting.
		if v.SpaceWords() != 2*proto.Ell+1 {
			t.Fatalf("space = %d, want %d", v.SpaceWords(), 2*proto.Ell+1)
		}
		if len(proof) != 2*proto.Ell-1 {
			t.Fatalf("proof = %d words, want %d", len(proof), 2*proto.Ell-1)
		}
	}
}

func TestSoundnessTamper(t *testing.T) {
	proto, err := New(f61, 256)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(7)
	ups := stream.UniformDeltas(proto.U, 50, rng)
	v := proto.NewVerifier(rng)
	p := proto.NewProver()
	for _, up := range ups {
		if err := v.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
		if err := p.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
	}
	proof := p.Prove(0)
	for pos := 0; pos < len(proof); pos += 5 {
		bad := append([]field.Elem(nil), proof...)
		bad[pos] = f61.Add(bad[pos], 1)
		if _, err := v.Verify(bad); !errors.Is(err, ErrRejected) {
			t.Fatalf("tampered position %d accepted", pos)
		}
	}
	// Wrong length and non-canonical entries.
	if _, err := v.Verify(proof[:len(proof)-1]); !errors.Is(err, ErrRejected) {
		t.Error("short proof accepted")
	}
	bad := append([]field.Elem(nil), proof...)
	bad[0] = field.Elem(f61.Modulus())
	if _, err := v.Verify(bad); !errors.Is(err, ErrRejected) {
		t.Error("non-canonical proof accepted")
	}
}

func TestSoundnessWrongStream(t *testing.T) {
	proto, err := New(f61, 1024)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(8)
	ups := stream.UniformDeltas(proto.U, 100, rng)
	v := proto.NewVerifier(rng)
	p := proto.NewProver()
	for _, up := range ups {
		if err := v.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
	}
	for _, up := range ups[:len(ups)-1] { // prover misses one update
		if err := p.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := v.Verify(p.Prove(0)); !errors.Is(err, ErrRejected) {
		t.Fatalf("wrong-stream proof accepted: %v", err)
	}
}

func TestObserveValidation(t *testing.T) {
	proto, err := New(f61, 16)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(field.NewSplitMix64(9))
	if err := v.Observe(16, 1); err == nil {
		t.Error("verifier accepted out-of-universe index")
	}
	p := proto.NewProver()
	if err := p.Observe(16, 1); err == nil {
		t.Error("prover accepted out-of-universe index")
	}
}

// TestProveWorkersIdentical: the parallel one-round prover must emit the
// bit-identical proof of the serial prover and still verify.
func TestProveWorkersIdentical(t *testing.T) {
	f := field.Mersenne()
	proto, err := New(f, 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(proto.U, 100, field.NewSplitMix64(71))
	p := proto.NewProver()
	v := proto.NewVerifier(field.NewSplitMix64(72))
	for _, up := range ups {
		if err := p.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
		if err := v.Observe(up.Index, up.Delta); err != nil {
			t.Fatal(err)
		}
	}
	want := p.Prove(0)
	for _, workers := range []int{1, 3, -1} {
		got := p.Prove(workers)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: proof has %d words, want %d", workers, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: proof word %d = %d, serial = %d", workers, i, got[i], want[i])
			}
		}
		if _, err := v.Verify(got); err != nil {
			t.Fatalf("workers=%d: parallel proof rejected: %v", workers, err)
		}
	}
}

// BenchmarkProve prices the one-round prover at u = 2^16 (ℓ = 256) with
// Workers 1 and 2, so the two rows price its fan-out over tiles of
// evaluation points.
func BenchmarkProve(b *testing.B) {
	proto, err := New(f61, 1<<16)
	if err != nil {
		b.Fatal(err)
	}
	p := proto.NewProver()
	for _, up := range stream.UniformDeltas(proto.U, 1<<12, field.NewSplitMix64(73)) {
		if err := p.Observe(up.Index, up.Delta); err != nil {
			b.Fatal(err)
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p.Prove(workers)
			}
		})
	}
}
