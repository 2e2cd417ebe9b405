package gkr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
)

// transcriptGolden pins the sha256 of each family's full interactive
// transcript (every prover message and every challenge, in conversation
// order) over u = 500, the stream sessionUps(500, 300, 42) and verifier
// seed 7. A change to any message byte, to the challenge schedule or to
// the number of rounds changes the digest.
var transcriptGolden = map[string]string{
	circuit.FamilyF2:     "b0bac3bc0b80eaf1c2cf154283c6b4d7c83192ed5f6950a661c6f530d408b703",
	circuit.FamilyCount:  "47d4a3321582d73117a217ae554c386f8e46933b2c1a4b0b8d31e85ae6bbf937",
	circuit.FamilyMatMul: "7cc8643acefc8ddcc7c3d7db9339b2a1e318a33b4f56d35e77c67000e952b19c",
}

// TestGKRTranscriptGolden replays each registry family at workers 0 and
// 2 and compares the transcript digest with the pinned one.
func TestGKRTranscriptGolden(t *testing.T) {
	const u = 500
	ups := sessionUps(u, 300, 42)
	for _, spec := range sessionSpecs {
		for _, workers := range []int{0, 2} {
			rec, _, err := runSession(t, spec, u, ups, workers, 7)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec.Name, workers, err)
			}
			if got, want := transcriptDigest(rec), transcriptGolden[spec.Name]; got != want {
				t.Errorf("%s workers=%d: transcript sha256 %s, want %s", spec.Name, workers, got, want)
			}
		}
	}
}

// transcriptDigest hashes the recorded conversation: prover message i,
// then challenge i, each as its Ints and Elems with length prefixes.
func transcriptDigest(rec *recorder) string {
	h := sha256.New()
	for i, m := range rec.proverMsgs {
		hashMsg(h, 'P', m)
		if i < len(rec.challenges) {
			hashMsg(h, 'V', rec.challenges[i])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashMsg(h hash.Hash, dir byte, m core.Msg) {
	var w [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(w[:], x)
		h.Write(w[:])
	}
	h.Write([]byte{dir})
	put(uint64(len(m.Ints)))
	for _, x := range m.Ints {
		put(x)
	}
	put(uint64(len(m.Elems)))
	for _, e := range m.Elems {
		put(uint64(e))
	}
}

// TestGKRSpaceWords pins the CIRCUIT verifier's reported space at u = 16.
func TestGKRSpaceWords(t *testing.T) {
	for _, c := range []struct {
		spec circuit.Spec
		want int
	}{
		{circuit.Spec{Name: circuit.FamilyF2}, 36},
		{circuit.Spec{Name: circuit.FamilyCount}, 27},
	} {
		v, err := NewVerifierFor(f61, c.spec, 16, field.NewSplitMix64(1))
		if err != nil {
			t.Fatal(err)
		}
		if got := v.SpaceWords(); got != c.want {
			t.Errorf("%s: SpaceWords = %d, want %d", c.spec.Name, got, c.want)
		}
	}
}
