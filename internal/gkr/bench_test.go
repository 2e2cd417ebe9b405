package gkr

import (
	"fmt"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
)

// BenchmarkGKRConversation times one CIRCUIT conversation at u = 2^14:
// the prover's circuit evaluation and every layer's sum-check and line,
// against a verifier that has already streamed the input (its pass is
// outside the timer).
func BenchmarkGKRConversation(b *testing.B) {
	const u = 1 << 14
	ups := sessionUps(u, u, 99)
	for _, spec := range []circuit.Spec{{Name: circuit.FamilyF2}, {Name: circuit.FamilyMatMul, Arg: 32}} {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", spec.Name, workers), func(b *testing.B) {
				proto, err := NewProtocolFor(f61, spec, u, workers)
				if err != nil {
					b.Fatal(err)
				}
				input := sessionInput(b, proto, ups, u)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					vs, err := proto.NewVerifierSession(field.NewSplitMix64(uint64(i)))
					if err != nil {
						b.Fatal(err)
					}
					for _, up := range ups {
						if err := vs.Observe(up); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					ps, err := proto.NewProverSession(input)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := core.Run(ps, vs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
