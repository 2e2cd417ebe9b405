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
// outside the timer). F2 also runs at u = 2^16, where each layer holds
// four times the gates; MATMUL-32's circuit does not grow with u.
func BenchmarkGKRConversation(b *testing.B) {
	for _, shape := range []struct {
		name string
		spec circuit.Spec
		u    uint64
	}{
		{"F2", circuit.Spec{Name: circuit.FamilyF2}, 1 << 14},
		{"MATMUL", circuit.Spec{Name: circuit.FamilyMatMul, Arg: 32}, 1 << 14},
		{"F2/u=2^16", circuit.Spec{Name: circuit.FamilyF2}, 1 << 16},
	} {
		spec, u := shape.spec, shape.u
		ups := sessionUps(u, int(u), 99)
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/workers=%d", shape.name, workers), func(b *testing.B) {
				proto, err := NewProtocolFor(f61, spec, u)
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
					ps, err := proto.NewProverSession(input, workers)
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
