// Package gkr implements the Goldwasser–Kalai–Rothblum "Interactive
// Proofs for Muggles" protocol with a *streaming* verifier — the
// construction behind Theorem 3 of Cormode–Thaler–Yi (Appendix A,
// "Streaming Interactive Proofs for Muggles").
//
// For a layered circuit C, the protocol reduces a claim about the output
// layer to a claim about the input layer, one layer at a time. For layer
// i, with Ṽ_i the multilinear extension of the layer's values,
//
//	Ṽ_i(z) = Σ_{x,y ∈ {0,1}^{k_{i+1}}}
//	           add̃_i(z,x,y)·(Ṽ_{i+1}(x)+Ṽ_{i+1}(y))
//	         + mult̃_i(z,x,y)·Ṽ_{i+1}(x)·Ṽ_{i+1}(y)
//
// is verified with a 2k_{i+1}-round sum-check (degree ≤ 2 per variable,
// so 3 evaluations per message), after which the two claims Ṽ_{i+1}(x*),
// Ṽ_{i+1}(y*) are merged into one by restricting Ṽ_{i+1} to the line
// through x* and y*.
//
// The streaming twist (Appendix A): the final claim is about the *input*
// extension at a point that depends only on the verifier's own coins —
// z_L = ℓ_{L-1}(t*_{L-1}) is a function of the pre-sampled challenges, not
// of anything the prover says. The verifier therefore samples all
// randomness up front, derives that point, and evaluates the input MLE at
// it during the stream in O(log u) space, exactly like Theorem 1.
//
// The honest prover runs in O(S·log S) per layer using the per-gate
// bookkeeping tables (the standard linear-time sum-check prover).
//
// The protocol is one session per side: VerifierSession and
// ProverSession are the core.VerifierSession / core.ProverSession state
// machines themselves, so core.Run, the engine's snapshot provers, the
// mux wire and the tampering tests drive GKR like any other query kind.
// Message flow (prover → verifier unless noted):
//
//	opening:   the claimed output vector
//	challenge: z₀ (verifier reveals the random output point)
//	then per layer, 2k sum-check exchanges of (3 evals) ⇄ (challenge r),
//	the line restriction q(0..k), and the verifier's t*; the prover
//	derives the next layer's point z = x* + t*(y*−x*) from the revealed
//	challenges itself — the Appendix-A property that z depends only on
//	the verifier's coins. After the final layer's line the verifier
//	checks the claim against its streamed input evaluation and stops.
//
// This package exists as the Theorem-3 baseline: §3's Remarks observe
// that the specialized F2 protocol is a quadratic improvement
// ((log u, log u) vs (log² u, log² u)); harness.CompareF2 measures
// exactly that gap.
package gkr

import (
	"errors"
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/parallel"
)

// gkrGrain is the minimum per-goroutine chunk for the per-gate loops.
// One gate costs ~10 field operations in a sum-check message (vs ~1 for
// the kernels parallel.MinGrain is calibrated for), so a smaller floor
// pays.
const gkrGrain = 1 << 9

// Protocol binds a circuit to a field and a wiring evaluator.
type Protocol struct {
	F      field.Field
	C      *circuit.Circuit
	Wiring circuit.Wiring

	// Workers sets the prover-side fork–join width (parallel.Workers
	// semantics: 0 serial, <0 NumCPU). Transcripts are bit-identical for
	// every value — the same invariant the fixed query kinds enforce.
	Workers int
}

// New validates the circuit and returns the protocol. A nil wiring
// selects the generic gate-iterating evaluator.
func New(f field.Field, c *circuit.Circuit, w circuit.Wiring) (*Protocol, error) {
	if !f.Valid() {
		return nil, errors.New("gkr: invalid field")
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	for i := 1; i <= len(c.Layers); i++ {
		if c.VarCount(i) == 0 {
			return nil, fmt.Errorf("gkr: layer %d has a single gate below the output; widen the circuit", i)
		}
	}
	if w == nil {
		w = circuit.GateWiring{C: c}
	}
	return &Protocol{F: f, C: c, Wiring: w}, nil
}

// NewProtocolFor builds the protocol for a named circuit family over a
// dataset universe of size u with the given prover worker count. The
// family's input convention follows the engine's padding: the dense
// element table padded to a power of two, of which the circuit reads the
// first InputSize entries.
func NewProtocolFor(f field.Field, spec circuit.Spec, u uint64, workers int) (*Protocol, error) {
	c, w, err := circuit.BuildSpec(spec, u)
	if err != nil {
		return nil, err
	}
	p, err := New(f, c, w)
	if err != nil {
		return nil, err
	}
	p.Workers = workers
	return p, nil
}

// NewVerifierFor builds the verifier session for a named circuit family
// over universe u. (Workers are a prover-side knob; the verifier streams
// in O(log² u) space and stays serial.)
func NewVerifierFor(f field.Field, spec circuit.Spec, u uint64, rng field.RNG) (*VerifierSession, error) {
	p, err := NewProtocolFor(f, spec, u, 0)
	if err != nil {
		return nil, err
	}
	return p.NewVerifierSession(rng)
}

// InputFromCounts derives the circuit input from a frequency table held
// in equal chunks of width entries (a nil chunk holds zeros, a flat table
// is one chunk): the field images of its first InputSize counts,
// zero-padded if the table is shorter. It reads only the chunks the
// input covers, and only those that are not nil.
func (p *Protocol) InputFromCounts(width int, chunks [][]int64) []field.Elem {
	in := make([]field.Elem, p.C.InputSize)
	for k, ch := range chunks {
		if lo := k * width; lo < len(in) && ch != nil {
			n := min(width, len(in)-lo)
			p.F.FromInt64Slice(in[lo:lo+n], ch[:n])
		}
	}
	return in
}

// reject wraps a failed check in core.ErrRejected, the one rejection
// sentinel transports and clients test for.
func reject(format string, args ...any) error {
	return fmt.Errorf("%w: gkr: %s", core.ErrRejected, fmt.Sprintf(format, args...))
}

// linePoint writes x + t·(y − x) into dst and returns it: a point on the
// line through x and y. It is the next layer's point z = x* + t*(y* − x*),
// which both sides derive from the revealed challenges, and the points
// at which the prover evaluates the line restriction.
func linePoint(f field.Field, dst, x, y []field.Elem, t field.Elem) []field.Elem {
	for j := range dst {
		dst[j] = f.Add(x[j], f.Mul(t, f.Sub(y[j], x[j])))
	}
	return dst
}

// foldAt evaluates the multilinear extension of table at point, binding
// one variable per pass with the FoldPairs kernel split across workers.
// src and dst are ping-pong scratch of at least len(table) and
// len(table)/2 elements: each pass reads one and writes the other, so
// the chunked FoldPairs calls never overlap, and a caller evaluating
// many points reuses the same two buffers.
func foldAt(f field.Field, workers int, table, point, src, dst []field.Elem) field.Elem {
	nw := parallel.Workers(workers)
	cur := src[:len(table)]
	copy(cur, table)
	for _, r := range point {
		next := dst[:len(cur)/2]
		parallel.ForGrain(nw, len(next), gkrGrain, func(_, lo, hi int) {
			f.FoldPairs(next[lo:hi], cur[2*lo:2*hi], r)
		})
		cur, dst = next, cur
	}
	return cur[0]
}
