// Package circuit implements layered arithmetic circuits over Z_p — the
// substrate of the GKR/"Interactive Proofs for Muggles" protocol that the
// paper's Theorem 3 adapts to a streaming verifier (Appendix A).
//
// A circuit is a sequence of layers of fan-in-2 gates; layer 0 is the
// output layer and each gate reads two values from the layer below (the
// input vector acts as the final layer). All layer sizes are powers of
// two, so each layer's value vector has a multilinear extension Ṽ_i over
// log-many variables, and each layer's wiring is described by the
// predicates
//
//	add̃_i(z,x,y) = Σ_{add gates} eq̃(z,out)·eq̃(x,in1)·eq̃(y,in2)
//	mult̃_i(z,x,y)= Σ_{mult gates} …
//
// which the GKR verifier must evaluate at one random point per layer.
// GateWiring evaluates them generically in O(#gates · log S) time;
// F2Wiring gives the closed O(log S) form for the F2 circuit (squaring
// layer + binary sum tree), which is what makes the Theorem-3 baseline a
// genuinely log-space streaming verifier for that statement.
package circuit

import (
	"fmt"
	"math/bits"

	"repro/internal/field"
)

// GateType distinguishes addition and multiplication gates.
type GateType uint8

// The two supported gate types.
const (
	Add GateType = iota
	Mul
)

// Gate reads the values at In1 and In2 of the layer below.
type Gate struct {
	Type     GateType
	In1, In2 uint32
}

// Layer is one circuit layer; the gate's position is its output index.
type Layer struct {
	Gates []Gate
}

// Circuit is a layered circuit. Layers[0] is the output layer; gates of
// Layers[len-1] read from the input vector of length InputSize.
type Circuit struct {
	Layers    []Layer
	InputSize int
}

// Validate checks power-of-two layer sizes and wire ranges.
func (c *Circuit) Validate() error {
	if len(c.Layers) == 0 {
		return fmt.Errorf("circuit: no layers")
	}
	if c.InputSize < 2 || c.InputSize&(c.InputSize-1) != 0 {
		return fmt.Errorf("circuit: input size %d not a power of two ≥ 2", c.InputSize)
	}
	for i, layer := range c.Layers {
		n := len(layer.Gates)
		if n == 0 || n&(n-1) != 0 {
			return fmt.Errorf("circuit: layer %d has %d gates (want power of two ≥ 1)", i, n)
		}
		below := c.InputSize
		if i+1 < len(c.Layers) {
			below = len(c.Layers[i+1].Gates)
		}
		for g, gate := range layer.Gates {
			if int(gate.In1) >= below || int(gate.In2) >= below {
				return fmt.Errorf("circuit: layer %d gate %d reads out of range", i, g)
			}
		}
	}
	return nil
}

// VarCount returns log2 of the layer's width; layer == len(Layers) refers
// to the input vector.
func (c *Circuit) VarCount(layer int) int {
	if layer == len(c.Layers) {
		return bits.Len(uint(c.InputSize)) - 1
	}
	return bits.Len(uint(len(c.Layers[layer].Gates))) - 1
}

// Evaluate runs the circuit on the input and returns every layer's value
// vector: values[i] for gate layers 0..L-1 and values[L] = input.
func (c *Circuit) Evaluate(f field.Field, input []field.Elem) ([][]field.Elem, error) {
	if len(input) != c.InputSize {
		return nil, fmt.Errorf("circuit: input has %d values, want %d", len(input), c.InputSize)
	}
	l := len(c.Layers)
	values := make([][]field.Elem, l+1)
	values[l] = append([]field.Elem(nil), input...)
	for i := l - 1; i >= 0; i-- {
		below := values[i+1]
		gates := c.Layers[i].Gates
		out := make([]field.Elem, len(gates))
		for g, gate := range gates {
			a, b := below[gate.In1], below[gate.In2]
			if gate.Type == Add {
				out[g] = f.Add(a, b)
			} else {
				out[g] = f.Mul(a, b)
			}
		}
		values[i] = out
	}
	return values, nil
}

// NewF2Circuit builds the circuit computing F2 = Σ_i a_i² over 2^k
// inputs: one squaring layer (mult(i,i)) under a binary tree of adds.
// Depth k+1, size 2^{k+1} - 1 + 2^k gates.
func NewF2Circuit(k int) (*Circuit, error) {
	if k < 1 || k > 30 {
		return nil, fmt.Errorf("circuit: F2 exponent %d out of [1,30]", k)
	}
	c := &Circuit{InputSize: 1 << k}
	// Sum layers: layer j has 2^j add gates reading (2o, 2o+1).
	for j := 0; j < k; j++ {
		gates := make([]Gate, 1<<j)
		for o := range gates {
			gates[o] = Gate{Type: Add, In1: uint32(2 * o), In2: uint32(2*o + 1)}
		}
		c.Layers = append(c.Layers, Layer{Gates: gates})
	}
	// Squaring layer: gate i = mult(i, i).
	gates := make([]Gate, 1<<k)
	for i := range gates {
		gates[i] = Gate{Type: Mul, In1: uint32(i), In2: uint32(i)}
	}
	c.Layers = append(c.Layers, Layer{Gates: gates})
	return c, c.Validate()
}

// ---------------------------------------------------------------------
// Wiring predicates

// Wiring evaluates a layer's add̃ and mult̃ predicates at one point.
type Wiring interface {
	Eval(f field.Field, layer int, z, x, y []field.Elem) (add, mul field.Elem)
}

// eqBit returns eq̃ of one coordinate against one bit: (1-p) or p.
func eqBit(f field.Field, p field.Elem, bit uint32) field.Elem {
	if bit == 0 {
		return f.Sub(1, p)
	}
	return p
}

// eqIndex returns eq̃(point, index) = Π_t eqBit(point[t], bit_t(index)).
func eqIndex(f field.Field, point []field.Elem, index uint32) field.Elem {
	out := field.Elem(1)
	for _, p := range point {
		out = f.Mul(out, eqBit(f, p, index&1))
		index >>= 1
	}
	return out
}

// GateWiring evaluates the predicates by iterating over the layer's gates:
// O(#gates · log S) per call. Correct for any circuit; a verifier using it
// spends time linear in the circuit, so it serves as the general-purpose
// fallback (the paper's Theorem 3 presumes log-space-uniform wiring with
// closed forms, like F2Wiring below).
type GateWiring struct {
	C *Circuit
}

// Eval sums eq̃ products over the gates of the layer.
func (w GateWiring) Eval(f field.Field, layer int, z, x, y []field.Elem) (add, mul field.Elem) {
	for g, gate := range w.C.Layers[layer].Gates {
		term := f.Mul(eqIndex(f, z, uint32(g)),
			f.Mul(eqIndex(f, x, gate.In1), eqIndex(f, y, gate.In2)))
		if gate.Type == Add {
			add = f.Add(add, term)
		} else {
			mul = f.Add(mul, term)
		}
	}
	return add, mul
}

// F2Wiring is the closed form for NewF2Circuit(K): O(log u) per
// evaluation, which keeps the GKR verifier's per-layer work logarithmic.
type F2Wiring struct {
	K int
}

// eq3 returns abc + (1-a)(1-b)(1-c), the three-way bit equality extension.
func eq3(f field.Field, a, b, c field.Elem) field.Elem {
	one := field.Elem(1)
	return f.Add(f.Mul(a, f.Mul(b, c)),
		f.Mul(f.Sub(one, a), f.Mul(f.Sub(one, b), f.Sub(one, c))))
}

// Eval returns the predicates of the F2 circuit:
//
//	sum layer j:   add̃ = (1-x₀)·y₀·Π_t eq3(z_t, x_{t+1}, y_{t+1})
//	square layer:  mult̃ = Π_t eq3(z_t, x_t, y_t)
func (w F2Wiring) Eval(f field.Field, layer int, z, x, y []field.Elem) (add, mul field.Elem) {
	if layer == w.K {
		mul = 1
		for t := range z {
			mul = f.Mul(mul, eq3(f, z[t], x[t], y[t]))
		}
		return 0, mul
	}
	add = f.Mul(f.Sub(1, x[0]), y[0])
	for t := range z {
		add = f.Mul(add, eq3(f, z[t], x[t+1], y[t+1]))
	}
	return add, 0
}
