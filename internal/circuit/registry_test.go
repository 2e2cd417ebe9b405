package circuit

import (
	"errors"
	"testing"

	"repro/internal/field"
)

func testField(t *testing.T) field.Field {
	t.Helper()
	f, err := field.New(field.Mersenne61)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFamiliesRegistry(t *testing.T) {
	want := []string{FamilyCount, FamilyF2, FamilyMatMul}
	got := Families()
	if len(got) != len(want) {
		t.Fatalf("Families() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Families() = %v, want %v", got, want)
		}
	}
	if _, _, err := BuildSpec(Spec{Name: "NOPE"}, 64); !errors.Is(err, ErrUnknownFamily) {
		t.Fatalf("BuildSpec(NOPE) err = %v, want ErrUnknownFamily", err)
	}
	for _, name := range []string{FamilyF2, FamilyCount} {
		if _, _, err := BuildSpec(Spec{Name: name, Arg: 3}, 64); err == nil {
			t.Fatalf("%s with an argument accepted", name)
		}
	}
}

// TestPaddedVars pins the registry's padding to the engine's ℓ=2 LDE
// convention: the smallest power of two ≥ max(u, 2).
func TestPaddedVars(t *testing.T) {
	for _, tc := range []struct {
		u uint64
		d int
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {500, 9}, {512, 9}, {513, 10},
	} {
		d, err := PaddedVars(tc.u)
		if err != nil {
			t.Fatal(err)
		}
		if d != tc.d {
			t.Errorf("PaddedVars(%d) = %d, want %d", tc.u, d, tc.d)
		}
	}
	if _, err := PaddedVars(0); err == nil {
		t.Error("PaddedVars(0) accepted")
	}
}

// TestCountCircuit checks the aggregation tree computes Σ a_i and that
// its closed-form wiring agrees with the generic gate evaluator.
func TestCountCircuit(t *testing.T) {
	f := testField(t)
	c, w, err := BuildSpec(Spec{Name: FamilyCount}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if c.InputSize != 16 {
		t.Fatalf("COUNT over u=13 has input size %d, want 16", c.InputSize)
	}
	input := make([]field.Elem, c.InputSize)
	var want field.Elem
	for i := range input {
		input[i] = field.Elem(i*i + 1)
		want = f.Add(want, input[i])
	}
	values, err := c.Evaluate(f, input)
	if err != nil {
		t.Fatal(err)
	}
	if values[0][0] != want {
		t.Fatalf("COUNT output %d, want %d", values[0][0], want)
	}
	checkWiringAgrees(t, f, c, w)
}

// TestMatMulCircuit checks the circuit against a naive matrix product
// and the closed-form wiring against the generic gate evaluator.
func TestMatMulCircuit(t *testing.T) {
	f := testField(t)
	const n = 4
	c, w, err := BuildSpec(Spec{Name: FamilyMatMul, Arg: n}, n*n)
	if err != nil {
		t.Fatal(err)
	}
	if c.InputSize != n*n {
		t.Fatalf("input size %d, want %d", c.InputSize, n*n)
	}
	rng := field.NewSplitMix64(7)
	a := f.RandVec(rng, n*n)
	values, err := c.Evaluate(f, a)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want field.Elem
			for k := 0; k < n; k++ {
				want = f.Add(want, f.Mul(a[i*n+k], a[k*n+j]))
			}
			if got := values[0][i*n+j]; got != want {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, got, want)
			}
		}
	}
	checkWiringAgrees(t, f, c, w)
}

// TestMatMulDefaultDim checks the derived dimension covers the padded
// universe.
func TestMatMulDefaultDim(t *testing.T) {
	for _, tc := range []struct {
		u uint64
		n int
	}{
		{4, 2}, {16, 4}, {17, 8}, {500, 32}, {1 << 14, 128},
	} {
		c, _, err := BuildSpec(Spec{Name: FamilyMatMul}, tc.u)
		if err != nil {
			t.Fatalf("u=%d: %v", tc.u, err)
		}
		if c.InputSize != tc.n*tc.n {
			t.Errorf("u=%d: input size %d, want %d", tc.u, c.InputSize, tc.n*tc.n)
		}
	}
	if _, _, err := BuildSpec(Spec{Name: FamilyMatMul}, 1<<15); err == nil {
		t.Error("default MATMUL over u=2^15 accepted (needs n=256 > cap)")
	}
	if _, _, err := BuildSpec(Spec{Name: FamilyMatMul, Arg: 3}, 16); err == nil {
		t.Error("MATMUL with non-power-of-two dimension accepted")
	}
}

// checkWiringAgrees compares the family's closed-form wiring against
// GateWiring at random points for every layer — the correctness contract
// that keeps the verifier's layer checks sound.
func checkWiringAgrees(t *testing.T, f field.Field, c *Circuit, w Wiring) {
	t.Helper()
	gw := GateWiring{C: c}
	rng := field.NewSplitMix64(99)
	for layer := range c.Layers {
		z := f.RandVec(rng, c.VarCount(layer))
		x := f.RandVec(rng, c.VarCount(layer+1))
		y := f.RandVec(rng, c.VarCount(layer+1))
		addW, mulW := w.Eval(f, layer, z, x, y)
		addG, mulG := gw.Eval(f, layer, z, x, y)
		if addW != addG || mulW != mulG {
			t.Fatalf("layer %d: wiring (%d,%d) ≠ generic (%d,%d)", layer, addW, mulW, addG, mulG)
		}
	}
}
