package sip_test

import (
	"errors"
	"testing"

	"repro/sip"
)

// TestCircuitFamilies pins the public registry listing.
func TestCircuitFamilies(t *testing.T) {
	fams := sip.CircuitFamilies()
	want := map[string]bool{sip.CircuitF2: false, sip.CircuitCount: false, sip.CircuitMatMul: false}
	for _, name := range fams {
		if _, ok := want[name]; ok {
			want[name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("family %q missing from CircuitFamilies() = %v", name, fams)
		}
	}
}

// TestVerifyCircuitMatMul checks the one-call convenience end to end:
// the verified output vector is the true matrix product.
func TestVerifyCircuitMatMul(t *testing.T) {
	f := sip.Mersenne()
	const n = 4
	const u = n * n
	// A as a stream of row-major updates.
	var a [u]int64
	var ups []sip.Update
	rng := sip.NewSeededRNG(77)
	for i := range a {
		a[i] = int64(rng.Uint64()%7) - 3
		ups = append(ups, sip.Update{Index: uint64(i), Delta: a[i]})
	}
	outs, _, err := sip.VerifyCircuit(f, u, ups, sip.CircuitSpec{Name: sip.CircuitMatMul, Arg: n}, sip.NewSeededRNG(78))
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != n*n {
		t.Fatalf("got %d outputs, want %d", len(outs), n*n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want sip.Elem
			for k := 0; k < n; k++ {
				want = f.Add(want, f.Mul(f.FromInt64(a[i*n+k]), f.FromInt64(a[k*n+j])))
			}
			if outs[i*n+j] != want {
				t.Fatalf("C[%d][%d] = %d, want %d", i, j, outs[i*n+j], want)
			}
		}
	}
}

// TestVerifyCircuitRejectsTamper drives a CIRCUIT conversation with a
// tampering prover; the verifier must reject with ErrRejected.
func TestVerifyCircuitRejectsTamper(t *testing.T) {
	f := sip.Mersenne()
	const u = 64
	var ups []sip.Update
	for i := uint64(0); i < u; i++ {
		ups = append(ups, sip.Update{Index: i, Delta: int64(i%5) - 2})
	}
	query := sip.QueryParams{Circuit: sip.CircuitF2}
	v, err := sip.NewQueryVerifier(f, u, sip.QueryCircuit, query, sip.NewSeededRNG(80))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	ds, err := sip.NewDataset(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	p, err := ds.Snapshot().NewProver(sip.QueryCircuit, query)
	if err != nil {
		t.Fatal(err)
	}
	tampered := &sip.TamperedProver{P: p, T: func(round int, m sip.Msg) sip.Msg {
		if round == 1 && len(m.Elems) > 0 {
			m.Elems[0] = f.Add(m.Elems[0], 1)
		}
		return m
	}}
	if _, err := sip.Run(tampered, v); !errors.Is(err, sip.ErrRejected) {
		t.Fatalf("tampered circuit proof: err = %v, want ErrRejected", err)
	}
}

// TestVerifyCircuitUnknown pins the typed error surface.
func TestVerifyCircuitUnknown(t *testing.T) {
	_, _, err := sip.VerifyCircuit(sip.Mersenne(), 16, nil, sip.CircuitSpec{Name: "NOPE"}, sip.NewSeededRNG(1))
	if !errors.Is(err, sip.ErrUnknownCircuit) {
		t.Fatalf("err = %v, want ErrUnknownCircuit", err)
	}
}
