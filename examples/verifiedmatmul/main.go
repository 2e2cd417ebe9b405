// Verified matrix multiplication via the GKR/circuit workload (Theorem
// 3, Appendix A): a client streams an n×n matrix A as updates to a
// dataset, then asks the untrusted prover for every entry of C = A·A
// and verifies the whole product while keeping only O(log² u) words —
// far less than the O(n²) it would take to even store A.
//
// The demo runs three acts:
//
//  1. an honest prover, built from the dataset's maintained counts
//     (zero stream replay), whose full output vector is verified and
//     spot-checked against a locally computed product;
//  2. a tampering prover, caught by the layer-by-layer sumcheck;
//  3. a prover whose dataset silently dropped one matrix entry, caught
//     by the verifier's streamed-input check.
//
// Run with: go run ./examples/verifiedmatmul
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"repro/sip"
)

func main() {
	const n = 32        // matrix dimension
	const u = n * n     // the dataset holds A row-major
	f := sip.Mersenne() // Z_p, p = 2^61 - 1

	// The data owner streams A (here: a deterministic test matrix) and
	// keeps only the circuit verifier's logarithmic summary.
	a := make([]int64, u)
	updates := make([]sip.Update, u)
	rng := sip.NewSeededRNG(2011)
	for i := range a {
		a[i] = int64(rng.Uint64()%19) - 9
		updates[i] = sip.Update{Index: uint64(i), Delta: a[i]}
	}
	spec := sip.CircuitSpec{Name: sip.CircuitMatMul, Arg: n}

	// Act 1: honest cloud. One call streams the updates into a dataset,
	// builds the GKR prover from the maintained counts, and verifies
	// every entry of C = A·A.
	outs, stats, err := sip.VerifyCircuit(f, u, updates, spec, sip.NewCryptoRNG())
	if err != nil {
		log.Fatalf("honest prover rejected: %v", err)
	}
	fmt.Printf("verified all %d entries of C = A·A (n = %d): %d rounds, %d bytes of proof traffic\n",
		len(outs), n, stats.Rounds, stats.CommBytes())
	for _, ij := range [][2]int{{0, 0}, {3, 17}, {n - 1, n - 1}} {
		i, j := ij[0], ij[1]
		var want sip.Elem
		for k := 0; k < n; k++ {
			want = f.Add(want, f.Mul(f.FromInt64(a[i*n+k]), f.FromInt64(a[k*n+j])))
		}
		if outs[i*n+j] != want {
			log.Fatalf("C[%d][%d] = %d, want %d", i, j, outs[i*n+j], want)
		}
		fmt.Printf("  spot check C[%d][%d] = %d ✓\n", i, j, outs[i*n+j])
	}

	// Act 2: a cloud that tampers with one sumcheck message.
	runAttack := func(name string, updates []sip.Update, tamper sip.Tamperer) {
		query := sip.QueryParams{Circuit: spec.Name, A: spec.Arg}
		v, err := sip.NewQueryVerifier(f, u, sip.QueryCircuit, query, sip.NewCryptoRNG())
		if err != nil {
			log.Fatal(err)
		}
		for _, up := range updates {
			if err := v.Observe(up); err != nil {
				log.Fatal(err)
			}
		}
		ds, err := sip.NewDataset(f, u, 0)
		if err != nil {
			log.Fatal(err)
		}
		// The cloud's copy of the data may diverge from what the owner
		// streamed — that is exactly what the protocol catches.
		cloudData := updates
		if name == "dropped entry" {
			cloudData = updates[:len(updates)-1]
		}
		if err := ds.Ingest(cloudData); err != nil {
			log.Fatal(err)
		}
		p, err := ds.Snapshot().NewProver(sip.QueryCircuit, query)
		if err != nil {
			log.Fatal(err)
		}
		var session sip.ProverSession = p
		if tamper != nil {
			session = &sip.TamperedProver{P: p, T: tamper}
		}
		if _, err := sip.Run(session, v); !errors.Is(err, sip.ErrRejected) {
			fmt.Printf("  %-24s ACCEPTED — SOUNDNESS FAILURE\n", name)
			os.Exit(1)
		}
		fmt.Printf("  %-24s REJECTED ✓\n", name)
	}
	fmt.Println("dishonest clouds:")
	runAttack("tampered sumcheck", updates, func(r int, m sip.Msg) sip.Msg {
		if r == 2 && len(m.Elems) > 0 {
			m.Elems[0] = f.Add(m.Elems[0], 1)
		}
		return m
	})
	// Act 3: a cloud that silently lost one entry of A.
	runAttack("dropped entry", updates, nil)

	fmt.Println("the whole n³-work product was verified with a logarithmic-space client")
}
