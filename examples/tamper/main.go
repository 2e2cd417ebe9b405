// Adversarial prover gallery — the paper's §5 robustness experiment,
// expanded: "We also tried modifying the prover's messages, by changing
// some pieces of the proof, or computing the proof for a slightly
// modified stream. In all cases, the protocols caught the error."
//
// Every attack below is run against the real protocols; the program exits
// non-zero if any lie is accepted.
//
// Run with: go run ./examples/tamper
package main

import (
	"errors"
	"fmt"
	"log"
	"os"

	"repro/internal/stream"
	"repro/sip"
)

func main() {
	const u = 1 << 12
	f := sip.Mersenne()
	updates := stream.UniformDeltas(u, 1000, sip.NewSeededRNG(13))

	failures := 0
	attack := func(name string, tamper sip.Tamperer, dropData bool) {
		proto, err := sip.NewSelfJoinSize(f, u)
		if err != nil {
			log.Fatal(err)
		}
		v := proto.NewVerifier(sip.NewCryptoRNG())
		for _, up := range updates {
			if err := v.Observe(up); err != nil {
				log.Fatal(err)
			}
		}
		data := updates
		if dropData {
			data = updates[:len(updates)-1] // "missed out some data"
		}
		ds, err := sip.NewDataset(f, u, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := ds.Ingest(data); err != nil {
			log.Fatal(err)
		}
		p, err := ds.Snapshot().NewProver(sip.QuerySelfJoinSize, sip.QueryParams{})
		if err != nil {
			log.Fatal(err)
		}
		if tamper != nil {
			p = &sip.TamperedProver{P: p, T: tamper}
		}
		_, err = sip.Run(p, v)
		switch {
		case err == nil && tamper == nil && !dropData:
			fmt.Printf("%-36s ACCEPTED (honest baseline)\n", name)
		case errors.Is(err, sip.ErrRejected):
			fmt.Printf("%-36s REJECTED ✓\n", name)
		case err == nil:
			fmt.Printf("%-36s ACCEPTED — SOUNDNESS FAILURE\n", name)
			failures++
		default:
			log.Fatalf("%s: unexpected error: %v", name, err)
		}
	}

	flipElem := func(round, pos int) sip.Tamperer {
		return func(r int, m sip.Msg) sip.Msg {
			if r == round && pos < len(m.Elems) {
				m.Elems[pos]++
			}
			return m
		}
	}

	attack("honest prover", nil, false)
	attack("inflate the claimed answer", flipElem(0, 0), false)
	attack("perturb g1(0)", flipElem(0, 1), false)
	attack("perturb g1(2)", flipElem(0, 3), false)
	attack("perturb a middle-round message", flipElem(6, 1), false)
	attack("perturb the final message", flipElem(11, 2), false)
	attack("prove a stream missing one update", nil, true)
	attack("swap two message coefficients", func(r int, m sip.Msg) sip.Msg {
		if r == 3 && len(m.Elems) >= 2 && m.Elems[0] != m.Elems[1] {
			m.Elems[0], m.Elems[1] = m.Elems[1], m.Elems[0]
		}
		return m
	}, false)
	attack("replay round 1 in round 2", func() sip.Tamperer {
		var saved []sip.Elem
		return func(r int, m sip.Msg) sip.Msg {
			if r == 1 {
				saved = append([]sip.Elem(nil), m.Elems...)
			}
			if r == 2 && saved != nil {
				m.Elems = saved
			}
			return m
		}
	}(), false)

	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d attacks were ACCEPTED — this should never happen\n", failures)
		os.Exit(1)
	}
	fmt.Println("Every dishonest prover was rejected; the honest one was accepted.")
	fmt.Println("This reproduces the §5 robustness experiment.")
}
