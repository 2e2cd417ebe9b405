// Command sipclient is the data owner: it uploads a synthetic stream to a
// sipserver while keeping only O(log u) verification state, then runs a
// battery of verified queries and reports results and costs.
//
//	sipclient -addr localhost:7408 -logu 16 -n 65536 -seed 7
//	sipclient -addr localhost:7408 -dataset metrics -queries 5
//
// The client opens (or creates) the -dataset named dataset on the server
// — shared across every connection that opens the same name — ingests
// into it, and repeats the query battery -queries times to show the
// amortization: the stream is ingested once, and every query (first and
// Nth alike) skips the replay. Without -dataset the name is drawn at
// random (private-<32 hex digits> from crypto/rand) and printed: a
// private dataset is just a named dataset nobody else can guess, and the
// server treats it like any other.
//
// -concurrency N overlaps up to N query rounds on the one connection:
// every conversation runs on its own multiplexed channel
// (wire.Client.QueryAsync), so a slow proof never blocks the others —
// the paper's many-cheap-conversations regime over a single socket.
//
// -circuit NAME adds a CIRCUIT conversation to every round: the GKR
// protocol over the named circuit family (F2, COUNT, MATMUL; see
// -circuit-arg) runs on the same multiplexed connection against the
// same maintained dataset — no extra upload, no server-side replay.
//
// -cached replaces the interactive conversations
// with non-interactive replay: each query fetches the server's posted
// Fiat–Shamir proof for the dataset's current version — generated once
// and served from the proof cache to every verifier that asks — and
// verifies it offline against a verifier built from the proof binding's
// deterministic challenge stream and this client's own copy of the
// updates. No prover work happens on the server after the first fetch
// of each (version, query).
//
// -kinds picks the query battery. "all" (the default) runs self-join
// size, range query, and heavy hitters. "seam" runs the split-universe
// seam — self-join size, the F3 frequency moment, and a range sum — the
// kinds a dataset split across shards serves, so this is the battery to
// point at a siprouter fronting a Splits table. In -cached mode each
// ACCEPTED line carries the sha256 of the posted proof bytes: fetch the
// same dataset through a router and through a single engine and the
// digests must match — the split-universe bit-identity check.
//
// Point it at a server started with -cheat-drop to watch every query
// get rejected.
package main

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/gkr"
	"repro/internal/stream"
	"repro/internal/wire"
)

func main() {
	addr := flag.String("addr", "localhost:7408", "sipserver address")
	logu := flag.Int("logu", 16, "log2 of the universe size")
	n := flag.Int("n", 1<<16, "stream length (unit increments)")
	seed := flag.Uint64("seed", 7, "workload seed")
	dataset := flag.String("dataset", "", "named shared dataset (empty = a private one: a random unguessable name, printed)")
	queries := flag.Int("queries", 1, "how many times to run the query battery")
	concurrency := flag.Int("concurrency", 1, "query rounds overlapped on the one connection (multiplexed conversations)")
	circuitName := flag.String("circuit", "", fmt.Sprintf("add a CIRCUIT (GKR) conversation per round; families: %v", circuit.Families()))
	circuitArg := flag.Uint64("circuit-arg", 0, "circuit family argument (MATMUL: matrix dimension n, 0 = default)")
	cached := flag.Bool("cached", false, "verify posted Fiat–Shamir proofs offline instead of running interactive conversations")
	kinds := flag.String("kinds", "all", `query battery: "all" (F2, range query, heavy hitters) or "seam" (F2, F3 moment, range sum — what a split-universe dataset serves)`)
	flag.Parse()
	if *dataset == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			log.Fatalf("drawing a private dataset name: %v", err)
		}
		*dataset = "private-" + hex.EncodeToString(b[:])
		fmt.Printf("private dataset %s\n", *dataset)
	}
	if *kinds != "all" && *kinds != "seam" {
		log.Fatalf(`-kinds must be "all" or "seam", got %q`, *kinds)
	}
	seam := *kinds == "seam"
	if seam && *circuitName != "" {
		log.Fatal("-kinds seam excludes -circuit: a split dataset cannot serve CIRCUIT conversations")
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	// Each round holds three conversations at once (four with -circuit);
	// a server caps in-flight conversations per connection (sipserver
	// -max-queries, default wire.DefaultMaxConcurrentQueries) and refuses
	// the excess.
	convsPerRound := 3
	if *circuitName != "" {
		convsPerRound = 4
	}
	if convsPerRound**concurrency > wire.DefaultMaxConcurrentQueries {
		log.Printf("warning: -concurrency %d holds up to %d conversations; a default server caps them at %d per connection and refuses the rest (REFUSED lines, not failures)",
			*concurrency, convsPerRound**concurrency, wire.DefaultMaxConcurrentQueries)
	}

	f := field.Mersenne()
	u := uint64(1) << *logu
	gen := field.NewSplitMix64(*seed)
	ups := stream.UnitIncrements(u, *n, gen)

	// Probe before the expensive verifier passes: a shared dataset that
	// already holds updates this client never observed can never verify,
	// so fail fast. A separate short-lived connection keeps the server's
	// idle-timeout clock out of the local observation pass.
	probe, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	prior, err := probe.OpenDataset(*dataset, u)
	check(err)
	probe.Close()
	if prior != 0 {
		log.Fatalf("dataset %q already holds %d updates this client never observed; "+
			"verification summaries must cover the whole stream — use a fresh name", *dataset, prior)
	}

	// Verifiers are created before the upload: the single streaming pass.
	// One set per battery round — each conversation consumes its verifier.
	rounds := *queries
	if rounds < 1 {
		rounds = 1
	}
	rng := field.CryptoRNG{}
	qlo, qhi := u/4, u/4+99
	// seamBattery is the -kinds seam query set: exactly the kinds the
	// split-universe partial-prover seam covers, so the same invocation
	// works against a single sipserver and a siprouter splitting the
	// dataset across shards.
	seamBattery := []struct {
		name   string
		kind   wire.QueryKind
		params wire.QueryParams
	}{
		{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}},
		{"F3 MOMENT", wire.QueryFk, wire.QueryParams{K: 3}},
		{fmt.Sprintf("RANGE SUM [%d,%d]", qlo, qhi), wire.QueryRangeSum, wire.QueryParams{A: qlo, B: qhi}},
	}
	f2vs := make([]*core.FkVerifier, rounds)
	rqvs := make([]*core.SubVectorVerifier, rounds)
	hhvs := make([]*core.HeavyHittersVerifier, rounds)
	var gkvs []*gkr.VerifierSession
	if *circuitName != "" {
		gkvs = make([]*gkr.VerifierSession, rounds)
	}
	var seamVs [][]engine.StreamVerifier
	// In -cached mode the challenge randomness comes from each proof's
	// binding, which is only known after the fetch — verifiers are built
	// per fetched proof inside the round instead of up front.
	if !*cached && seam {
		seamVs = make([][]engine.StreamVerifier, rounds)
		for r := range seamVs {
			seamVs[r] = make([]engine.StreamVerifier, len(seamBattery))
			for i, q := range seamBattery {
				v, err := engine.NewStreamVerifier(f, u, q.kind, q.params, rng)
				check(err)
				seamVs[r][i] = v
			}
		}
		for _, up := range ups {
			for r := range seamVs {
				for _, v := range seamVs[r] {
					check(v.Observe(up))
				}
			}
		}
	} else if !*cached {
		for r := 0; r < rounds; r++ {
			f2proto, err := core.NewSelfJoinSize(f, u)
			check(err)
			f2vs[r] = f2proto.NewVerifier(rng)
			rqproto, err := core.NewRangeQuery(f, u)
			check(err)
			rqvs[r] = rqproto.NewVerifier(rng)
			hhproto, err := core.NewHeavyHitters(f, u)
			check(err)
			hhvs[r] = hhproto.NewVerifier(rng)
			if gkvs != nil {
				vs, err := gkr.NewVerifierFor(f, circuit.Spec{Name: *circuitName, Arg: *circuitArg}, u, rng)
				check(err)
				gkvs[r] = vs
			}
		}

		// The F2 summary is a plain LDE evaluation, so the whole batch can
		// be folded in through a worker pool; the tree-based summaries
		// stream.
		for r := 0; r < rounds; r++ {
			check(f2vs[r].ObserveBatch(ups, runtime.NumCPU()))
		}
		for _, up := range ups {
			for r := 0; r < rounds; r++ {
				check(rqvs[r].Observe(up))
				check(hhvs[r].Observe(up))
				if gkvs != nil {
					check(gkvs[r].Observe(up))
				}
			}
		}
	}

	// Connect for real only now that the heavy local pass is done, so
	// the server's idle timeout never sees a silent connection.
	client, err := wire.Dial(*addr)
	if err != nil {
		log.Fatalf("dial: %v", err)
	}
	defer client.Close()
	client.FieldModulus = f.Modulus()
	prior, err = client.OpenDataset(*dataset, u)
	check(err)
	if prior != 0 {
		log.Fatalf("dataset %q gained %d updates from another uploader during the local pass; use a fresh name", *dataset, prior)
	}
	_, err = client.Ingest(ups)
	check(err)
	fmt.Printf("ingested %d updates into dataset %q over universe 2^%d; verifier state is O(log u)\n", len(ups), *dataset, *logu)

	// Each round's three conversations run on their own multiplexed
	// channels; -concurrency bounds how many whole rounds are in flight
	// on the connection at once.
	lo, hi := u/4, u/4+99
	phi := 0.001
	// Every error inside a round is reported as that round's output —
	// never log.Fatal/os.Exit from a round goroutine, which would
	// discard the other rounds' buffered results.
	runRound := func(r int) []string {
		t0 := time.Now()
		var lines []string
		fail := func(name string, err error) {
			transportFailed.Store(true)
			lines = append(lines, fmt.Sprintf("%s: %v", name, err))
		}
		if err := rqvs[r].SetQuery(lo, hi); err != nil {
			fail("RANGE QUERY", err)
			return lines
		}
		if err := hhvs[r].SetQuery(phi); err != nil {
			fail("HEAVY HITTERS", err)
			return lines
		}
		f2h, err := client.QueryAsync(wire.QuerySelfJoinSize, wire.QueryParams{}, f2vs[r])
		if err != nil {
			fail("SELF-JOIN SIZE (F2)", err)
			return lines
		}
		rqh, err := client.QueryAsync(wire.QueryRangeQuery, wire.QueryParams{A: lo, B: hi}, rqvs[r])
		if err != nil {
			fail("RANGE QUERY", err)
			return lines
		}
		hhh, err := client.QueryAsync(wire.QueryHeavyHitters, wire.QueryParams{Phi: phi}, hhvs[r])
		if err != nil {
			fail("HEAVY HITTERS", err)
			return lines
		}
		var gkh *wire.QueryHandle
		if gkvs != nil {
			gkh, err = client.QueryAsync(wire.QueryCircuit, wire.QueryParams{Circuit: *circuitName, A: *circuitArg}, gkvs[r])
			if err != nil {
				fail(fmt.Sprintf("CIRCUIT %s", *circuitName), err)
				return lines
			}
		}

		stats, err := f2h.Wait()
		lines = append(lines, report("SELF-JOIN SIZE (F2)", stats, err))
		if err == nil {
			if res, rerr := f2vs[r].Result(); rerr != nil {
				fail("SELF-JOIN SIZE (F2) result", rerr)
			} else {
				lines = append(lines, fmt.Sprintf("  F2 = %d", res))
			}
		}
		stats, err = rqh.Wait()
		lines = append(lines, report(fmt.Sprintf("RANGE QUERY [%d,%d]", lo, hi), stats, err))
		if err == nil {
			if entries, rerr := rqvs[r].Result(); rerr != nil {
				fail("RANGE QUERY result", rerr)
			} else {
				lines = append(lines, fmt.Sprintf("  %d nonzero entries verified", len(entries)))
			}
		}
		stats, err = hhh.Wait()
		lines = append(lines, report(fmt.Sprintf("HEAVY HITTERS (φ=%g)", phi), stats, err))
		if err == nil {
			if hhRes, _, rerr := hhvs[r].Result(); rerr != nil {
				fail("HEAVY HITTERS result", rerr)
			} else {
				lines = append(lines, fmt.Sprintf("  %d heavy hitters verified complete", len(hhRes)))
			}
		}
		if gkh != nil {
			stats, err = gkh.Wait()
			lines = append(lines, report(fmt.Sprintf("CIRCUIT %s (GKR)", *circuitName), stats, err))
			if err == nil {
				if outs, rerr := gkvs[r].Outputs(); rerr != nil {
					fail("CIRCUIT result", rerr)
				} else {
					lines = append(lines, fmt.Sprintf("  %d circuit outputs verified", len(outs)))
				}
			}
		}
		lines = append(lines, fmt.Sprintf("round wall time: %v", time.Since(t0).Round(time.Millisecond)))
		return lines
	}

	// runSeamRound is the interactive seam battery: the three seam kinds
	// overlapped on their own mux channels, identical against a single
	// engine and a split-universe router.
	runSeamRound := func(r int) []string {
		t0 := time.Now()
		var lines []string
		handles := make([]*wire.QueryHandle, len(seamBattery))
		for i, q := range seamBattery {
			h, err := client.QueryAsync(q.kind, q.params, seamVs[r][i])
			if err != nil {
				transportFailed.Store(true)
				lines = append(lines, fmt.Sprintf("%s: %v", q.name, err))
				return lines
			}
			handles[i] = h
		}
		for i, q := range seamBattery {
			stats, err := handles[i].Wait()
			lines = append(lines, report(q.name, stats, err))
			if err != nil {
				continue
			}
			switch v := seamVs[r][i].(type) {
			case *core.FkVerifier:
				if res, rerr := v.Result(); rerr == nil {
					lines = append(lines, fmt.Sprintf("  moment = %d", res))
				}
			case *core.RangeSumVerifier:
				if res, rerr := v.Result(); rerr == nil {
					lines = append(lines, fmt.Sprintf("  range sum = %d", res))
				}
			}
		}
		lines = append(lines, fmt.Sprintf("round wall time: %v", time.Since(t0).Round(time.Millisecond)))
		return lines
	}

	// runCachedRound is the non-interactive battery: fetch each query's
	// posted proof (one server-side generation per dataset version, every
	// later fetch a cache hit), rebuild the verifier from the binding's
	// challenge stream, replay offline.
	runCachedRound := func(r int) []string {
		t0 := time.Now()
		var lines []string
		lo, hi := u/4, u/4+99
		phi := 0.001
		fetchVerify := func(name string, kind wire.QueryKind, params wire.QueryParams) core.VerifierSession {
			var built core.VerifierSession
			pf, stats, err := client.QueryCached(kind, params, 0,
				func(b fs.Binding) (core.VerifierSession, error) {
					v, err := engine.NewStreamVerifier(f, u, kind, params, b.RNG())
					if err != nil {
						return nil, err
					}
					for _, up := range ups {
						if err := v.Observe(up); err != nil {
							return nil, err
						}
					}
					built = v
					return v, nil
				})
			if err != nil {
				lines = append(lines, report(name, stats, err))
				return nil
			}
			// The digest makes bit-identity checkable from the outside:
			// the same dataset fetched through a split-universe router and
			// through a single engine must print the same sha256.
			sum := sha256.Sum256(pf.Encode())
			lines = append(lines, fmt.Sprintf("%s: ACCEPTED offline — posted proof v%d, %d recorded rounds, %d proof bytes, sha256 %x",
				name, pf.Version, stats.Rounds, stats.CommBytes(), sum))
			return built
		}
		if seam {
			for _, q := range seamBattery {
				v := fetchVerify(q.name, q.kind, q.params)
				if v == nil {
					continue
				}
				switch sv := v.(type) {
				case *core.FkVerifier:
					if res, err := sv.Result(); err == nil {
						lines = append(lines, fmt.Sprintf("  moment = %d", res))
					}
				case *core.RangeSumVerifier:
					if res, err := sv.Result(); err == nil {
						lines = append(lines, fmt.Sprintf("  range sum = %d", res))
					}
				}
			}
			lines = append(lines, fmt.Sprintf("round wall time: %v", time.Since(t0).Round(time.Millisecond)))
			return lines
		}
		if v := fetchVerify("SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}); v != nil {
			if res, err := v.(*core.FkVerifier).Result(); err == nil {
				lines = append(lines, fmt.Sprintf("  F2 = %d", res))
			}
		}
		if v := fetchVerify(fmt.Sprintf("RANGE QUERY [%d,%d]", lo, hi), wire.QueryRangeQuery, wire.QueryParams{A: lo, B: hi}); v != nil {
			if entries, err := v.(*core.SubVectorVerifier).Result(); err == nil {
				lines = append(lines, fmt.Sprintf("  %d nonzero entries verified", len(entries)))
			}
		}
		if v := fetchVerify(fmt.Sprintf("HEAVY HITTERS (φ=%g)", phi), wire.QueryHeavyHitters, wire.QueryParams{Phi: phi}); v != nil {
			if hhRes, _, err := v.(*core.HeavyHittersVerifier).Result(); err == nil {
				lines = append(lines, fmt.Sprintf("  %d heavy hitters verified complete", len(hhRes)))
			}
		}
		if *circuitName != "" {
			if v := fetchVerify(fmt.Sprintf("CIRCUIT %s (GKR)", *circuitName), wire.QueryCircuit, wire.QueryParams{Circuit: *circuitName, A: *circuitArg}); v != nil {
				if outs, err := v.(*gkr.VerifierSession).Outputs(); err == nil {
					lines = append(lines, fmt.Sprintf("  %d circuit outputs verified", len(outs)))
				}
			}
		}
		lines = append(lines, fmt.Sprintf("round wall time: %v", time.Since(t0).Round(time.Millisecond)))
		return lines
	}

	t0 := time.Now()
	results := make([][]string, rounds)
	sem := make(chan struct{}, *concurrency)
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(r int) {
			defer wg.Done()
			defer func() { <-sem }()
			switch {
			case *cached:
				results[r] = runCachedRound(r)
			case seam:
				results[r] = runSeamRound(r)
			default:
				results[r] = runRound(r)
			}
		}(r)
	}
	wg.Wait()
	for r, lines := range results {
		if rounds > 1 {
			fmt.Printf("--- query round %d/%d (no re-upload, no server-side replay) ---\n", r+1, rounds)
		}
		for _, l := range lines {
			fmt.Println(l)
		}
	}
	if rounds > 1 {
		fmt.Printf("%d rounds, concurrency %d: total wall time %v\n",
			rounds, *concurrency, time.Since(t0).Round(time.Millisecond))
	}
	if transportFailed.Load() {
		os.Exit(1)
	}
}

// transportFailed is set by any round that hit a transport error; the
// process exits nonzero after every completed round has been printed
// (an os.Exit from inside a round goroutine would discard the others'
// buffered output).
var transportFailed atomic.Bool

func report(name string, stats core.Stats, err error) string {
	switch {
	case err == nil:
		return fmt.Sprintf("%s: ACCEPTED — %d rounds, %d bytes of proof traffic", name, stats.Rounds, stats.CommBytes())
	case errors.Is(err, core.ErrRejected):
		return fmt.Sprintf("%s: REJECTED — the cloud is cheating (%v)", name, err)
	case errors.Is(err, wire.ErrBudget):
		// A healthy server at its concurrent-query cap, not a transport
		// failure: the conversation was refused, not broken.
		return fmt.Sprintf("%s: REFUSED — server at capacity, lower -concurrency (%v)", name, err)
	default:
		transportFailed.Store(true)
		return fmt.Sprintf("%s: transport error: %v", name, err)
	}
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
