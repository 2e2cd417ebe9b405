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
	"io"
	"log"
	"os"
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
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// query is one entry of the battery: what to ask, and how to print the
// verified answer read back from the accepting verifier.
type query struct {
	name   string
	kind   wire.QueryKind
	params wire.QueryParams
	result func(engine.StreamVerifier) string
}

// battery returns the query set -kinds and -circuit select. "seam" is
// exactly the kinds the split-universe partial-prover seam covers, so
// the same invocation works against a single sipserver and a siprouter
// splitting the dataset across shards.
func battery(kinds, circuitName string, circuitArg, u uint64) []query {
	lo, hi := u/4, u/4+99
	moment := func(label string) func(engine.StreamVerifier) string {
		return func(v engine.StreamVerifier) string {
			res, _ := v.(*core.FkVerifier).Result()
			return fmt.Sprintf("  %s = %d", label, res)
		}
	}
	if kinds == "seam" {
		return []query{
			{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}, moment("moment")},
			{"F3 MOMENT", wire.QueryFk, wire.QueryParams{K: 3}, moment("moment")},
			{fmt.Sprintf("RANGE SUM [%d,%d]", lo, hi), wire.QueryRangeSum, wire.QueryParams{A: lo, B: hi},
				func(v engine.StreamVerifier) string {
					res, _ := v.(*core.RangeSumVerifier).Result()
					return fmt.Sprintf("  range sum = %d", res)
				}},
		}
	}
	const phi = 0.001
	qs := []query{
		{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}, moment("F2")},
		{fmt.Sprintf("RANGE QUERY [%d,%d]", lo, hi), wire.QueryRangeQuery, wire.QueryParams{A: lo, B: hi},
			func(v engine.StreamVerifier) string {
				entries, _ := v.(*core.SubVectorVerifier).Result()
				return fmt.Sprintf("  %d nonzero entries verified", len(entries))
			}},
		{fmt.Sprintf("HEAVY HITTERS (φ=%g)", phi), wire.QueryHeavyHitters, wire.QueryParams{Phi: phi},
			func(v engine.StreamVerifier) string {
				hh, _, _ := v.(*core.HeavyHittersVerifier).Result()
				return fmt.Sprintf("  %d heavy hitters verified complete", len(hh))
			}},
	}
	if circuitName != "" {
		qs = append(qs, query{fmt.Sprintf("CIRCUIT %s (GKR)", circuitName), wire.QueryCircuit,
			wire.QueryParams{Circuit: circuitName, A: circuitArg},
			func(v engine.StreamVerifier) string {
				outs, _ := v.(*gkr.VerifierSession).Outputs()
				return fmt.Sprintf("  %d circuit outputs verified", len(outs))
			}})
	}
	return qs
}

// errTransport makes the process exit nonzero after every completed
// round has been printed (bailing out from inside a round goroutine
// would discard the others' buffered output).
var errTransport = errors.New("sipclient: a query round hit a transport error")

func run(args []string, out io.Writer) error {
	fl := flag.NewFlagSet("sipclient", flag.ContinueOnError)
	addr := fl.String("addr", "localhost:7408", "sipserver address")
	logu := fl.Int("logu", 16, "log2 of the universe size")
	n := fl.Int("n", 1<<16, "stream length (unit increments)")
	seed := fl.Uint64("seed", 7, "workload seed")
	dataset := fl.String("dataset", "", "named shared dataset (empty = a private one: a random unguessable name, printed)")
	queries := fl.Int("queries", 1, "how many times to run the query battery")
	concurrency := fl.Int("concurrency", 1, "query rounds overlapped on the one connection (multiplexed conversations)")
	circuitName := fl.String("circuit", "", fmt.Sprintf("add a CIRCUIT (GKR) conversation per round; families: %v", circuit.Families()))
	circuitArg := fl.Uint64("circuit-arg", 0, "circuit family argument (MATMUL: matrix dimension n, 0 = default)")
	cached := fl.Bool("cached", false, "verify posted Fiat–Shamir proofs offline instead of running interactive conversations")
	kinds := fl.String("kinds", "all", `query battery: "all" (F2, range query, heavy hitters) or "seam" (F2, F3 moment, range sum — what a split-universe dataset serves)`)
	if err := fl.Parse(args); err != nil {
		return err
	}
	if *dataset == "" {
		var b [16]byte
		if _, err := rand.Read(b[:]); err != nil {
			return fmt.Errorf("drawing a private dataset name: %v", err)
		}
		*dataset = "private-" + hex.EncodeToString(b[:])
		fmt.Fprintf(out, "private dataset %s\n", *dataset)
	}
	if *kinds != "all" && *kinds != "seam" {
		return fmt.Errorf(`-kinds must be "all" or "seam", got %q`, *kinds)
	}
	if *kinds == "seam" && *circuitName != "" {
		return errors.New("-kinds seam excludes -circuit: a split dataset cannot serve CIRCUIT conversations")
	}
	if *concurrency < 1 {
		*concurrency = 1
	}
	f := field.Mersenne()
	u := uint64(1) << *logu
	qs := battery(*kinds, *circuitName, *circuitArg, u)
	// Each round holds its whole battery at once; a server caps in-flight
	// conversations per connection (sipserver -max-queries, default
	// wire.DefaultMaxConcurrentQueries) and refuses the excess.
	if len(qs)**concurrency > wire.DefaultMaxConcurrentQueries {
		log.Printf("warning: -concurrency %d holds up to %d conversations; a default server caps them at %d per connection and refuses the rest (REFUSED lines, not failures)",
			*concurrency, len(qs)**concurrency, wire.DefaultMaxConcurrentQueries)
	}
	ups := stream.UnitIncrements(u, *n, field.NewSplitMix64(*seed))

	// Probe before the expensive verifier passes: a shared dataset that
	// already holds updates this client never observed can never verify,
	// so fail fast. A separate short-lived connection keeps the server's
	// idle-timeout clock out of the local observation pass.
	probe, err := wire.Dial(*addr)
	if err != nil {
		return fmt.Errorf("dial: %v", err)
	}
	prior, err := probe.OpenDataset(*dataset, u)
	probe.Close()
	if err != nil {
		return err
	}
	if prior != 0 {
		return fmt.Errorf("dataset %q already holds %d updates this client never observed; "+
			"verification summaries must cover the whole stream — use a fresh name", *dataset, prior)
	}

	// observed builds one query's verifier and streams this client's copy
	// of the updates into it — the single streaming pass, O(log u) state.
	observed := func(q query, rng field.RNG) (engine.StreamVerifier, error) {
		v, err := engine.NewStreamVerifier(f, u, q.kind, q.params, rng)
		if err != nil {
			return nil, err
		}
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				return nil, err
			}
		}
		return v, nil
	}
	// Interactive verifiers are created before the upload, one set per
	// battery round — each conversation consumes its verifier. In -cached
	// mode the challenge randomness comes from each proof's binding, which
	// is only known after the fetch, so those are built inside the round.
	rounds := max(*queries, 1)
	vs := make([][]engine.StreamVerifier, rounds)
	if !*cached {
		for r := range vs {
			vs[r] = make([]engine.StreamVerifier, len(qs))
			for i, q := range qs {
				if vs[r][i], err = observed(q, field.CryptoRNG{}); err != nil {
					return err
				}
			}
		}
	}

	// Connect for real only now that the heavy local pass is done, so
	// the server's idle timeout never sees a silent connection.
	client, err := wire.Dial(*addr)
	if err != nil {
		return fmt.Errorf("dial: %v", err)
	}
	defer client.Close()
	client.FieldModulus = f.Modulus()
	if prior, err = client.OpenDataset(*dataset, u); err != nil {
		return err
	}
	if prior != 0 {
		return fmt.Errorf("dataset %q gained %d updates from another uploader during the local pass; use a fresh name", *dataset, prior)
	}
	if _, err = client.Ingest(ups); err != nil {
		return err
	}
	fmt.Fprintf(out, "ingested %d updates into dataset %q over universe 2^%d; verifier state is O(log u)\n", len(ups), *dataset, *logu)

	// verifyPosted is one -cached query: fetch the posted proof (one
	// server-side generation per dataset version, every later fetch a
	// cache hit), rebuild the verifier from the binding's challenge
	// stream, replay offline.
	verifyPosted := func(q query) (v engine.StreamVerifier, accepted string, err error) {
		pf, stats, err := client.QueryCached(q.kind, q.params, 0, func(b fs.Binding) (core.VerifierSession, error) {
			var err error
			v, err = observed(q, b.RNG())
			return v, err
		})
		if err != nil {
			return nil, "", err
		}
		// The digest makes bit-identity checkable from the outside: the
		// same dataset fetched through a split-universe router and through
		// a single engine must print the same sha256.
		return v, fmt.Sprintf("%s: ACCEPTED offline — posted proof v%d, %d recorded rounds, %d proof bytes, sha256 %x",
			q.name, pf.Version, stats.Rounds, stats.CommBytes(), sha256.Sum256(pf.Encode())), nil
	}

	// runRound is one pass over the battery. Interactive conversations
	// each run on their own multiplexed channel, all in flight at once.
	// Every error is reported as the round's output, never by exiting
	// from the round goroutine, which would discard the other rounds'
	// buffered results; a transport failure is remembered for the exit
	// status.
	var transportFailed atomic.Bool
	runRound := func(r int) (lines []string) {
		t0 := time.Now()
		var handles []*wire.QueryHandle
		if !*cached {
			for i, q := range qs {
				h, err := client.QueryAsync(q.kind, q.params, vs[r][i])
				if err != nil {
					transportFailed.Store(true)
					return append(lines, fmt.Sprintf("%s: %v", q.name, err))
				}
				handles = append(handles, h)
			}
		}
		for i, q := range qs {
			var v engine.StreamVerifier
			var accepted string
			var err error
			if *cached {
				v, accepted, err = verifyPosted(q)
			} else {
				var stats core.Stats
				v = vs[r][i]
				stats, err = handles[i].Wait()
				accepted = fmt.Sprintf("%s: ACCEPTED — %d rounds, %d bytes of proof traffic", q.name, stats.Rounds, stats.CommBytes())
			}
			if err != nil {
				line, transport := refusal(q.name, err)
				if transport {
					transportFailed.Store(true)
				}
				lines = append(lines, line)
				continue
			}
			lines = append(lines, accepted, q.result(v))
		}
		return append(lines, fmt.Sprintf("round wall time: %v", time.Since(t0).Round(time.Millisecond)))
	}

	// -concurrency bounds how many whole rounds are in flight on the
	// connection at once.
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
			results[r] = runRound(r)
		}(r)
	}
	wg.Wait()
	for r, lines := range results {
		if rounds > 1 {
			fmt.Fprintf(out, "--- query round %d/%d (no re-upload, no server-side replay) ---\n", r+1, rounds)
		}
		for _, l := range lines {
			fmt.Fprintln(out, l)
		}
	}
	if rounds > 1 {
		fmt.Fprintf(out, "%d rounds, concurrency %d: total wall time %v\n",
			rounds, *concurrency, time.Since(t0).Round(time.Millisecond))
	}
	if transportFailed.Load() {
		return errTransport
	}
	return nil
}

// refusal words the line for a query that was not accepted, and reports
// whether it was a transport failure rather than a verdict.
func refusal(name string, err error) (line string, transport bool) {
	switch {
	case errors.Is(err, core.ErrRejected):
		return fmt.Sprintf("%s: REJECTED — the cloud is cheating (%v)", name, err), false
	case errors.Is(err, wire.ErrBudget):
		// A healthy server at its concurrent-query cap, not a transport
		// failure: the conversation was refused, not broken.
		return fmt.Sprintf("%s: REFUSED — server at capacity, lower -concurrency (%v)", name, err), false
	default:
		return fmt.Sprintf("%s: transport error: %v", name, err), true
	}
}
