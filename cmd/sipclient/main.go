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
// Nth alike) skips the replay. The client's verifiers are tickets drawn
// before the upload and fed by the batch loop that sends it — one pass
// over the stream, whatever -queries — each spent when its query is
// asked. Without -dataset the name is drawn at
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
// -cached replaces the interactive conversations with non-interactive
// replay, which only SELF-JOIN SIZE has: its query fetches the server's
// posted Fiat–Shamir proof for the dataset's current version — generated
// once and served from the proof cache to every verifier that asks — and
// verifies it offline against a verifier built from the proof binding's
// deterministic challenge stream and this client's own copy of the
// updates. Every other query of the battery prints a REFUSED line (no
// posted proof for its kind): a refusal, not a transport failure, so the
// exit status stays zero. A posted proof gives integrity against third
// parties, not soundness against the server: its challenges are public,
// so the server that generates it can prove a false answer this check
// accepts. Against an untrusted server, run without -cached.
//
// -kinds picks the query battery. "all" (the default) runs self-join
// size, range query, and heavy hitters. "seam" runs the split-universe
// seam — self-join size, the F3 frequency moment, and a range sum — the
// kinds a dataset split across shards serves, so this is the battery to
// point at a siprouter fronting a Splits table. In -cached mode the
// SELF-JOIN SIZE ACCEPTED line carries the sha256 of the posted proof
// bytes: fetch the same dataset through a router and through a single
// engine and the digests must match — the split-universe bit-identity
// check.
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
	"repro/internal/stream"
	"repro/internal/wire"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatal(err)
	}
}

// query is one entry of the battery: what to ask, and how to print its
// verified answer.
type query struct {
	name   string
	kind   wire.QueryKind
	params wire.QueryParams
	result func(engine.Answer) string
}

// battery returns the query set -kinds and -circuit select. "seam" is
// exactly the kinds the split-universe partial-prover seam covers, so
// the same invocation works against a single sipserver and a siprouter
// splitting the dataset across shards.
func battery(kinds, circuitName string, circuitArg, u uint64) []query {
	lo, hi := u/4, u/4+99
	moment := func(label string) func(engine.Answer) string {
		return func(a engine.Answer) string { return fmt.Sprintf("  %s = %d", label, a.Elem) }
	}
	if kinds == "seam" {
		return []query{
			{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}, moment("moment")},
			{"F3 MOMENT", wire.QueryFk, wire.QueryParams{K: 3}, moment("moment")},
			{fmt.Sprintf("RANGE SUM [%d,%d]", lo, hi), wire.QueryRangeSum, wire.QueryParams{A: lo, B: hi},
				func(a engine.Answer) string { return fmt.Sprintf("  range sum = %d", a.Int) }},
		}
	}
	const phi = 0.001
	qs := []query{
		{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}, moment("F2")},
		{fmt.Sprintf("RANGE QUERY [%d,%d]", lo, hi), wire.QueryRangeQuery, wire.QueryParams{A: lo, B: hi},
			func(a engine.Answer) string { return fmt.Sprintf("  %d nonzero entries verified", len(a.Entries)) }},
		{fmt.Sprintf("HEAVY HITTERS (φ=%g)", phi), wire.QueryHeavyHitters, wire.QueryParams{Phi: phi},
			func(a engine.Answer) string {
				return fmt.Sprintf("  %d heavy hitters verified complete", len(a.Hitters))
			}},
	}
	if circuitName != "" {
		qs = append(qs, query{fmt.Sprintf("CIRCUIT %s (GKR)", circuitName), wire.QueryCircuit,
			wire.QueryParams{Circuit: circuitName, A: circuitArg},
			func(a engine.Answer) string { return fmt.Sprintf("  %d circuit outputs verified", len(a.Outputs)) }})
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
	cached := fl.Bool("cached", false, "verify the posted SELF-JOIN SIZE Fiat–Shamir proof offline instead of running interactive conversations; other kinds are refused (integrity against third parties only: the server that generates a proof can forge it)")
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
	client, err := wire.Dial(*addr)
	if err != nil {
		return fmt.Errorf("dial: %v", err)
	}
	defer client.Close()
	client.FieldModulus = f.Modulus()
	prior, err := client.OpenDataset(*dataset, u)
	if err != nil {
		return err
	}
	if prior != 0 {
		return fmt.Errorf("dataset %q already holds %d updates this client never observed; "+
			"verification summaries must cover the whole stream — use a fresh name", *dataset, prior)
	}

	// ask[r][i] yields round r's verifier for query i. Interactive ones
	// are drawn now and fed by the upload: a ticket, spent when the round
	// asks, or for CIRCUIT — whose GKR input check depends on the query,
	// so no ticket serves it — the verifier itself. Each conversation
	// consumes its own. In -cached mode the challenge randomness comes
	// from each proof's binding, known only after the fetch, so those
	// verifiers replay the held stream inside the round.
	rounds := max(*queries, 1)
	ask := make([][]func() (engine.StreamVerifier, error), rounds)
	var sinks []observer
	for r := 0; r < rounds && !*cached; r++ {
		for _, q := range qs {
			t, err := engine.NewTicket(f, u, []wire.QueryKind{q.kind}, field.CryptoRNG{})
			var sink observer = t
			spend := func() (engine.StreamVerifier, error) { return t.Spend(q.kind, q.params) }
			if errors.Is(err, engine.ErrTicketCircuit) {
				var v engine.StreamVerifier
				v, err = engine.NewStreamVerifier(f, u, q.kind, q.params, field.CryptoRNG{})
				sink, spend = v, func() (engine.StreamVerifier, error) { return v, nil }
			}
			if err != nil {
				return err
			}
			sinks = append(sinks, sink)
			ask[r] = append(ask[r], spend)
		}
	}
	ups := stream.UnitIncrements(u, *n, field.NewSplitMix64(*seed))
	if err := upload(client, ups, sinks); err != nil {
		return err
	}
	fmt.Fprintf(out, "ingested %d updates into dataset %q over universe 2^%d; one pass fed them to %d held verifiers of O(log u) words each\n",
		len(ups), *dataset, *logu, len(sinks))

	// verifyPosted is one -cached query: fetch the posted proof (one
	// server-side generation per dataset version, every later fetch a
	// cache hit), rebuild the verifier from the binding's challenge
	// stream, replay offline.
	verifyPosted := func(q query) (v engine.StreamVerifier, accepted string, err error) {
		pf, stats, err := client.QueryCached(q.kind, q.params, 0, func(b fs.Binding) (core.VerifierSession, error) {
			var err error
			if v, err = engine.NewStreamVerifier(f, u, q.kind, q.params, b.RNG()); err != nil {
				return nil, err
			}
			for _, up := range ups {
				if err := v.Observe(up); err != nil {
					return nil, err
				}
			}
			return v, nil
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
		vs := make([]engine.StreamVerifier, len(ask[r]))
		handles := make([]*wire.QueryHandle, len(ask[r]))
		for i, spend := range ask[r] {
			var err error
			if vs[i], err = spend(); err == nil {
				handles[i], err = client.QueryAsync(qs[i].kind, qs[i].params, vs[i])
			}
			if err != nil {
				transportFailed.Store(true)
				return append(lines, fmt.Sprintf("%s: %v", qs[i].name, err))
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
				v = vs[i]
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
			a, _ := engine.AnswerOf(q.kind, v)
			lines = append(lines, accepted, q.result(a))
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

// observer is anything that folds a stream update into verifier state.
type observer interface{ Observe(stream.Update) error }

// upload is the client's one pass over its stream: each batch goes
// through every sink, then to the server, so no update is read twice.
func upload(c *wire.Client, ups []stream.Update, sinks []observer) error {
	const batch = 4096
	for len(ups) > 0 {
		b := ups[:min(batch, len(ups))]
		for _, up := range b {
			for _, s := range sinks {
				if err := s.Observe(up); err != nil {
					return err
				}
			}
		}
		if _, err := c.Ingest(b); err != nil {
			return err
		}
		ups = ups[len(b):]
	}
	return nil
}

// refusal words the line for a query that was not accepted, and reports
// whether it was a transport failure rather than a verdict.
func refusal(name string, err error) (line string, transport bool) {
	switch {
	case errors.Is(err, core.ErrRejected):
		return fmt.Sprintf("%s: REJECTED — the cloud is cheating (%v)", name, err), false
	case errors.Is(err, wire.ErrNotPosted):
		return fmt.Sprintf("%s: REFUSED — no posted proof for this kind; run without -cached", name), false
	case errors.Is(err, wire.ErrBudget):
		// A healthy server at its concurrent-query cap, not a transport
		// failure: the conversation was refused, not broken.
		return fmt.Sprintf("%s: REFUSED — server at capacity, lower -concurrency (%v)", name, err), false
	default:
		return fmt.Sprintf("%s: transport error: %v", name, err), true
	}
}
