// Many verified conversations, one connection: the paper's deployment
// regime — a cloud prover amortizing one ingested stream over many
// cheap logarithmic conversations — without the wire layer serializing
// them. Every query below runs on its own multiplexed channel
// (wire.Client.QueryAsync), so a slow proof (F2 costs the prover a full
// table scan) never blocks the cheap ones, and ingestion keeps flowing
// between conversation frames of the in-flight queries.
//
// The demo:
//
//  1. ingest a synthetic event stream into the named dataset "events";
//  2. run a battery of four verified queries serially, timing it;
//  3. run the same battery overlapped on the same connection — four
//     conversations in flight at once, each against its own immutable
//     snapshot — and time that;
//  4. while the overlapped batch is still being issued, ingest another
//     batch of events on the same connection to show upload and proofs
//     interleave.
//
// On a multi-core host the overlapped battery approaches the cost of
// its slowest member instead of the sum; on one core the two coincide.
//
// Run with: go run ./examples/concurrentqueries
package main

import (
	"fmt"
	"log"
	"net"
	"time"

	"repro/internal/stream"
	"repro/internal/wire"
	"repro/sip"
)

const (
	u    = 1 << 14
	n    = 40000
	name = "events"
)

func main() {
	f := sip.Mersenne()

	// The cloud. Workers: 1 keeps each prover single-threaded so any
	// speedup below comes purely from overlapping whole conversations.
	srv := &wire.Server{F: f, Workers: 1, Engine: sip.NewEngine(f, 1), IdleTimeout: time.Minute}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()

	// One connection for everything: upload and every conversation.
	client, err := wire.Dial(ln.Addr().String())
	must(err)
	defer client.Close()
	_, err = client.OpenDataset(name, u)
	must(err)

	// The battery: one expensive sum-check conversation and three
	// tree-based ones.
	type query struct {
		label  string
		kind   wire.QueryKind
		params wire.QueryParams
	}
	battery := []query{
		{"SELF-JOIN SIZE (F2)", wire.QuerySelfJoinSize, wire.QueryParams{}},
		{"RANGE QUERY [256,355]", wire.QueryRangeQuery, wire.QueryParams{A: 256, B: 355}},
		{"PREDECESSOR(9000)", wire.QueryPredecessor, wire.QueryParams{A: 9000}},
		{"HEAVY HITTERS (φ=0.002)", wire.QueryHeavyHitters, wire.QueryParams{Phi: 0.002}},
	}
	// Every conversation consumes its own verifier randomness: reusing a
	// draw against the same server is unsafe (the paper's §7). So every
	// ticket — serial battery, overlapped battery, the post-ingest F2 —
	// is drawn up front from one RNG, and all of them observe the stream
	// as it is uploaded: the data owner's single streaming pass.
	rng := sip.NewSeededRNG(100)
	tickets := make([]*sip.Ticket, 2*len(battery)+1)
	for i := range tickets {
		tickets[i], err = sip.NewTicket(f, u, []sip.QueryKind{battery[i%len(battery)].kind}, rng)
		must(err)
	}
	serialT, overlappedT, post := tickets[:len(battery)], tickets[len(battery):2*len(battery)], tickets[2*len(battery)]
	spend := func(t *sip.Ticket, q query) sip.VerifierSession {
		v, err := t.Spend(q.kind, q.params)
		must(err)
		return v
	}

	events := stream.UnitIncrements(u, n, sip.NewSeededRNG(7))
	_, err = client.Ingest(events)
	must(err)
	for _, up := range events {
		for _, t := range tickets {
			must(t.Observe(up))
		}
	}
	fmt.Printf("ingested %d events into %q over universe 2^14\n\n", n, name)

	// Serial: one conversation at a time.
	t0 := time.Now()
	for i, q := range battery {
		_, err := client.Query(q.kind, q.params, spend(serialT[i], q))
		must(err)
	}
	serial := time.Since(t0)
	fmt.Printf("serial battery:     %4d queries verified in %v\n", len(battery), serial.Round(time.Microsecond))

	// Overlapped: all four in flight at once on the same connection,
	// with another ingest interleaved between their frames.
	more := stream.UnitIncrements(u, 5000, sip.NewSeededRNG(8))
	t0 = time.Now()
	handles := make([]*wire.QueryHandle, len(battery))
	for i, q := range battery {
		handles[i], err = client.QueryAsync(q.kind, q.params, spend(overlappedT[i], q))
		must(err)
	}
	count, err := client.Ingest(more) // flows between the conversations' frames
	must(err)
	for i, h := range handles {
		stats, err := h.Wait()
		must(err)
		fmt.Printf("  %-24s ACCEPTED (%d rounds, %d proof bytes)\n", battery[i].label, stats.Rounds, stats.CommBytes())
	}
	overlapped := time.Since(t0)
	fmt.Printf("overlapped battery: %4d queries verified in %v (plus %d events ingested mid-flight, dataset now %d)\n",
		len(battery), overlapped.Round(time.Microsecond), len(more), count)
	fmt.Printf("speedup: %.2fx (expect ~1x on a single core, more with cores)\n\n", float64(serial)/float64(overlapped))

	// The queries issued before the mid-flight ingest proved against the
	// pre-ingest snapshot; a fresh conversation sees the union, so only
	// its ticket observes the mid-flight batch.
	for _, up := range more {
		must(post.Observe(up))
	}
	_, err = client.Query(battery[0].kind, battery[0].params, spend(post, battery[0]))
	must(err)
	fmt.Println("post-ingest F2 conversation verified over the union — every answer provably complete")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
