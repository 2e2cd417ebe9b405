// A multi-tenant proving service: several data owners feed one shared
// dataset and each verifies queries over the union — the paper's cloud
// deployment (§1) grown to the "ingest once, prove many" model.
//
// Three parties talk to one sipserver-style engine over real sockets:
//
//	uploader A   ingests the morning's event log into dataset "events"
//	uploader B   ingests the afternoon's — a separate TCP connection
//	auditor      attaches to "events" and runs verified F2, RANGE QUERY
//	             and HEAVY HITTERS — twice, to show the second round of
//	             queries costs the cloud no stream replay
//
// The auditor's tickets observe the stream once, as it is uploaded (that
// is the verifier's single streaming pass), and it keeps no copy; the
// cloud never re-ingests anything: every prover is built from the
// dataset's maintained tables.
//
// Run with: go run ./examples/shareddataset
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
	u       = 1 << 14
	perHalf = 30000
	name    = "events"
)

func main() {
	f := sip.Mersenne()

	// The cloud: a wire server around a shared dataset engine.
	srv := &wire.Server{F: f, Workers: -1, Engine: sip.NewEngine(f, -1), IdleTimeout: time.Minute}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	go func() { _ = srv.Serve(ln) }()
	defer srv.Close()
	addr := ln.Addr().String()

	// The audit: two rounds of three verified queries.
	audit := []struct {
		kind   wire.QueryKind
		params wire.QueryParams
		show   func(sip.Answer) string
	}{
		{wire.QuerySelfJoinSize, wire.QueryParams{}, func(a sip.Answer) string {
			return fmt.Sprintf("F2            = %-12d", a.Elem)
		}},
		{wire.QueryRangeQuery, wire.QueryParams{A: 100, B: 199}, func(a sip.Answer) string {
			return fmt.Sprintf("range [100,199] = %d nonzero entries verified", len(a.Entries))
		}},
		{wire.QueryHeavyHitters, wire.QueryParams{Phi: 0.002}, func(a sip.Answer) string {
			return fmt.Sprintf("heavy hitters = %d items ≥ %d occurrences, completeness verified", len(a.Hitters), a.Int)
		}},
	}
	// The auditor's verifier state: one ticket per audit conversation,
	// each drawn before the stream for any of the audit kinds, fed once as
	// the uploads go by — the verifier's single streaming pass, O(log u)
	// words per ticket, the stream itself never kept — and spent on
	// whichever query is asked.
	kinds := []sip.QueryKind{sip.QuerySelfJoinSize, sip.QueryRangeQuery, sip.QueryHeavyHitters}
	tickets := make([]*sip.Ticket, 2*len(audit))
	for i := range tickets {
		tickets[i], err = sip.NewTicket(f, u, kinds, sip.NewCryptoRNG())
		must(err)
	}

	// The day's events, split between two uploaders.
	morning := stream.UnitIncrements(u, perHalf, sip.NewSeededRNG(41))
	afternoon := stream.UnitIncrements(u, perHalf, sip.NewSeededRNG(42))
	for i, part := range [][]sip.Update{morning, afternoon} {
		c, err := wire.Dial(addr)
		must(err)
		prior, err := c.OpenDataset(name, u)
		must(err)
		after, err := c.Ingest(part)
		must(err)
		for _, up := range part {
			for _, t := range tickets {
				must(t.Observe(up))
			}
		}
		fmt.Printf("uploader %c: dataset %q had %d updates, now %d\n", 'A'+i, name, prior, after)
		c.Close()
	}

	// The auditor attaches by name and queries — twice.
	auditor, err := wire.Dial(addr)
	must(err)
	defer auditor.Close()
	count, err := auditor.OpenDataset(name, u)
	must(err)
	fmt.Printf("auditor: attached to %q with %d updates ingested by others\n\n", name, count)

	for r := 0; r < 2; r++ {
		fmt.Printf("--- audit round %d (cloud replays nothing) ---\n", r+1)
		for i, q := range audit {
			v, err := tickets[r*len(audit)+i].Spend(q.kind, q.params)
			must(err)
			stats, err := auditor.Query(q.kind, q.params, v)
			must(err)
			a, err := sip.AnswerOf(q.kind, v)
			must(err)
			fmt.Printf("%s (%d proof bytes)\n", q.show(a), stats.CommBytes())
		}
		fmt.Println()
	}
	fmt.Println("every answer verified; a cloud that dropped either uploader's data would be rejected")
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
