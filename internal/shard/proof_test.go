package shard

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/conformance"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/proofcache"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

// TestProofRefusedParamsCacheNothing: a proof request for a kind with no
// posted proof — every kind but SELF-JOIN SIZE, with valid parameters
// or with parameters its verifier would refuse — fails on its channel
// with a refusal naming the kind, moves no proof-cache counter, and
// leaves the connection serving: a SELF-JOIN SIZE proof follows on it.
// The requests are raw ProofReqCh frames, so the client's own check
// (FetchProof, which must refuse them with wire.ErrNotPosted before it
// writes anything) cannot hide the service's. They go to a server, to a
// router in front of it, and to a dataset split S = 2, whose owners must
// not hear of them: no owner conversation is opened.
func TestProofRefusedParamsCacheNothing(t *testing.T) {
	const u = 512
	refused := []conformance.Case{
		{Kind: wire.QueryRangeSum, Params: wire.QueryParams{A: 9, B: 3}},
		{Kind: wire.QueryRangeQuery, Params: wire.QueryParams{A: 9, B: 3}},
		{Kind: wire.QueryIndex, Params: wire.QueryParams{A: u}},
		{Kind: wire.QueryPredecessor, Params: wire.QueryParams{A: u}},
		{Kind: wire.QueryHeavyHitters, Params: wire.QueryParams{Phi: 2}},
		{Kind: wire.QueryCircuit, Params: wire.QueryParams{Circuit: "NOSUCH"}},
	}
	for _, c := range conformance.Cases {
		if c.Kind != wire.QuerySelfJoinSize {
			refused = append(refused, c)
		}
	}

	addr, stop := startShard(t, &wire.Server{F: f61})
	t.Cleanup(stop)
	routerAddr, _, stop := startRouter(t, &Table{Shards: []ShardInfo{{Name: "s1", Addr: addr}}})
	t.Cleanup(stop)
	// The split's second owner sits behind a relay that counts the
	// prover messages its conversations send.
	var owners []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		a, stop := startShard(t, &wire.Server{F: f61})
		t.Cleanup(stop)
		owners = append(owners, ShardInfo{Name: name, Addr: a})
	}
	relay := newTamperRelay(t, owners[1].Addr)
	owners[1].Addr = relay.addr()
	splitAddr, _, stop := startRouter(t, &Table{Shards: owners,
		Splits: map[string]*SplitSpec{"refuse": {Slices: 2, Owners: []string{"s1", "s2"}}}})
	t.Cleanup(stop)

	ups := stream.UnitIncrements(u, 80, field.NewSplitMix64(960))
	for _, tp := range []struct{ name, addr string }{
		{"server", addr}, {"router", routerAddr}, {"split", splitAddr},
	} {
		t.Run(tp.name, func(t *testing.T) {
			c := dialT(t, tp.addr)
			if _, err := c.OpenDataset("refuse", u); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Ingest(ups); err != nil {
				t.Fatal(err)
			}
			for _, q := range refused {
				if _, err := c.FetchProof(q.Kind, q.Params, 0); !errors.Is(err, wire.ErrNotPosted) {
					t.Errorf("%v %+v: FetchProof = %v, want ErrNotPosted", q, q.Params, err)
				}
			}
			cache := func() proofcache.Stats {
				st, err := c.ServerStats()
				if err != nil {
					t.Fatal(err)
				}
				return st.ProofCache
			}
			before := cache()

			conn, err := net.Dial("tcp", tp.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			_ = conn.SetDeadline(time.Now().Add(30 * time.Second))
			if err := frames.WriteFrame(conn, frames.Open, frames.EncodeOpen("refuse", u)); err != nil {
				t.Fatal(err)
			}
			if typ, _, err := frames.ReadFrame(conn); err != nil || typ != frames.OK {
				t.Fatalf("open: frame 0x%02x, %v", typ, err)
			}
			// ask sends one proof request on channel id and returns the
			// reply's type and body.
			ask := func(id uint32, q conformance.Case) (byte, []byte) {
				req := frames.EncodeChannel(id, frames.EncodeProofReq(0, q.Kind, q.Params))
				if err := frames.WriteFrame(conn, frames.ProofReqCh, req); err != nil {
					t.Fatal(err)
				}
				typ, payload, err := frames.ReadFrame(conn)
				if err != nil {
					t.Fatalf("%v: %v", q, err)
				}
				got, body, err := frames.DecodeChannel(payload)
				if err != nil || got != id {
					t.Fatalf("%v: reply on channel %d (%v), want %d", q, got, err, id)
				}
				return typ, body
			}
			for i, q := range refused {
				typ, body := ask(uint32(i+1), q)
				name := fmt.Sprintf("(kind %d)", q.Kind)
				if typ != frames.ErrorCh || !strings.Contains(string(body), "no posted proof") ||
					!strings.Contains(string(body), name) {
					t.Errorf("%v %+v: frame 0x%02x %q, want a refusal naming %s", q, q.Params, typ, body, name)
				}
			}
			if after := cache(); after.Hits != before.Hits || after.Misses != before.Misses || after.Entries != before.Entries {
				t.Errorf("refused requests moved the proof cache: %+v, then %+v", before, after)
			}
			if n := relay.proverFrames.Load(); n != 0 {
				t.Errorf("an owner sent %d prover messages for refused requests", n)
			}

			typ, body := ask(uint32(len(refused)+1), conformance.Case{Kind: wire.QuerySelfJoinSize})
			if typ != frames.ProofCh {
				t.Fatalf("SELF-JOIN SIZE after the refusals: frame 0x%02x %q", typ, body)
			}
			pf, err := fs.DecodeProof(body)
			if err != nil {
				t.Fatal(err)
			}
			if pf.Query.Kind != uint8(wire.QuerySelfJoinSize) {
				t.Fatalf("SELF-JOIN SIZE after the refusals: a proof of query kind %d", pf.Query.Kind)
			}
			if tp.name == "split" && relay.proverFrames.Load() == 0 {
				t.Error("the split's SELF-JOIN SIZE proof reached no owner through the relay")
			}
		})
	}
}
