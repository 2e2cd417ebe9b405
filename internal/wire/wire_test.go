package wire

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

var f61 = field.Mersenne()

// dropOneItem is the canonical cheating cloud: it removes a single item
// from the maintained counts (the state a server that "lost" the last
// update would hold).
func dropOneItem(counts []int64) []int64 {
	for i := len(counts) - 1; i >= 0; i-- {
		if counts[i] > 0 {
			counts[i]--
			return counts
		}
		if counts[i] < 0 {
			counts[i]++
			return counts
		}
	}
	return counts
}

// startServer runs a Server on a loopback listener and returns its
// address and a shutdown func.
func startServer(t *testing.T, corrupt func([]int64) []int64) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &Server{F: f61, Corrupt: corrupt}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }
}

var freshSeq atomic.Uint64

// openFresh is the "upload, then query" preamble: it attaches c to a
// dataset no other test (or earlier call) has touched, ingests ups into
// it, and returns the name.
func openFresh(t testing.TB, c *Client, u uint64, ups []stream.Update) string {
	t.Helper()
	name := fmt.Sprintf("%s#%d", t.Name(), freshSeq.Add(1))
	if n, err := c.OpenDataset(name, u); err != nil || n != 0 {
		t.Fatalf("open of fresh dataset %q: %d updates, err %v", name, n, err)
	}
	if len(ups) > 0 {
		if _, err := c.Ingest(ups); err != nil {
			t.Fatalf("ingest into %q: %v", name, err)
		}
	}
	return name
}

func TestMsgRoundTrip(t *testing.T) {
	cases := []core.Msg{
		{},
		{Ints: []uint64{1, 2, 3}},
		{Elems: []field.Elem{7, 8}},
		{Ints: []uint64{9}, Elems: []field.Elem{10, 11, 12}},
	}
	for _, m := range cases {
		got, err := frames.DecodeMsg(frames.EncodeMsg(m))
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Ints) != len(m.Ints) || len(got.Elems) != len(m.Elems) {
			t.Fatalf("roundtrip shape mismatch: %+v vs %+v", got, m)
		}
		for i := range m.Ints {
			if got.Ints[i] != m.Ints[i] {
				t.Fatalf("ints differ at %d", i)
			}
		}
		for i := range m.Elems {
			if got.Elems[i] != m.Elems[i] {
				t.Fatalf("elems differ at %d", i)
			}
		}
	}
	if _, err := frames.DecodeMsg([]byte{1, 2, 3}); err == nil {
		t.Error("short message accepted")
	}
	if _, err := frames.DecodeMsg(append(frames.EncodeMsg(core.Msg{Ints: []uint64{1}}), 0)); err == nil {
		t.Error("oversized message accepted")
	}
}

func TestQueryRoundTrip(t *testing.T) {
	kind, params, err := frames.DecodeQuery(frames.EncodeQuery(QueryHeavyHitters, QueryParams{A: 5, B: 9, K: -2, Phi: 0.125}))
	if err != nil {
		t.Fatal(err)
	}
	if kind != QueryHeavyHitters || params.A != 5 || params.B != 9 || params.K != -2 || params.Phi != 0.125 {
		t.Fatalf("roundtrip = %v %+v", kind, params)
	}
	if _, _, err := frames.DecodeQuery([]byte{1}); err == nil {
		t.Error("short query accepted")
	}
}

// TestEndToEndQueries uploads a stream once and runs several verified
// queries over the same connection — the paper's cloud scenario.
func TestEndToEndQueries(t *testing.T) {
	addr, stop := startServer(t, nil)
	defer stop()

	const u = 1 << 10
	rng := field.NewSplitMix64(900)
	ups := stream.UniformDeltas(u, 100, rng)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// Local verifiers are created before the upload (they must see the
	// stream) — one per query we plan to ask.
	f2proto, err := core.NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	f2v := f2proto.NewVerifier(field.NewSplitMix64(901))
	rsproto, err := core.NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rsv := rsproto.NewVerifier(field.NewSplitMix64(902))
	predproto, err := core.NewPredecessor(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	predv := predproto.NewVerifier(field.NewSplitMix64(903))

	for _, up := range ups {
		if err := f2v.Observe(up); err != nil {
			t.Fatal(err)
		}
		if err := rsv.Observe(up); err != nil {
			t.Fatal(err)
		}
		if err := predv.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	openFresh(t, client, u, ups)

	// F2 over the wire.
	if _, err := client.Query(QuerySelfJoinSize, QueryParams{}, f2v); err != nil {
		t.Fatalf("remote F2 rejected: %v", err)
	}
	gotF2, err := f2v.Result()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := stream.Apply(ups, u)
	var wantF2 field.Elem
	for _, v := range a {
		e := f61.FromInt64(v)
		wantF2 = f61.Add(wantF2, f61.Mul(e, e))
	}
	if gotF2 != wantF2 {
		t.Fatalf("remote F2 = %d, want %d", gotF2, wantF2)
	}

	// RANGE-SUM over the wire.
	if err := rsv.SetQuery(100, 300); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(QueryRangeSum, QueryParams{A: 100, B: 300}, rsv); err != nil {
		t.Fatalf("remote range-sum rejected: %v", err)
	}
	gotRS, err := rsv.SignedResult()
	if err != nil {
		t.Fatal(err)
	}
	var wantRS int64
	for i := 100; i <= 300; i++ {
		wantRS += a[i]
	}
	if gotRS != wantRS {
		t.Fatalf("remote range-sum = %d, want %d", gotRS, wantRS)
	}

	// PREDECESSOR over the wire.
	if err := predv.SetQuery(500); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(QueryPredecessor, QueryParams{A: 500}, predv); err != nil {
		t.Fatalf("remote predecessor rejected: %v", err)
	}
	pred, found, err := predv.Result()
	if err != nil {
		t.Fatal(err)
	}
	wantPred := int64(-1)
	for i := 500; i >= 0; i-- {
		if a[i] != 0 {
			wantPred = int64(i)
			break
		}
	}
	if !found || int64(pred) != wantPred {
		t.Fatalf("remote predecessor = (%d,%v), want %d", pred, found, wantPred)
	}
}

// TestDishonestServerRejected: a cloud that silently loses an item from
// its maintained counts is caught by the client's verifier over the
// wire, on an ordinary named dataset — interactively, and when it posts
// a Fiat–Shamir proof recorded over the doctored counts (the proof's
// binding is honest, so the offline verifier is what rejects it).
func TestDishonestServerRejected(t *testing.T) {
	addr, stop := startServer(t, dropOneItem)
	defer stop()

	const u = 256
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(904))
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.FieldModulus = f61.Modulus()
	proto, err := core.NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(field.NewSplitMix64(905))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	openFresh(t, client, u, ups)
	if _, err := client.Query(QuerySelfJoinSize, QueryParams{}, v); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("dishonest cloud not rejected interactively: %v", err)
	}
	_, _, err = client.QueryCached(QuerySelfJoinSize, QueryParams{}, 0, func(b fs.Binding) (core.VerifierSession, error) {
		return streamedVerifier(t, b, QuerySelfJoinSize, QueryParams{}, ups), nil
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("dishonest cloud's posted proof not rejected offline: %v", err)
	}
}
