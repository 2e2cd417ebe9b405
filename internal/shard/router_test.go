package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

var f61 = field.Mersenne()

// startShard runs one wire.Server ("engine process") on a loopback
// listener and returns its address.
func startShard(t *testing.T, srv *wire.Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }
}

// startRouter runs a Router over the table on a loopback listener.
func startRouter(t *testing.T, tbl *Table) (string, *Router, func()) {
	t.Helper()
	r, err := NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()
	return ln.Addr().String(), r, func() { _ = r.Close() }
}

// twoShards spins up two shard servers (each with its own engine and
// data dir) and a router fronting them, with the named datasets pinned
// so the test controls exactly which shard serves what.
func twoShards(t *testing.T, workers int, routes map[string]string) (routerAddr string, r *Router, tbl *Table) {
	t.Helper()
	var shards []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		dir := t.TempDir()
		srv := &wire.Server{F: f61, Workers: workers, DataDir: dir}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr, DataDir: dir})
	}
	tbl = &Table{Shards: shards, Routes: routes}
	addr, r, stop := startRouter(t, tbl)
	t.Cleanup(stop)
	return addr, r, tbl
}

// recordingVerifier keeps a copy of every prover message it consumes,
// so conversations through the router can be compared bit for bit
// against single-engine baselines.
type recordingVerifier struct {
	inner core.VerifierSession
	msgs  []core.Msg
}

func (r *recordingVerifier) record(m core.Msg) {
	r.msgs = append(r.msgs, core.Msg{
		Ints:  append([]uint64(nil), m.Ints...),
		Elems: append([]field.Elem(nil), m.Elems...),
	})
}

func (r *recordingVerifier) Begin(m core.Msg) (core.Msg, bool, error) {
	r.record(m)
	return r.inner.Begin(m)
}

func (r *recordingVerifier) Step(m core.Msg) (core.Msg, bool, error) {
	r.record(m)
	return r.inner.Step(m)
}

func sameTranscript(a, b []core.Msg) error {
	if len(a) != len(b) {
		return fmt.Errorf("round counts differ: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r].Ints) != len(b[r].Ints) || len(a[r].Elems) != len(b[r].Elems) {
			return fmt.Errorf("round %d shapes differ", r)
		}
		for i := range a[r].Ints {
			if a[r].Ints[i] != b[r].Ints[i] {
				return fmt.Errorf("round %d int %d differs", r, i)
			}
		}
		for i := range a[r].Elems {
			if a[r].Elems[i] != b[r].Elems[i] {
				return fmt.Errorf("round %d elem %d differs", r, i)
			}
		}
	}
	return nil
}

// newVerifier builds the verifier session for one query kind with its
// query pre-set (the shard-side mirror of the wire test helper).
func newVerifier(t *testing.T, u uint64, kind wire.QueryKind, p wire.QueryParams, seed uint64) (core.VerifierSession, func(stream.Update) error) {
	t.Helper()
	v, err := engine.NewStreamVerifier(f61, u, kind, p, field.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	return v, v.Observe
}

// batteryKinds is the full query battery: the paper's 12 streaming
// kinds plus a GKR circuit query.
func batteryKinds() []struct {
	kind   wire.QueryKind
	params wire.QueryParams
} {
	return []struct {
		kind   wire.QueryKind
		params wire.QueryParams
	}{
		{wire.QuerySelfJoinSize, wire.QueryParams{}},
		{wire.QueryFk, wire.QueryParams{K: 3}},
		{wire.QueryRangeSum, wire.QueryParams{A: 3, B: 200}},
		{wire.QueryRangeQuery, wire.QueryParams{A: 3, B: 200}},
		{wire.QueryIndex, wire.QueryParams{A: 17}},
		{wire.QueryDictionary, wire.QueryParams{A: 17}},
		{wire.QueryPredecessor, wire.QueryParams{A: 99}},
		{wire.QuerySuccessor, wire.QueryParams{A: 99}},
		{wire.QueryKLargest, wire.QueryParams{K: 4}},
		{wire.QueryHeavyHitters, wire.QueryParams{Phi: 0.02}},
		{wire.QueryF0, wire.QueryParams{}},
		{wire.QueryFmax, wire.QueryParams{}},
		{wire.QueryCircuit, wire.QueryParams{Circuit: circuit.FamilyF2}},
	}
}

// runBattery runs the full battery over one attached client — serially
// when overlap is false, all conversations in flight at once when true —
// and returns each kind's recorded transcript.
func runBattery(t *testing.T, c *wire.Client, u uint64, ups []stream.Update, seedBase uint64, overlap bool) [][]core.Msg {
	t.Helper()
	kinds := batteryKinds()
	out := make([][]core.Msg, len(kinds))
	if !overlap {
		for k, q := range kinds {
			v, obs := newVerifier(t, u, q.kind, q.params, seedBase+uint64(k))
			for _, up := range ups {
				if err := obs(up); err != nil {
					t.Fatal(err)
				}
			}
			rec := &recordingVerifier{inner: v}
			if _, err := c.Query(q.kind, q.params, rec); err != nil {
				t.Fatalf("kind %d: %v", q.kind, err)
			}
			out[k] = rec.msgs
		}
		return out
	}
	recs := make([]*recordingVerifier, len(kinds))
	handles := make([]*wire.QueryHandle, len(kinds))
	for k, q := range kinds {
		v, obs := newVerifier(t, u, q.kind, q.params, seedBase+uint64(k))
		for _, up := range ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
		recs[k] = &recordingVerifier{inner: v}
		h, err := c.QueryAsync(q.kind, q.params, recs[k])
		if err != nil {
			t.Fatalf("QueryAsync kind %d: %v", q.kind, err)
		}
		handles[k] = h
	}
	for k, h := range handles {
		if _, err := h.Wait(); err != nil {
			t.Fatalf("kind %d rejected: %v", kinds[k].kind, err)
		}
	}
	for k := range kinds {
		out[k] = recs[k].msgs
	}
	return out
}

func dialT(t *testing.T, addr string) *wire.Client {
	t.Helper()
	c, err := wire.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	c.Timeout = 30 * time.Second
	t.Cleanup(func() { c.Close() })
	return c
}

// TestRouterBatteryMatchesSingleEngine is the tentpole contract: a
// wire.Client pointed at a router fronting two shards runs the full
// battery (every query kind, serial and overlapped, interleaved with
// ingestion, plus cached-proof fetches) on datasets living on different
// shards, with transcripts and proof bytes bit-identical to the same
// battery against one single-engine server.
func TestRouterBatteryMatchesSingleEngine(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(5100))
	more := stream.UnitIncrements(u, 40, field.NewSplitMix64(5101))

	for _, workers := range []int{0, -1} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			// Baseline: one engine, no router.
			baseAddr, stopBase := startShard(t, &wire.Server{F: f61, Workers: workers})
			defer stopBase()
			// Router: the same datasets, pinned to different shards.
			routerAddr, _, _ := twoShards(t, workers, map[string]string{"alpha": "s1", "beta": "s2"})

			type run struct {
				serial, overlapped [][]core.Msg
				proof              []byte
				count              uint64
			}
			drive := func(addr, dataset string, seedBase uint64) run {
				c := dialT(t, addr)
				if _, err := c.OpenDataset(dataset, u); err != nil {
					t.Fatal(err)
				}
				if _, err := c.Ingest(ups); err != nil {
					t.Fatal(err)
				}
				serial := runBattery(t, c, u, ups, seedBase, false)
				// Interleave more ingestion, then overlap the whole battery.
				count, err := c.Ingest(more)
				if err != nil {
					t.Fatal(err)
				}
				all := append(append([]stream.Update(nil), ups...), more...)
				overlapped := runBattery(t, c, u, all, seedBase+100, true)
				pf, err := c.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0)
				if err != nil {
					t.Fatal(err)
				}
				return run{serial: serial, overlapped: overlapped, proof: pf.Encode(), count: count}
			}

			for di, dataset := range []string{"alpha", "beta"} {
				seedBase := uint64(50_000 + 1000*di)
				base := drive(baseAddr, dataset, seedBase)
				routed := drive(routerAddr, dataset, seedBase)
				if base.count != routed.count {
					t.Fatalf("dataset %q: update counts diverge: %d vs %d", dataset, base.count, routed.count)
				}
				for k := range base.serial {
					if err := sameTranscript(base.serial[k], routed.serial[k]); err != nil {
						t.Errorf("dataset %q kind %d serial: %v", dataset, batteryKinds()[k].kind, err)
					}
					if err := sameTranscript(base.overlapped[k], routed.overlapped[k]); err != nil {
						t.Errorf("dataset %q kind %d overlapped: %v", dataset, batteryKinds()[k].kind, err)
					}
				}
				if !bytes.Equal(base.proof, routed.proof) {
					t.Errorf("dataset %q: cached proof bytes differ between router and single engine", dataset)
				}
			}
		})
	}
}

// TestRouterPlacementSplitsDatasets: unpinned datasets spread across
// shards by consistent hashing, and each shard holds only its own.
func TestRouterPlacementSplitsDatasets(t *testing.T) {
	const u = 64
	routerAddr, r, tbl := twoShards(t, 0, nil)
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("ds-%02d", i)
		c := dialT(t, routerAddr)
		if _, err := c.OpenDataset(names[i], u); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Ingest(stream.UnitIncrements(u, 3, field.NewSplitMix64(uint64(i)))); err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	perShard := map[string]int{}
	routed := r.Table()
	for _, name := range names {
		s, err := routed.Place(name)
		if err != nil {
			t.Fatal(err)
		}
		perShard[s.Name]++
		// The placed shard must actually hold the dataset: opening it
		// there directly reports the ingested count.
		c := dialT(t, shardAddr(tbl, s.Name))
		count, err := c.OpenDataset(name, u)
		if err != nil || count != 3 {
			t.Fatalf("dataset %q on shard %q: count = %d, err = %v", name, s.Name, count, err)
		}
		c.Close()
	}
	if perShard["s1"] == 0 || perShard["s2"] == 0 {
		t.Fatalf("hashing put every dataset on one shard: %v", perShard)
	}
}

func shardAddr(t *Table, name string) string {
	s, _ := t.Shard(name)
	return s.Addr
}

// TestRouterErrorsPassThrough: the typed refusals the wire protocol
// promises — ErrBudget for an over-cap channel, the "not current"
// proof-version error, an unknown-circuit failure — arrive through the
// router exactly as from a direct connection.
func TestRouterErrorsPassThrough(t *testing.T) {
	const u = 256
	var shards []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		srv := &wire.Server{F: f61, MaxConcurrentQueries: 1}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr})
	}
	routerAddr, _, stop := startRouter(t, &Table{Shards: shards})
	defer stop()

	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("errs", u); err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 10, field.NewSplitMix64(61))
	if _, err := c.Ingest(ups); err != nil {
		t.Fatal(err)
	}

	// Over-cap channel: with the serial conversation protocol lock-step,
	// hold one conversation open by not answering, then open a second.
	v1, obs1 := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 71)
	for _, up := range ups {
		if err := obs1(up); err != nil {
			t.Fatal(err)
		}
	}
	sv := &stallVerifier{inner: v1, gate: make(chan struct{})}
	h1, err := c.QueryAsync(wire.QuerySelfJoinSize, wire.QueryParams{}, sv)
	if err != nil {
		t.Fatal(err)
	}
	v2, obs2 := newVerifier(t, u, wire.QueryFk, wire.QueryParams{K: 3}, 72)
	for _, up := range ups {
		if err := obs2(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(wire.QueryFk, wire.QueryParams{K: 3}, v2); !errors.Is(err, wire.ErrBudget) {
		t.Fatalf("over-cap channel through router: err = %v, want ErrBudget", err)
	}
	close(sv.gate)
	if _, err := h1.Wait(); err != nil {
		t.Fatalf("stalled conversation: %v", err)
	}

	// Stale proof version: the server's "not current" refusal verbatim.
	if _, err := c.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 999); err == nil ||
		!strings.Contains(err.Error(), "is not current") {
		t.Fatalf("stale version through router: err = %v, want 'is not current'", err)
	}

	// Unknown circuit family: an ordinary per-channel error, typed as a
	// server error, connection still usable after.
	vC, _ := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 73)
	if _, err := c.Query(wire.QueryCircuit, wire.QueryParams{Circuit: "no-such-family"}, vC); err == nil ||
		!strings.Contains(err.Error(), "server error") {
		t.Fatalf("unknown circuit through router: err = %v, want server error", err)
	}
	v3, obs3 := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 74)
	for _, up := range ups {
		if err := obs3(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v3); err != nil {
		t.Fatalf("connection dead after per-channel errors: %v", err)
	}
}

// stallVerifier parks its conversation at the opening message until its
// gate closes, pinning the shard's one concurrency slot. Only the
// handle's own goroutine blocks — the client demux keeps running, so
// the refusal of the second channel still arrives.
type stallVerifier struct {
	inner core.VerifierSession
	gate  chan struct{}
}

func (s *stallVerifier) Begin(m core.Msg) (core.Msg, bool, error) {
	<-s.gate
	return s.inner.Begin(m)
}

func (s *stallVerifier) Step(m core.Msg) (core.Msg, bool, error) { return s.inner.Step(m) }

// TestRouterDishonestBackendRejected: the router is no shield for a
// lying shard. A backend whose Corrupt hook flips one count serves a
// named dataset through the router, and the client's own verifier
// rejects it both interactively and when the posted proof — fetched
// through the router, its binding honest — is verified offline.
func TestRouterDishonestBackendRejected(t *testing.T) {
	const u = 256
	liar, stopLiar := startShard(t, &wire.Server{F: f61, Corrupt: func(c []int64) []int64 { c[7]++; return c }})
	t.Cleanup(stopLiar)
	routerAddr, _, stop := startRouter(t, &Table{Shards: []ShardInfo{{Name: "liar", Addr: liar}}})
	t.Cleanup(stop)

	ups := stream.UniformDeltas(u, 25, field.NewSplitMix64(81))
	c := dialT(t, routerAddr)
	c.FieldModulus = f61.Modulus()
	if _, err := c.OpenDataset("doctored", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	v, obs := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 90)
	for _, up := range ups {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("interactive query against a lying shard: %v, want ErrRejected", err)
	}
	_, _, err := c.QueryCached(wire.QuerySelfJoinSize, wire.QueryParams{}, 0, func(b fs.Binding) (core.VerifierSession, error) {
		sv, err := engine.NewStreamVerifier(f61, u, wire.QuerySelfJoinSize, wire.QueryParams{}, b.RNG())
		if err != nil {
			return nil, err
		}
		for _, up := range ups {
			if err := sv.Observe(up); err != nil {
				return nil, err
			}
		}
		return sv, nil
	})
	if !errors.Is(err, core.ErrRejected) {
		t.Fatalf("posted proof from a lying shard verified offline: %v, want ErrRejected", err)
	}
}

// TestRouterRetiredFramesRefused: the router's edge runs the server's
// FlowState, so a hand-written frame of a retired protocol generation —
// the anonymous hello (0x01), the serial query (0x04) — is refused
// there, typed (an error frame carrying ErrProtocol's text) and with a
// closed connection: never forwarded to a shard, never a hang.
func TestRouterRetiredFramesRefused(t *testing.T) {
	// IdleTimeout is left at zero (no deadline): the refusal must come
	// from the frame itself, not from a timer; the test's own 5 s socket
	// deadline is the bound.
	routerAddr, _, _ := twoShards(t, 0, nil)
	for _, attached := range []bool{false, true} {
		for _, fr := range []struct {
			typ     byte
			payload []byte
		}{
			{0x01, frames.EncodeCount(64)},
			{0x04, frames.EncodeQuery(wire.QuerySelfJoinSize, wire.QueryParams{})},
			{0x06, frames.EncodeMsg(core.Msg{})},
			{0x07, nil},
		} {
			t.Run(fmt.Sprintf("0x%02x/attached=%v", fr.typ, attached), func(t *testing.T) {
				conn, err := net.Dial("tcp", routerAddr)
				if err != nil {
					t.Fatal(err)
				}
				defer conn.Close()
				_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
				if attached {
					if err := frames.WriteFrame(conn, frames.Open, frames.EncodeOpen("retired", 64)); err != nil {
						t.Fatal(err)
					}
					if typ, _, err := frames.ReadFrame(conn); err != nil || typ != frames.OK {
						t.Fatalf("open through the router: frame 0x%02x, err %v", typ, err)
					}
				}
				if err := frames.WriteFrame(conn, fr.typ, fr.payload); err != nil {
					t.Fatal(err)
				}
				typ, msg, err := frames.ReadFrame(conn)
				if err != nil || typ != frames.Error {
					t.Fatalf("retired frame: got frame 0x%02x, err %v; want an error frame", typ, err)
				}
				if !strings.Contains(string(msg), wire.ErrProtocol.Error()) {
					t.Fatalf("refusal %q does not carry %q", msg, wire.ErrProtocol)
				}
				if _, _, err := frames.ReadFrame(conn); err == nil {
					t.Fatal("router kept the connection after refusing a retired frame")
				}
			})
		}
	}
}

// TestRouterServeClose: a router serving two listeners stops both on
// Close — each Serve returns ErrRouterClosed and neither address
// accepts again — and Serve on a closed router refuses at once without
// touching the caller's listener.
func TestRouterServeClose(t *testing.T) {
	r, err := NewRouter(&Table{Shards: []ShardInfo{{Name: "s1", Addr: "127.0.0.1:1"}}})
	if err != nil {
		t.Fatal(err)
	}
	var addrs [2]string
	done := make(chan error, len(addrs))
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		go func() { done <- r.Serve(ln) }()
	}
	// Both listeners serve before the Close: a retired frame is refused
	// at the router's edge, no shard needed.
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if err := frames.WriteFrame(conn, 0x01, frames.EncodeCount(64)); err != nil {
			t.Fatal(err)
		}
		if typ, _, err := frames.ReadFrame(conn); err != nil || typ != frames.Error {
			t.Fatalf("probe via %s: frame 0x%02x, err %v; want an error frame", addr, typ, err)
		}
		conn.Close()
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	for range addrs {
		select {
		case err := <-done:
			if !errors.Is(err, ErrRouterClosed) {
				t.Fatalf("Serve returned %v, want ErrRouterClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a Serve loop survived Close")
		}
	}
	for _, addr := range addrs {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Fatalf("listener %s still accepting after Close", addr)
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if err := r.Serve(ln); !errors.Is(err, ErrRouterClosed) {
		t.Fatalf("Serve on a closed router = %v, want ErrRouterClosed", err)
	}
	accepted := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			conn.Close()
		}
		accepted <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("listener unusable after Serve on a closed router: %v", err)
	}
	conn.Close()
	if err := <-accepted; err != nil {
		t.Fatalf("Accept after Serve on a closed router: %v", err)
	}
}

// TestRouterLiveRebalance moves a dataset between shards while a client
// is actively ingesting through the router, then proves no acknowledged
// batch was lost: the update count equals the acked total, a fresh
// verifier over exactly the acked stream accepts, and the route now
// points at the target.
func TestRouterLiveRebalance(t *testing.T) {
	const u = 256
	const batches = 12
	routerAddr, r, tbl := twoShards(t, 0, map[string]string{"hot": "s1"})

	mk := func(i int) []stream.Update {
		return stream.UnitIncrements(u, 16, field.NewSplitMix64(uint64(7000+i)))
	}

	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("hot", u); err != nil {
		t.Fatal(err)
	}

	rebalanced := make(chan error, 1)
	var acked []stream.Update
	var ackedCount uint64
	for i := 0; i < batches; i++ {
		if i == 3 {
			// Kick off the migration mid-ingest.
			go func() { rebalanced <- r.Rebalance("hot", "s2") }()
		}
		batch := mk(i)
		for attempt := 0; ; attempt++ {
			count, err := c.Ingest(batch)
			if err == nil {
				ackedCount = count
				break
			}
			if attempt > 10 {
				t.Fatalf("batch %d: %v after %d attempts", i, err, attempt)
			}
			// The batch was NOT acked: the source released the dataset (or
			// the proxy tore down with it). Reconnect — the router routes
			// the re-open to the dataset's current home — and re-send.
			c.Close()
			c = dialT(t, routerAddr)
			if _, err := c.OpenDataset("hot", u); err != nil {
				t.Fatalf("re-open after rebalance: %v", err)
			}
		}
		acked = append(acked, batch...)
	}
	if err := <-rebalanced; err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	if ackedCount != uint64(len(acked)) {
		t.Fatalf("server count %d != acked updates %d: an acked batch was lost or doubled", ackedCount, len(acked))
	}
	if got := r.Table().Routes["hot"]; got != "s2" {
		t.Fatalf("route after rebalance = %q, want s2", got)
	}
	// The target shard holds the dataset (direct open, bypassing the
	// router) with every acked update.
	cd := dialT(t, shardAddr(tbl, "s2"))
	count, err := cd.OpenDataset("hot", u)
	if err != nil || count != uint64(len(acked)) {
		t.Fatalf("target shard: count = %d, err = %v, want %d", count, err, len(acked))
	}
	// And the data is intact: a verifier that observed exactly the acked
	// stream accepts a query through the router against the new home.
	v, obs := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 7999)
	for _, up := range acked {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	// On a fresh attachment: when every batch was acked before the source
	// released the dataset, c is still pinned to the old home.
	cq := dialT(t, routerAddr)
	if _, err := cq.OpenDataset("hot", u); err != nil {
		t.Fatal(err)
	}
	if _, err := cq.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v); err != nil {
		t.Fatalf("query after rebalance rejected: %v", err)
	}
}

// TestRebalanceTranscriptAndProofEquality: the strong bit-equality
// claim across a router-driven move — transcripts and fetched proof
// bytes before the rebalance equal those after, for every battery kind.
func TestRebalanceTranscriptAndProofEquality(t *testing.T) {
	const u = 500
	routerAddr, r, _ := twoShards(t, 0, map[string]string{"mv": "s1"})
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(9100))

	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("mv", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	before := runBattery(t, c, u, ups, 91_000, false)
	pfBefore, err := c.FetchProof(wire.QueryRangeSum, wire.QueryParams{A: 3, B: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}

	if err := r.Rebalance("mv", "s2"); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	// The old attachment is stale; a fresh connection routes to s2.
	c2 := dialT(t, routerAddr)
	if count, err := c2.OpenDataset("mv", u); err != nil || count != uint64(len(ups)) {
		t.Fatalf("open after move: count = %d, err = %v", count, err)
	}
	after := runBattery(t, c2, u, ups, 91_000, false)
	for k := range before {
		if err := sameTranscript(before[k], after[k]); err != nil {
			t.Errorf("kind %d: transcript differs across rebalance: %v", batteryKinds()[k].kind, err)
		}
	}
	pfAfter, err := c2.FetchProof(wire.QueryRangeSum, wire.QueryParams{A: 3, B: 200}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pfBefore.Encode(), pfAfter.Encode()) {
		t.Errorf("cached proof bytes differ across rebalance")
	}
}

// TestEvacuate: with a shard down, its checkpointed datasets move to a
// survivor and serve there with the data intact.
func TestEvacuate(t *testing.T) {
	const u = 128
	var shards []ShardInfo
	var stops []func()
	for _, name := range []string{"s1", "s2"} {
		dir := t.TempDir()
		srv := &wire.Server{F: f61, DataDir: dir}
		addr, stop := startShard(t, srv)
		stops = append(stops, stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr, DataDir: dir})
	}
	tbl := &Table{Shards: shards, Routes: map[string]string{"doomed": "s1"}}
	routerAddr, r, stopR := startRouter(t, tbl)
	defer stopR()
	defer stops[1]()

	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("doomed", u); err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 25, field.NewSplitMix64(11_000))
	if _, err := c.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	c.Close()
	// Kill shard 1. Its Close persists dirty datasets — the crash-window
	// story for a real loss is the checkpointer interval.
	stops[0]()

	moved, err := r.Evacuate("s1", "s2")
	if err != nil {
		t.Fatalf("evacuate: %v", err)
	}
	if len(moved) != 1 || moved[0] != "doomed" {
		t.Fatalf("evacuated %v, want [doomed]", moved)
	}
	c2 := dialT(t, routerAddr)
	count, err := c2.OpenDataset("doomed", u)
	if err != nil || count != uint64(len(ups)) {
		t.Fatalf("after evacuation: count = %d, err = %v, want %d", count, err, len(ups))
	}
	v, obs := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 11_999)
	for _, up := range ups {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c2.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v); err != nil {
		t.Fatalf("query after evacuation rejected: %v", err)
	}
}

// TestTableRoundTrip: save → load preserves shards and routes, and
// placement is stable across processes (FNV, not map iteration).
func TestTableRoundTrip(t *testing.T) {
	tbl := &Table{
		Shards: []ShardInfo{{Name: "a", Addr: "x:1", DataDir: "/d/a"}, {Name: "b", Addr: "x:2", DataDir: "/d/b"}},
		Routes: map[string]string{"pinned": "b"},
	}
	path := t.TempDir() + "/table.json"
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Shards) != 2 || got.Routes["pinned"] != "b" {
		t.Fatalf("round trip mangled the table: %+v", got)
	}
	for _, name := range []string{"pinned", "q1", "q2", "q3"} {
		a, err1 := tbl.Place(name)
		b, err2 := got.Place(name)
		if err1 != nil || err2 != nil || a.Name != b.Name {
			t.Fatalf("placement of %q unstable across save/load: %q vs %q", name, a.Name, b.Name)
		}
	}
	if s, _ := tbl.Place("pinned"); s.Name != "b" {
		t.Fatalf("explicit route ignored: placed on %q", s.Name)
	}
}
