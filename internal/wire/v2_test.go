package wire

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

// startServerOpts runs a Server with the given extras on a loopback
// listener.
func startServerOpts(t *testing.T, srv *Server) (string, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), func() { _ = srv.Close() }
}

// TestSharedDatasetAcrossConnections: two connections ingest halves of a
// stream into one named dataset; a third attaches and verifies queries
// over the union — no connection ever re-uploads what another sent.
func TestSharedDatasetAcrossConnections(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	const u = 1 << 10
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(70))
	half := len(ups) / 2

	for i, part := range [][]stream.Update{ups[:half], ups[half:]} {
		c, err := Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		count, err := c.OpenDataset("metrics", u)
		if err != nil {
			t.Fatalf("uploader %d: open: %v", i, err)
		}
		if int(count) != i*half {
			t.Fatalf("uploader %d saw %d prior updates, want %d", i, count, i*half)
		}
		after, err := c.Ingest(part)
		if err != nil {
			t.Fatalf("uploader %d: ingest: %v", i, err)
		}
		if int(after) != (i+1)*half {
			t.Fatalf("uploader %d: count after ingest = %d", i, after)
		}
		c.Close()
	}

	// The querier observed the full stream locally (the single verifier
	// pass) and attaches to the same dataset by name.
	q, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	count, err := q.OpenDataset("metrics", u)
	if err != nil {
		t.Fatal(err)
	}
	if int(count) != len(ups) {
		t.Fatalf("querier saw %d updates, want %d", count, len(ups))
	}

	f2proto, err := core.NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	f2v := f2proto.NewVerifier(field.NewSplitMix64(71))
	rqproto, err := core.NewRangeQuery(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	rqv := rqproto.NewVerifier(field.NewSplitMix64(72))
	for _, up := range ups {
		if err := f2v.Observe(up); err != nil {
			t.Fatal(err)
		}
		if err := rqv.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Query(QuerySelfJoinSize, QueryParams{}, f2v); err != nil {
		t.Fatalf("F2 over shared dataset rejected: %v", err)
	}
	got, err := f2v.Result()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := stream.Apply(ups, u)
	var want field.Elem
	for _, v := range a {
		e := f61.FromInt64(v)
		want = f61.Add(want, f61.Mul(e, e))
	}
	if got != want {
		t.Fatalf("F2 = %d, want %d", got, want)
	}

	// Ingestion continues between queries on the same connection.
	extra := stream.UnitIncrements(u, 500, field.NewSplitMix64(73))
	if _, err := q.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	for _, up := range extra {
		if err := rqv.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := rqv.SetQuery(0, 99); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Query(QueryRangeQuery, QueryParams{A: 0, B: 99}, rqv); err != nil {
		t.Fatalf("range query after further ingestion rejected: %v", err)
	}
}

// TestConcurrentSharedDataset runs ≥4 clients ingesting disjoint shards
// of one stream into a single named dataset concurrently, then querying
// it concurrently — the multi-tenant serving path under -race.
func TestConcurrentSharedDataset(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, Workers: -1})
	defer stop()

	const (
		clients = 4
		u       = 1 << 11
	)
	ups := stream.UniformDeltas(u, 50, field.NewSplitMix64(80))
	shard := len(ups) / clients

	// Phase 1: concurrent ingestion of disjoint shards.
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			if _, err := cl.OpenDataset("shared", u); err != nil {
				errs <- fmt.Errorf("client %d: open: %w", c, err)
				return
			}
			lo, hi := c*shard, (c+1)*shard
			if c == clients-1 {
				hi = len(ups)
			}
			if _, err := cl.Ingest(ups[lo:hi]); err != nil {
				errs <- fmt.Errorf("client %d: ingest: %w", c, err)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Phase 2: concurrent queries against the complete dataset.
	a, _ := stream.Apply(ups, u)
	var wantF2 field.Elem
	for _, v := range a {
		e := f61.FromInt64(v)
		wantF2 = f61.Add(wantF2, f61.Mul(e, e))
	}
	errs = make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer cl.Close()
			count, err := cl.OpenDataset("shared", u)
			if err != nil {
				errs <- err
				return
			}
			if int(count) != len(ups) {
				errs <- fmt.Errorf("client %d: dataset has %d updates, want %d", c, count, len(ups))
				return
			}
			proto, err := core.NewSelfJoinSize(f61, u)
			if err != nil {
				errs <- err
				return
			}
			v := proto.NewVerifier(field.NewSplitMix64(uint64(500 + c)))
			for _, up := range ups {
				if err := v.Observe(up); err != nil {
					errs <- err
					return
				}
			}
			if _, err := cl.Query(QuerySelfJoinSize, QueryParams{}, v); err != nil {
				errs <- fmt.Errorf("client %d: rejected: %w", c, err)
				return
			}
			got, err := v.Result()
			if err != nil {
				errs <- err
				return
			}
			if got != wantF2 {
				errs <- fmt.Errorf("client %d: F2 = %d, want %d", c, got, wantF2)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestOpenUniverseMismatch: attaching with the wrong universe is refused.
func TestOpenUniverseMismatch(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	a, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if _, err := a.OpenDataset("d", 1<<8); err != nil {
		t.Fatal(err)
	}
	b, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if _, err := b.OpenDataset("d", 1<<9); err == nil || !strings.Contains(err.Error(), "universe") {
		t.Fatalf("universe mismatch not refused: %v", err)
	}
	if _, err := a.OpenDataset("", 1<<8); err == nil {
		t.Error("empty dataset name accepted client-side")
	}
}

// TestServerEngineSharedAcrossListeners: one engine serves the same
// datasets through two servers.
func TestServerEngineSharedAcrossListeners(t *testing.T) {
	eng := engine.New(f61, 0)
	addr1, stop1 := startServerOpts(t, &Server{F: f61, Engine: eng})
	defer stop1()
	addr2, stop2 := startServerOpts(t, &Server{F: f61, Engine: eng})
	defer stop2()

	const u = 1 << 8
	ups := stream.UnitIncrements(u, 200, field.NewSplitMix64(90))
	c1, err := Dial(addr1)
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := c1.OpenDataset("x", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	c2, err := Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	count, err := c2.OpenDataset("x", u)
	if err != nil {
		t.Fatal(err)
	}
	if int(count) != len(ups) {
		t.Fatalf("second listener sees %d updates, want %d", count, len(ups))
	}
}

// rawConn sends hand-built frames to probe the server's state machine.
type rawConn struct {
	t    *testing.T
	conn net.Conn
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn}
}

func (r *rawConn) send(typ byte, payload []byte) {
	r.t.Helper()
	if err := frames.WriteFrame(r.conn, typ, payload); err != nil {
		r.t.Fatal(err)
	}
}

// expect reads frames until one of type want arrives (acks are
// skipped), confirms the connection then closes, and returns the
// frame's payload.
func (r *rawConn) expect(want byte, context string) []byte {
	r.t.Helper()
	_ = r.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var payload []byte
	for {
		typ, p, err := frames.ReadFrame(r.conn)
		if err != nil {
			r.t.Fatalf("%s: connection died before frame 0x%02x: %v", context, want, err)
		}
		if typ == want {
			payload = p
			break
		}
		if typ != frames.OK {
			r.t.Fatalf("%s: unexpected frame 0x%02x", context, typ)
		}
	}
	if _, _, err := frames.ReadFrame(r.conn); err == nil {
		r.t.Fatalf("%s: server kept the connection after frame 0x%02x", context, want)
	}
	return payload
}

// expectError expects a connection-fatal error frame.
func (r *rawConn) expectError(context string) []byte { return r.expect(frames.Error, context) }

// TestFrameStateMachine: out-of-order frames are rejected with an error
// frame instead of being silently accepted. (The full type × state
// legality table is TestFlowStateTable; this is the same machine seen
// through a socket.)
func TestFrameStateMachine(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	t.Run("updates before open", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(frames.Updates, frames.EncodeUpdates([]stream.Update{{Index: 1, Delta: 1}}))
		rc.expectError("updates before open")
	})
	t.Run("query before open", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(frames.QueryCh, frames.EncodeChannel(1, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})))
		rc.expectError("conversation frame before open")
	})
	t.Run("oversized dataset name", func(t *testing.T) {
		rc := dialRaw(t, addr)
		rc.send(frames.Open, frames.EncodeOpen(strings.Repeat("x", frames.MaxDatasetName+1), 64))
		rc.expectError("oversized name")
	})
}

// retiredFrames are the type bytes of the two deleted protocol
// generations, with the payload each last carried: the anonymous upload
// (hello, end-stream) and the serial conversation (query, prover,
// challenge, finish).
var retiredFrames = []struct {
	typ     byte
	payload []byte
}{
	{0x01, frames.EncodeCount(64)},
	{0x03, nil},
	{0x04, frames.EncodeQuery(QuerySelfJoinSize, QueryParams{})},
	{0x05, frames.EncodeMsg(core.Msg{})},
	{0x06, frames.EncodeMsg(core.Msg{})},
	{0x07, nil},
}

// TestRetiredFramesRefused: a peer still speaking a retired generation
// gets a typed refusal — an error frame carrying ErrProtocol's text —
// and a closed connection, well inside IdleTimeout (not a hang until
// it), whether or not the connection has attached.
func TestRetiredFramesRefused(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, IdleTimeout: 30 * time.Second})
	defer stop()

	for _, fr := range retiredFrames {
		for _, attached := range []bool{false, true} {
			t.Run(fmt.Sprintf("0x%02x/attached=%v", fr.typ, attached), func(t *testing.T) {
				rc := dialRaw(t, addr)
				if attached {
					rc.send(frames.Open, frames.EncodeOpen("retired", 64))
				}
				rc.send(fr.typ, fr.payload)
				if msg := rc.expectError("retired frame"); !strings.Contains(string(msg), ErrProtocol.Error()) {
					t.Fatalf("refusal %q does not carry %q", msg, ErrProtocol)
				}
			})
		}
	}
}

// TestIdleTimeout: a client that connects and stalls is disconnected
// once IdleTimeout elapses, freeing the handler goroutine.
func TestIdleTimeout(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, IdleTimeout: 100 * time.Millisecond})
	defer stop()

	cases := []struct {
		name  string
		prime func(*rawConn)
	}{
		{"silent from the start", func(*rawConn) {}},
		{"stalls mid-stream", func(rc *rawConn) {
			rc.send(frames.Open, frames.EncodeOpen("stalled", 64))
			rc.send(frames.Updates, frames.EncodeUpdates([]stream.Update{{Index: 3, Delta: 2}}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rc := dialRaw(t, addr)
			tc.prime(rc)
			start := time.Now()
			_ = rc.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			// The server abandons the connection; the client observes EOF
			// (or a timeout error frame followed by close).
			for {
				if _, _, err := frames.ReadFrame(rc.conn); err != nil {
					break
				}
			}
			if waited := time.Since(start); waited > 5*time.Second {
				t.Fatalf("server held a stalled connection for %v", waited)
			}
		})
	}
}

// TestIdleTimeoutDoesNotKillActiveClients: a client that keeps talking
// within the deadline completes its whole session.
func TestIdleTimeoutDoesNotKillActiveClients(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, IdleTimeout: 2 * time.Second})
	defer stop()

	const u = 1 << 8
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(95))
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	proto, err := core.NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(field.NewSplitMix64(96))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	openFresh(t, client, u, ups)
	if _, err := client.Query(QuerySelfJoinSize, QueryParams{}, v); err != nil {
		t.Fatalf("active client killed by idle timeout: %v", err)
	}
}

// TestDishonestServerRejectedSharedDataset: the Corrupt hook follows the
// dataset, not the connection that uploaded it — a second connection
// attaching to a shared name is lied to as well, on the hash-tree
// prover path (built from counts) as much as the sum-check one, and its
// verifier rejects.
func TestDishonestServerRejectedSharedDataset(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, Corrupt: dropOneItem})
	defer stop()

	const u = 256
	ups := stream.UnitIncrements(u, 400, field.NewSplitMix64(97))
	uploader, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer uploader.Close()
	name := openFresh(t, uploader, u, ups)

	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if n, err := client.OpenDataset(name, u); err != nil || int(n) != len(ups) {
		t.Fatalf("attach to the shared dataset: %d updates, err %v", n, err)
	}
	proto, err := core.NewRangeQuery(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	v := proto.NewVerifier(field.NewSplitMix64(98))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := v.SetQuery(0, u-1); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Query(QueryRangeQuery, QueryParams{A: 0, B: u - 1}, v); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("range query over a doctored shared dataset not rejected: %v", err)
	}
}

// TestUniverseCap: the server refuses open universes past its cap
// before allocating anything.
func TestUniverseCap(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61, MaxUniverse: 1 << 12})
	defer stop()

	rc := dialRaw(t, addr)
	rc.send(frames.Open, frames.EncodeOpen("big", 1<<13))
	rc.expectError("open past the universe cap")

	// At the cap is fine.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDataset("ok", 1<<12); err != nil {
		t.Fatalf("open at the cap refused: %v", err)
	}
}
