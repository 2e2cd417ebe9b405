package wire

import (
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
			v, err := engine.NewStreamVerifier(f61, u, QuerySelfJoinSize, QueryParams{}, field.NewSplitMix64(uint64(500+c)))
			if err != nil {
				errs <- err
				return
			}
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
			got, err := engine.AnswerOf(QuerySelfJoinSize, v)
			if err != nil {
				errs <- err
				return
			}
			if got.Elem != wantF2 {
				errs <- fmt.Errorf("client %d: F2 = %d, want %d", c, got.Elem, wantF2)
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
	v, err := engine.NewStreamVerifier(f61, u, QuerySelfJoinSize, QueryParams{}, field.NewSplitMix64(96))
	if err != nil {
		t.Fatal(err)
	}
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
