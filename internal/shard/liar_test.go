package shard

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

// TestMessageLiars is the message-liar half of the conformance matrix's
// soundness column (internal/conformance holds the rest; a relay parses
// frames, which only internal/wire/... and this package may). A relay
// rewrites prover message j at one hop: client↔server and client↔router
// (to the client, a lying router) for every case, router↔slice owner at
// S = 2 for the seam cases, interactively and — at the owner hop, where
// the router records the proof through the relay — in the posted
// SELF-JOIN SIZE proof. The owner hop lies once more in a collapsed
// conversation, about a live pair its opening ships (collapsedLiar).
// A fourth hop lies inside the router at S = 2:
// its split conversation rewrites message j after folding the owners'
// partials (or, in the tail rounds, after proving alone), interactively
// and in the posted proof it records. Every message of every conversation is lied about
// once; each lie must meet core.ErrRejected, and the same connection
// must then serve an honest conversation.
func TestMessageLiars(t *testing.T) {
	t.Run("server", func(t *testing.T) {
		t.Parallel()
		addr, stop := startShard(t, &wire.Server{F: f61})
		t.Cleanup(stop)
		relay := newTamperRelay(t, addr)
		messageLiar(t, &relay.liar, relay.addr(), conformance.Cases, false)
	})
	t.Run("router", func(t *testing.T) {
		t.Parallel()
		routerAddr, _, _ := twoShards(t, 0, map[string]string{"liar": "s2"})
		relay := newTamperRelay(t, routerAddr)
		messageLiar(t, &relay.liar, relay.addr(), conformance.Cases, false)
	})
	t.Run("owner", func(t *testing.T) {
		t.Parallel()
		relay, routerAddr := ownerHop(t)
		messageLiar(t, &relay.liar, routerAddr, conformance.Filter(conformance.Case.Seam), true)
	})
	t.Run("collapsed", func(t *testing.T) {
		t.Parallel()
		relay, routerAddr := ownerHop(t)
		relay.lie = pairLie
		collapsedLiar(t, relay, routerAddr)
	})
	t.Run("fold", func(t *testing.T) {
		t.Parallel()
		var shards []ShardInfo
		for _, name := range []string{"s1", "s2"} {
			addr, stop := startShard(t, &wire.Server{F: f61})
			t.Cleanup(stop)
			shards = append(shards, ShardInfo{Name: name, Addr: addr})
		}
		r, err := NewRouter(&Table{Shards: shards,
			Splits: map[string]*SplitSpec{"liar": {Slices: 2, Owners: []string{"s1", "s2"}}}})
		if err != nil {
			t.Fatal(err)
		}
		l := &liar{armed: -1}
		r.foldLie = func(j int, m core.Msg) core.Msg {
			if l.take(j) {
				return tamper(m)
			}
			return m
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = r.Serve(ln) }()
		t.Cleanup(func() { _ = r.Close() })
		messageLiar(t, l, ln.Addr().String(), conformance.Filter(conformance.Case.Seam), true)
	})
}

// ownerHop starts two shards and a router splitting the dataset "liar"
// across them, S = 2, with a relay in front of slice 1's owner; it
// returns the relay and the router's address.
func ownerHop(t *testing.T) (*tamperRelay, string) {
	var shards []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		addr, stop := startShard(t, &wire.Server{F: f61})
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr})
	}
	relay := newTamperRelay(t, shards[1].Addr)
	shards[1].Addr = relay.addr()
	routerAddr, _, stop := startRouter(t, &Table{Shards: shards,
		Splits: map[string]*SplitSpec{"liar": {Slices: 2, Owners: []string{"s1", "s2"}}}})
	t.Cleanup(stop)
	return relay, routerAddr
}

// messageLiar arms l at message j = 0, 1, … of each case's conversation
// through addr until an arming finds no message j to rewrite; that
// conversation, told no lie, must be accepted.
func messageLiar(t *testing.T, l *liar, addr string, cases []conformance.Case, withPosted bool) {
	const u = 200 // pads to 256
	c := dialT(t, addr)
	c.FieldModulus = f61.Modulus()
	if _, err := c.OpenDataset("liar", u); err != nil {
		t.Fatal(err)
	}
	var seen []stream.Update // what the client's verifiers observe
	ingest := func(seed uint64) {
		ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(seed))
		if _, err := c.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		seen = append(seen, ups...)
	}
	ingest(36_000)
	const seed = 36_100
	var ref []core.Msg // the reference for the case at hand over seen
	interactive := func(cs conformance.Case) error {
		rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, cs, field.NewSplitMix64(seed), seen)}
		if _, err := c.Query(cs.Kind, cs.Params, rec); err != nil {
			return err
		}
		return conformance.Same(ref, rec.Msgs)
	}
	// Every posted proof is of a new version, so the router records it
	// anew through the relay instead of serving one from its cache.
	posted := func(cs conformance.Case) error {
		ingest(uint64(36_200 + len(seen)))
		_, _, err := c.QueryCached(cs.Kind, cs.Params, 0, func(b fs.Binding) (core.VerifierSession, error) {
			return conformance.Verifier(t, u, cs, b.RNG(), seen), nil
		})
		return err
	}
	type delivery struct {
		name string
		run  func(conformance.Case) error
	}
	lies := 0
	defer func() { t.Logf("%d lies told", lies) }()
	for _, cs := range cases {
		ref = conformance.Reference(t, u, cs, seed, seen)
		deliveries := []delivery{{"interactive", interactive}}
		if withPosted && engine.CheckPosted(cs.Kind) == nil {
			deliveries = append(deliveries, delivery{"posted", posted})
		}
		for _, d := range deliveries {
			for j := 0; ; j++ {
				if j > 4096 {
					t.Fatalf("%v %s: the relay is still rewriting at message %d", cs, d.name, j)
				}
				l.arm(j)
				err := d.run(cs)
				if !l.disarm() {
					if err != nil {
						t.Errorf("%v %s: with no lie left to tell: %v", cs, d.name, err)
					}
					break
				}
				lies++
				if !errors.Is(err, core.ErrRejected) {
					t.Errorf("%v %s: a lie at prover message %d: %v, want ErrRejected", cs, d.name, j, err)
				}
				if err := d.run(cs); err != nil {
					t.Errorf("%v %s: the honest conversation after a lie at message %d: %v", cs, d.name, j, err)
				}
			}
		}
	}
}

// collapsedLiar is the owner hop of a collapsed split conversation: the
// dataset is sparse, so each owner's opening ships its live pairs and
// the router proves every later round from their union. The relay in
// front of slice 1's owner (lie = pairLie) rewrites one shipped pair
// value in the opening — the message stays well formed, so the router
// takes it — and the client's verifier must reject, interactively and
// in the posted SELF-JOIN SIZE proof the router records; the honest
// conversation that follows must be accepted. A conversation collapsed
// when no challenge reached the owner; one that did not (a slice held
// dense) reads no shipped pair, so the lie changes nothing there.
func collapsedLiar(t *testing.T, relay *tamperRelay, addr string) {
	const u = 200 // pads to 256: slices of 128 entries, sparse at up to 16 live pairs
	c := dialT(t, addr)
	c.FieldModulus = f61.Modulus()
	if _, err := c.OpenDataset("liar", u); err != nil {
		t.Fatal(err)
	}
	seen := []stream.Update{{Index: 3, Delta: 5}, {Index: 70, Delta: -2}, {Index: 131, Delta: 4}, {Index: 199, Delta: 1}}
	if _, err := c.Ingest(seen); err != nil {
		t.Fatal(err)
	}
	const seed = 36_300
	collapses := 0
	for _, cs := range conformance.Filter(conformance.Case.Seam) {
		ref := conformance.Reference(t, u, cs, seed, seen)
		interactive := func() error {
			rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, cs, field.NewSplitMix64(seed), seen)}
			if _, err := c.Query(cs.Kind, cs.Params, rec); err != nil {
				return err
			}
			return conformance.Same(ref, rec.Msgs)
		}
		runs := []struct {
			name string
			run  func() error
		}{{"interactive", interactive}}
		if engine.CheckPosted(cs.Kind) == nil {
			// Each posted proof is of a new version, so the router records
			// it anew through the relay rather than serving it cached.
			runs = append(runs, struct {
				name string
				run  func() error
			}{"posted", func() error {
				up := stream.Update{Index: uint64(len(seen)), Delta: 1}
				if _, err := c.Ingest([]stream.Update{up}); err != nil {
					return err
				}
				seen = append(seen, up)
				_, _, err := c.QueryCached(cs.Kind, cs.Params, 0, func(b fs.Binding) (core.VerifierSession, error) {
					return conformance.Verifier(t, u, cs, b.RNG(), seen), nil
				})
				return err
			}})
		}
		for _, r := range runs {
			before := relay.challengeFrames.Load()
			relay.arm(0)
			err := r.run()
			told := relay.disarm()
			switch collapsed := relay.challengeFrames.Load() == before; {
			case collapsed && (!told || !errors.Is(err, core.ErrRejected)):
				t.Errorf("%v %s: collapsed with a false shipped pair value (told %v): %v, want ErrRejected", cs, r.name, told, err)
			case collapsed:
				collapses++
			case err != nil: // a slice was dense: the head rounds ran, and no shipped pair was read
				t.Errorf("%v %s: uncollapsed, with a shipped pair value the router does not read: %v", cs, r.name, err)
			}
			if err := r.run(); err != nil {
				t.Errorf("%v %s: the honest conversation after the lie: %v", cs, r.name, err)
			}
		}
	}
	t.Logf("%d conversations collapsed", collapses)
	// SELF-JOIN SIZE's two conversations at least collapse; a RANGE-SUM
	// indicator may keep its slice dense.
	if collapses < 2 {
		t.Fatalf("%d conversations collapsed, want at least SELF-JOIN SIZE's two", collapses)
	}
}

// pairLie adds 1 to the last element of an opening that ships live
// pairs — a value of the last table's last shipped pair — and leaves any
// other message as it is, so the lie is told only if the owner shipped.
func pairLie(m core.Msg) core.Msg {
	if len(m.Ints) > 1 {
		m.Elems[len(m.Elems)-1] = f61.Add(m.Elems[len(m.Elems)-1], 1)
	}
	return m
}

// liar holds which prover message of a conversation to rewrite next:
// armed with j, it rewrites message j (counted per conversation, 0 is the
// opening) and disarms.
type liar struct {
	mu    sync.Mutex
	armed int // -1: tell no lie
}

func (l *liar) arm(j int) {
	l.mu.Lock()
	l.armed = j
	l.mu.Unlock()
}

// disarm reports whether the armed lie was told, and disarms.
func (l *liar) disarm() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	told := l.armed < 0
	l.armed = -1
	return told
}

// take reports whether a conversation's n-th prover message is the one
// to rewrite, and if so marks the lie told.
func (l *liar) take(n int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n != l.armed {
		return false
	}
	l.armed = -1
	return true
}

// tamperRelay is a TCP relay in front of one hop's prover side. Its liar
// picks the prover message to rewrite (tamper); everything else passes
// byte for byte. proverFrames counts the prover messages it relayed, and
// challengeFrames the challenges it relayed to the prover side.
type tamperRelay struct {
	liar
	ln              net.Listener
	target          string
	wg              sync.WaitGroup
	proverFrames    atomic.Int64
	challengeFrames atomic.Int64
	// lie rewrites the armed prover message; nil means tamper.
	lie func(core.Msg) core.Msg

	mu     sync.Mutex // guards conns and closed
	conns  []net.Conn
	closed bool
}

func newTamperRelay(t *testing.T, target string) *tamperRelay {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := &tamperRelay{liar: liar{armed: -1}, ln: ln, target: target}
	tr.wg.Add(1)
	go tr.accept()
	t.Cleanup(func() {
		ln.Close()
		tr.mu.Lock()
		tr.closed = true
		for _, c := range tr.conns {
			c.Close()
		}
		tr.mu.Unlock()
		tr.wg.Wait()
	})
	return tr
}

func (tr *tamperRelay) addr() string { return tr.ln.Addr().String() }

func (tr *tamperRelay) accept() {
	defer tr.wg.Done()
	for {
		in, err := tr.ln.Accept()
		if err != nil {
			return
		}
		out, err := net.Dial("tcp", tr.target)
		if err != nil {
			in.Close()
			continue
		}
		tr.mu.Lock()
		if tr.closed {
			tr.mu.Unlock()
			in.Close()
			out.Close()
			return
		}
		tr.conns = append(tr.conns, in, out)
		tr.wg.Add(2)
		tr.mu.Unlock()
		go func() {
			defer tr.wg.Done()
			tr.forward(in, out)
			out.Close()
		}()
		go func() {
			defer tr.wg.Done()
			tr.relay(out, in)
			in.Close()
		}()
	}
}

// forward copies the client side's frames to the prover side, counting
// the challenges.
func (tr *tamperRelay) forward(from, to net.Conn) {
	for {
		typ, payload, err := frames.ReadFrame(from)
		if err != nil {
			return
		}
		if typ == frames.ChallengeCh {
			tr.challengeFrames.Add(1)
		}
		if err := frames.WriteFrame(to, typ, payload); err != nil {
			return
		}
	}
}

// relay copies prover-side frames to the other side, rewriting the
// armed message.
func (tr *tamperRelay) relay(from, to net.Conn) {
	sent := make(map[uint32]int) // prover messages so far, per channel
	for {
		typ, payload, err := frames.ReadFrame(from)
		if err != nil {
			return
		}
		if typ == frames.ProverCh {
			tr.proverFrames.Add(1)
			if id, body, err := frames.DecodeChannel(payload); err == nil {
				n := sent[id]
				sent[id]++
				if m, err := frames.DecodeMsg(body); err == nil && tr.take(n) {
					lie := tr.lie
					if lie == nil {
						lie = tamper
					}
					payload = frames.EncodeChannel(id, frames.EncodeMsg(lie(m)))
				}
			}
		}
		if err := frames.WriteFrame(to, typ, payload); err != nil {
			return
		}
	}
}

// tamper rewrites a prover message: it adds 1 to the first element,
// flips the first int when there is no element, and appends an element
// to an empty message, where the other two rewrites would pass it
// unchanged.
func tamper(m core.Msg) core.Msg {
	switch {
	case len(m.Elems) > 0:
		m.Elems[0] = f61.Add(m.Elems[0], 1)
	case len(m.Ints) > 0:
		m.Ints[0] ^= 1
	default:
		m.Elems = []field.Elem{1}
	}
	return m
}
