// The mux-transparent proxy: one client-facing listener, one read loop
// per client connection, one lazily-dialed backend connection per
// (client connection, shard) pair.
//
// The router runs the same per-connection frame state machine as the
// server (wire.FlowState) so an illegal frame is refused at the edge
// with the server's exact error, and the same channel bookkeeping
// (wire.ChannelPins) so channel-scoped frames route to the backend
// whose dataset opened them — a connection that re-attaches to a second
// dataset keeps its in-flight conversations on the first dataset's
// shard. Frames are forwarded byte-for-byte in both directions: every
// typed refusal a shard emits (budget frames, "not current"
// proof-version errors, unknown query kinds) reaches the client
// unchanged, which is what lets sip.Client and wire.Client work against
// a router with zero API changes. The client side of each connection is
// the server's own prover side (wire.Mux): every client frame is written
// through it, and it serves the split datasets the router answers
// itself (split.go). Listeners and connections live in the server's
// wire.Lifecycle.
package shard

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/proofcache"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

// Router proxies the wire protocol over a set of engine shards.
// Configure the fields before Serve; they must not change afterwards
// (the routing table itself may, through Rebalance/SetTable).
type Router struct {
	// IdleTimeout bounds client-side reads and writes, mirroring
	// wire.Server.IdleTimeout. Zero means no deadline.
	IdleTimeout time.Duration
	// DialTimeout bounds each backend dial attempt (default 2s). A
	// backend dial retries with exponential backoff until DialRetryBudget
	// is spent, then the open is failed back to the client.
	DialTimeout time.Duration
	// DialRetryBudget bounds the total wall-clock time spent retrying a
	// backend dial (attempts plus backoff sleeps) before the failure
	// surfaces as ErrBackendUnavailable. Zero means the default 2s.
	DialRetryBudget time.Duration
	// TablePath, when set, is where Rebalance persists the flipped route
	// so it survives a router restart. A serving router also watches the
	// file: resolve reloads it (maybeReloadTable) when its mtime changes,
	// so a route flipped by a separate process (`siprouter -rebalance`)
	// takes effect without restarting the router.
	TablePath string

	life wire.Lifecycle // listeners, live connections, handler drain

	mu         sync.Mutex
	table      *Table
	tableMTime time.Time                // mtime of TablePath at the last (re)load
	migrating  map[string]chan struct{} // dataset → closed when its migration settles

	cacheOnce  sync.Once
	proofCache *proofcache.Cache // split-proof cache (lazy; see proofCacheRef)
}

// ErrRouterClosed is returned by Serve after Close.
var ErrRouterClosed = errors.New("shard: router closed")

// ErrBackendUnavailable wraps every backend dial failure after the
// retry budget is spent, so callers (and tests) can detect a dead shard
// with errors.Is rather than by error text.
var ErrBackendUnavailable = errors.New("shard: backend unavailable")

// ErrMigrationInFlight is returned by SetTable while a rebalance is
// mid-handoff: swapping the table then would race the migration's own
// route flip and could silently undo it.
var ErrMigrationInFlight = errors.New("shard: a migration is in flight; retry SetTable after it settles")

const dialBackoffFirst = 50 * time.Millisecond

// proofCacheRef lazily builds the router's split-proof cache: the cache
// that serves assembled Fiat–Shamir proofs for split datasets, with the
// wire server's default budget.
func (r *Router) proofCacheRef() *proofcache.Cache {
	r.cacheOnce.Do(func() { r.proofCache = proofcache.New(wire.DefaultProofCacheBudget) })
	return r.proofCache
}

// NewRouter returns a router serving the given table.
func NewRouter(t *Table) (*Router, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &Router{
		table:     t,
		migrating: make(map[string]chan struct{}),
	}, nil
}

// Table returns the current routing table (a deep copy: shards,
// routes, and split specs are snapshotted).
func (r *Router) Table() Table {
	r.mu.Lock()
	defer r.mu.Unlock()
	return *r.table.clone()
}

// SetTable swaps the routing table (e.g. after an external edit). Live
// attachments keep their pinned backends; only new OPENs see the new
// placement. It fails with ErrMigrationInFlight while a rebalance is
// mid-handoff — the migration will flip a route on the table it started
// from, and a concurrent swap would drop that flip.
func (r *Router) SetTable(t *Table) error {
	if err := t.validate(); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.migrating) > 0 {
		return ErrMigrationInFlight
	}
	r.table = t
	return nil
}

// Serve accepts client connections until the listener closes. Each
// connection is proxied on its own goroutine. Serve may run on several
// listeners concurrently; Close stops them all, after which Serve
// returns ErrRouterClosed (see wire.Lifecycle.Serve).
func (r *Router) Serve(ln net.Listener) error {
	return r.life.Serve(ln, ErrRouterClosed, nil, func(conn net.Conn) {
		p := newProxyConn(r, conn)
		err := p.loop()
		p.close()
		if err != nil && !errors.Is(err, io.EOF) {
			// The server's teardown contract: one final typed error frame,
			// then the close.
			_ = p.mux.Write(frames.Error, []byte(err.Error()))
		}
	})
}

// Close stops every listener and live connection and waits the proxy
// goroutines out.
func (r *Router) Close() error { return r.life.Close() }

// migrationGate returns the channel to wait on if the dataset is mid-
// migration, nil otherwise.
func (r *Router) migrationGate(dataset string) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.migrating[dataset]
}

// maybeReloadTable re-reads TablePath when the file's mtime has moved
// past the last load — the hot-reload path that makes a cross-process
// `siprouter -rebalance` visible to a running router. Errors (file
// vanished mid-edit, half-written JSON) leave the serving table
// untouched; the next placement retries.
func (r *Router) maybeReloadTable() {
	if r.TablePath == "" {
		return
	}
	// Stat, load, and install under one critical section: a reload that
	// read the file before a concurrent flip wrote it must not install
	// its (now stale) table after the flip's, or the flipped route would
	// silently revert.
	r.mu.Lock()
	defer r.mu.Unlock()
	fi, err := os.Stat(r.TablePath)
	if err != nil || fi.ModTime().Equal(r.tableMTime) {
		return
	}
	t, err := LoadTable(r.TablePath)
	if err != nil {
		return
	}
	r.table = t
	r.tableMTime = fi.ModTime()
}

// splitPlacement is a resolved split dataset: its slice count and the
// owner shard of each slice, in slice order.
type splitPlacement struct {
	slices int
	owners []ShardInfo
}

// resolve places a dataset against the current table: it reloads a
// changed table file, waits out an in-flight migration of the dataset —
// an OPEN that races a rebalance attaches to the new home, never to the
// released source — then reports either the single owning shard or the
// dataset's split placement.
func (r *Router) resolve(dataset string) (ShardInfo, *splitPlacement, error) {
	r.maybeReloadTable()
	for {
		ch := r.migrationGate(dataset)
		if ch == nil {
			break
		}
		gateTimeout := r.IdleTimeout
		if gateTimeout <= 0 {
			gateTimeout = time.Minute
		}
		select {
		case <-ch:
		case <-time.After(gateTimeout):
			return ShardInfo{}, nil, fmt.Errorf("shard: dataset %q is mid-migration and did not settle within %v", dataset, gateTimeout)
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if sp, ok := r.table.Splits[dataset]; ok {
		pl := &splitPlacement{slices: sp.Slices, owners: make([]ShardInfo, sp.Slices)}
		for k, name := range sp.Owners {
			s, ok := r.table.Shard(name)
			if !ok { // validate() forbids this; belt and braces
				return ShardInfo{}, nil, fmt.Errorf("shard: split dataset %q: slice %d owned by unknown shard %q", dataset, k, name)
			}
			pl.owners[k] = s
		}
		return ShardInfo{}, pl, nil
	}
	s, err := r.table.Place(dataset)
	return s, nil, err
}

// ---------------------------------------------------------------------
// proxyConn: one client connection's proxy state.

// backend is one shard-side connection owned by a proxyConn. Only the
// client read loop writes to it; its pump goroutine is the only reader.
type backend struct {
	shard ShardInfo
	conn  net.Conn
}

type proxyConn struct {
	r      *Router
	client net.Conn
	// mux is the client side of the connection: every client frame is
	// read and written through it, its channel table pins each
	// conversation to a *backend, and it serves split conversations and
	// proofs itself. Split channels have no cap here (limit 0): the
	// owners enforce their own.
	mux *wire.Mux

	flow     wire.FlowState
	backends map[string]*backend // shard name → connection
	cur      *backend            // backend of the current attachment (nil when split)
	pumps    sync.WaitGroup
	closing  chan struct{} // closed when the proxy tears down

	// Split-universe state. A split dataset is served through per-slice
	// wire.Clients (the router speaks the partial-prover protocol to the
	// owners and folds), not through byte-pump backends.
	split        *splitAttach            // current attachment when it is split
	splitClients map[string]*wire.Client // shard name + "\x00" + dataset → slice client
	splitConns   []*wire.Client          // every slice client ever dialed (append-only, closed in close)
}

func newProxyConn(r *Router, conn net.Conn) *proxyConn {
	return &proxyConn{
		r:        r,
		client:   conn,
		mux:      wire.NewMux(conn, r.IdleTimeout, 0),
		backends: make(map[string]*backend),
		closing:  make(chan struct{}),
	}
}

// close tears the proxy down: closing the backends and owner legs
// first fails any pump or split session still waiting on one, so the
// mux drain that follows cannot block on a shard.
func (p *proxyConn) close() {
	close(p.closing)
	for _, b := range p.backends {
		_ = b.conn.Close()
	}
	for _, c := range p.splitConns {
		_ = c.Close()
	}
	p.pumps.Wait()
	p.mux.Shutdown()
}

// writeBackend forwards one frame to a shard. Only the client read loop
// calls it, so backend writes need no lock.
func (p *proxyConn) writeBackend(b *backend, typ byte, payload []byte) error {
	if t := p.r.IdleTimeout; t > 0 {
		if err := b.conn.SetWriteDeadline(time.Now().Add(t)); err != nil {
			return err
		}
	}
	if err := frames.WriteFrame(b.conn, typ, payload); err != nil {
		return fmt.Errorf("shard: forwarding to shard %q: %w", b.shard.Name, err)
	}
	return nil
}

// backendFor returns the connection to a shard, dialing it (with
// backoff) on first use by this client connection.
func (p *proxyConn) backendFor(s ShardInfo) (*backend, error) {
	if b := p.backends[s.Name]; b != nil {
		return b, nil
	}
	conn, err := dialBackoff(s.Addr, p.r.DialTimeout, p.r.DialRetryBudget)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %q (%s) is unreachable: %w", s.Name, s.Addr, err)
	}
	b := &backend{shard: s, conn: conn}
	p.backends[s.Name] = b
	p.pumps.Add(1)
	go p.pump(b)
	return b, nil
}

// dialBackoff dials with exponential backoff under a total wall-clock
// budget: a shard mid-restart gets several chances, but a dead shard
// fails the client within the budget rather than after an unbounded
// attempts × timeout product. The per-attempt dial timeout is capped to
// the budget's remainder, so the last attempt cannot overshoot.
func dialBackoff(addr string, dialTimeout, budget time.Duration) (net.Conn, error) {
	if dialTimeout <= 0 {
		dialTimeout = 2 * time.Second
	}
	if budget <= 0 {
		budget = 2 * time.Second
	}
	deadline := time.Now().Add(budget)
	var err error
	delay := dialBackoffFirst
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			remaining := time.Until(deadline)
			if remaining <= 0 {
				break
			}
			if delay > remaining {
				delay = remaining
			}
			time.Sleep(delay)
			delay *= 2
		}
		perAttempt := dialTimeout
		if remaining := time.Until(deadline); remaining <= 0 {
			if attempt > 0 {
				break
			}
			// Always make at least one attempt, bounded by dialTimeout.
		} else if perAttempt > remaining {
			perAttempt = remaining
		}
		var conn net.Conn
		if conn, err = net.DialTimeout("tcp", addr, perAttempt); err == nil {
			return conn, nil
		}
	}
	return nil, fmt.Errorf("%w (%s): %v", ErrBackendUnavailable, addr, err)
}

// pump forwards one backend's frames to the client verbatim, retiring
// channel pins as the backend fails channels. If the backend dies while
// the client is live, the client connection is failed loudly (a typed
// error frame, then close) — its conversations on that shard are gone
// and a silent stall would strand them.
func (p *proxyConn) pump(b *backend) {
	defer p.pumps.Done()
	for {
		typ, payload, err := frames.ReadFrame(b.conn)
		if err != nil {
			select {
			case <-p.closing: // orderly teardown closed the backend under us
			default:
				_ = p.mux.Write(frames.Error, fmt.Appendf(nil,
					"shard: connection to shard %q lost: %v", b.shard.Name, err))
				_ = p.client.Close() // unblocks the client read loop
			}
			return
		}
		if typ == frames.ErrorCh || typ == frames.BudgetCh {
			// The shard failed this channel; drop the pin so the one
			// client frame lock-step allows is absorbed, exactly as the
			// server's own bookkeeping would.
			if id, _, err := frames.DecodeChannel(payload); err == nil {
				p.mux.Pins().Retire(id, b, true)
			}
		}
		if err := p.mux.Write(typ, payload); err != nil {
			_ = p.client.Close()
			return
		}
	}
}

// loop is the client read loop: legality-check, place, forward.
func (p *proxyConn) loop() error {
	for {
		typ, payload, err := p.mux.Read()
		if err != nil {
			return err
		}
		if err := p.flow.Advance(typ); err != nil {
			return err
		}
		switch typ {
		case frames.Open:
			name, u, err := frames.DecodeOpen(payload)
			if err != nil {
				return err
			}
			s, pl, err := p.r.resolve(name)
			if err != nil {
				return err
			}
			if pl != nil {
				if err := p.openSplit(name, u, pl); err != nil {
					return err
				}
				continue
			}
			b, err := p.backendFor(s)
			if err != nil {
				return err
			}
			p.cur, p.split = b, nil
			if err := p.writeBackend(b, typ, payload); err != nil {
				return err
			}
		case frames.OpenSlice:
			// Slices are the router's private leg to the owners; a client
			// attaches to the whole split dataset through a plain OPEN.
			return fmt.Errorf("%w: open-slice is a shard-facing frame; open the dataset by name and let the router split it", wire.ErrProtocol)
		case frames.Updates:
			if p.split != nil {
				if err := p.splitIngest(payload); err != nil {
					return err
				}
				continue
			}
			if err := p.writeBackend(p.cur, typ, payload); err != nil {
				return err
			}
		case frames.QueryCh, frames.PartialQueryCh, frames.ChallengeCh, frames.FinishCh, frames.ProofReqCh:
			if err := p.channel(typ, payload); err != nil {
				return err
			}
		case frames.Handoff, frames.Adopt:
			// Admin frames place by the named dataset: a handoff reaches
			// the shard that currently serves it, an adopt the shard its
			// (already-flipped) route names. The rebalancer drives shards
			// directly (see rebalance.go); this path exists for operator
			// tooling pointed at the router.
			name, err := frames.DecodeName(payload)
			if err != nil {
				return err
			}
			s, pl, err := p.r.resolve(name)
			if err != nil {
				return err
			}
			if pl != nil {
				return fmt.Errorf("shard: dataset %q is split; move one slice at a time with RebalanceSlice", name)
			}
			b, err := p.backendFor(s)
			if err != nil {
				return err
			}
			if err := p.writeBackend(b, typ, payload); err != nil {
				return err
			}
		case frames.StatsReq:
			if err := p.statsReply(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected frame 0x%02x", wire.ErrProtocol, typ)
		}
	}
}

// channel routes one channel-scoped client frame. Conversation frames
// go wherever the channel's pin says: to the mux for a split
// conversation, or to the backend whose dataset opened it — a later
// OPEN moves cur, not in-flight conversations. New queries and proof
// requests on a split attachment are answered here (split.go); on a
// whole one they go to cur's shard, which enforces its own concurrency
// cap (limit 0 here) and whose refusals pass through and unpin (see
// pump). A PartialQueryCh on a whole attachment is router chaining: a
// downstream aggregator treats this router as one slice owner.
func (p *proxyConn) channel(typ byte, payload []byte) error {
	id, body, err := wire.ChannelID(payload)
	if err != nil {
		return err
	}
	switch {
	case typ == frames.ChallengeCh || typ == frames.FinishCh:
		owner, err := p.mux.Route(typ, id, body)
		if err != nil {
			return err
		}
		b, forwarded := owner.(*backend)
		if !forwarded {
			return nil // the mux took it, or a tombstone absorbed it
		}
		if err := p.writeBackend(b, typ, payload); err != nil {
			return err
		}
		if typ == frames.FinishCh {
			// The finish frame ends the channel on the shard with no
			// reply; fully retire the pin.
			p.mux.Pins().Retire(id, b, false)
		}
		return nil
	case p.split != nil:
		return p.splitChannel(typ, id, body)
	case typ == frames.ProofReqCh:
		// One-shot request/response: the reply (or per-channel error)
		// comes straight back on the same backend, no pin needed.
		return p.writeBackend(p.cur, typ, payload)
	default:
		if _, err := p.mux.Pins().Open(id, p.cur, 0); err != nil {
			return err
		}
		return p.writeBackend(p.cur, typ, payload)
	}
}
