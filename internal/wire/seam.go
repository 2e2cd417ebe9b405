// The protocol seam: what a protocol intermediary shares with the
// server. The shard router (internal/shard) embeds FlowState to enforce
// per-connection frame legality exactly as the server would, decodes
// channel ids with ChannelID, routes channel-scoped frames through
// ChannelPins, serves the conversations and posted proofs it answers
// itself through the server's own Mux (mux.go), and accepts and closes
// connections through the server's Lifecycle. Byte layouts are not
// re-exported here: the server, the client, and the router all call
// internal/wire/frames directly (the import allow-list is enforced by a
// test in frames).
package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/wire/frames"
)

// ---------------------------------------------------------------------
// FlowState: the per-connection frame state machine.

// FlowState tracks one connection's position in the protocol and
// decides which frame types are legal next. It has two states: start
// (nothing attached) and attached (an open or open-slice named a
// dataset); the only transition is start → attached. It is the state
// machine the server's read loop runs; the shard router embeds its own
// so a frame the server would refuse is refused at the proxy, with the
// same error, before it ever reaches a shard. The zero value is the
// start state.
//
// Advance both checks legality and applies the state transition the
// frame implies. Callers treat an error as connection-fatal (exactly as
// the server does), so a transition optimistically applied before the
// frame's work completes can never be observed in a bad state.
type FlowState struct {
	attached bool
}

// Advance validates typ against the current state and moves the state
// machine. The error strings are the server's canonical refusals. Every
// server→client frame, every unknown type, and every retired type
// (0x01, 0x03–0x07: the anonymous-upload and serial-conversation
// generations) takes the default arm.
func (f *FlowState) Advance(typ byte) error {
	switch typ {
	case frames.Open, frames.OpenSlice:
		f.attached = true
	case frames.Updates, frames.CheckUpdates:
		if !f.attached {
			return fmt.Errorf("%w: updates before a dataset is open", ErrProtocol)
		}
	case frames.QueryCh, frames.ChallengeCh, frames.FinishCh, frames.ProofReqCh, frames.PartialQueryCh:
		if !f.attached {
			return fmt.Errorf("%w: conversation frame before a dataset is open", ErrProtocol)
		}
	case frames.Handoff, frames.Adopt, frames.StatsReq:
		// Admin frames are legal in any state and change none: a handoff
		// names an engine dataset, not the connection's attachment.
	default:
		return fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
	return nil
}

// ChannelID splits a channel-scoped frame's payload into its channel id
// and the rest, refusing id 0 (the control plane's) in the server's
// words.
func ChannelID(payload []byte) (uint32, []byte, error) {
	id, rest, err := frames.DecodeChannel(payload)
	if err != nil {
		return 0, nil, err
	}
	if id == 0 {
		return 0, nil, fmt.Errorf("%w: channel id 0 is reserved for the control plane", ErrProtocol)
	}
	return id, rest, nil
}

// ---------------------------------------------------------------------
// Lifecycle: the accept/close registry.

// Lifecycle is the listener and connection registry of a service that
// serves one handler goroutine per accepted connection: Serve may run
// on several listeners at once, and Close stops every one of them,
// closes every live connection, and waits the handlers out. The zero
// value is ready to use; Server and shard.Router each hold one.
type Lifecycle struct {
	mu       sync.Mutex
	lns      map[net.Listener]struct{} // every listener currently being served
	conns    map[net.Conn]struct{}     // connections with a live handler
	closed   bool
	handlers sync.WaitGroup // one per handler goroutine; drained by Close
}

// Serve accepts connections on ln until it closes, running handle on
// its own goroutine per connection and closing the connection after.
// init, when non-nil, runs before the first Accept; its error is
// returned with ln unregistered. As in net/http, Serve after Close
// returns closedErr without touching ln (a later Close must not close a
// listener never served), and a Serve that Close stops returns
// closedErr, not the listener's "use of closed network connection".
func (l *Lifecycle) Serve(ln net.Listener, closedErr error, init func() error, handle func(net.Conn)) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return closedErr
	}
	if l.lns == nil {
		l.lns, l.conns = make(map[net.Listener]struct{}), make(map[net.Conn]struct{})
	}
	l.lns[ln] = struct{}{}
	l.mu.Unlock()
	if init != nil {
		if err := init(); err != nil {
			l.mu.Lock()
			delete(l.lns, ln)
			l.mu.Unlock()
			return err
		}
	}
	for {
		conn, err := ln.Accept()
		l.mu.Lock()
		switch {
		case l.closed:
			// Close already snapshotted the registry; don't start a
			// handler it would not drain.
			l.mu.Unlock()
			if conn != nil {
				conn.Close()
			}
			return closedErr
		case err != nil:
			// The listener died on its own; it is no longer served, so a
			// later Close must not touch it.
			delete(l.lns, ln)
			l.mu.Unlock()
			return err
		}
		l.conns[conn] = struct{}{}
		l.handlers.Add(1)
		l.mu.Unlock()
		go func() {
			defer l.handlers.Done()
			defer func() {
				conn.Close()
				l.mu.Lock()
				delete(l.conns, conn)
				l.mu.Unlock()
			}()
			handle(conn)
		}()
	}
}

// Close stops every served listener, closes every live connection (a
// handler blocked on a socket read fails its next read), and waits for
// the handlers to return. It is idempotent — each served listener is
// closed at most once — and returns the listeners' close errors.
func (l *Lifecycle) Close() error {
	l.mu.Lock()
	l.closed = true
	lns, conns := l.lns, l.conns
	l.lns, l.conns = nil, nil
	l.mu.Unlock()
	var err error
	for ln := range lns {
		err = errors.Join(err, ln.Close())
	}
	for c := range conns {
		_ = c.Close()
	}
	l.handlers.Wait()
	return err
}

// ---------------------------------------------------------------------
// ChannelPins: the channel-id routing table.

// ChannelPins maps live channel ids to an owner (the server pins a
// conversation goroutine's inbox, the router pins a backend
// connection), with the mux protocol's tombstone discipline for failed
// channels: lock-step means at most one client frame can cross a
// channel-error on the wire, so a frame for a recently failed id is
// silently dropped (consuming the tombstone) while a frame for a
// never-opened id is a protocol violation. The tombstone set is bounded
// to the newest maxDeadChannels failures. All methods are safe for
// concurrent use.
type ChannelPins struct {
	mu        sync.Mutex
	open      map[uint32]*pinEntry
	dead      map[uint32]struct{}
	deadOrder []uint32
	active    int
}

type pinEntry struct {
	owner any
	// released records that this channel's concurrency slot was already
	// returned: the read loop releases the slot the moment the finish
	// frame arrives — not when the owner gets around to retiring the
	// channel — so a strictly serial client at the concurrency cap is
	// never spuriously refused.
	released bool
}

// maxDeadChannels bounds the tombstone set per connection. A stray
// frame, if one is ever in flight, arrives immediately behind the error
// that orphaned it; tombstones deeper than this are stale.
const maxDeadChannels = 128

// NewChannelPins returns an empty routing table.
func NewChannelPins() *ChannelPins {
	return &ChannelPins{open: make(map[uint32]*pinEntry), dead: make(map[uint32]struct{})}
}

// removeTombstoneLocked consumes a tombstone from both the set and the
// FIFO, so a pruned slot can never evict a fresh tombstone for a reused
// id. Caller holds p.mu.
func (p *ChannelPins) removeTombstoneLocked(id uint32) {
	if _, ok := p.dead[id]; !ok {
		return
	}
	delete(p.dead, id)
	for i, d := range p.deadOrder {
		if d == id {
			p.deadOrder = append(p.deadOrder[:i], p.deadOrder[i+1:]...)
			break
		}
	}
}

// Open registers id with its owner, consuming any tombstone for the
// reused id. A duplicate id is a protocol violation; an open past a
// positive limit reports ok == false with no error (the caller refuses
// the channel with a budget frame — a resource refusal, not a
// violation).
func (p *ChannelPins) Open(id uint32, owner any, limit int) (ok bool, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.open[id]; dup {
		return false, fmt.Errorf("%w: channel %d is already open", ErrProtocol, id)
	}
	p.removeTombstoneLocked(id) // the id is being reused; the stray never came
	if limit > 0 && p.active >= limit {
		return false, nil
	}
	p.open[id] = &pinEntry{owner: owner}
	p.active++
	return true, nil
}

// Route resolves the owner for an inbound frame on id. finish marks the
// frame as the channel's finish, releasing its concurrency slot
// immediately. A nil owner with ok == true means a tombstone absorbed
// the frame (drop it silently); ok == false means the id was never
// opened (a protocol violation the caller reports).
func (p *ChannelPins) Route(id uint32, finish bool) (owner any, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.open[id]; e != nil {
		if finish && !e.released {
			e.released = true
			p.active--
		}
		return e.owner, true
	}
	if _, dead := p.dead[id]; dead {
		p.removeTombstoneLocked(id)
		return nil, true
	}
	return nil, false
}

// Retire unregisters id if it is still pinned to owner (a reused id
// pinned to a newer owner is left alone), returning its concurrency
// slot if the finish frame did not already. When failed is set, the id
// is tombstoned so the one in-flight frame lock-step permits is dropped
// rather than treated as a violation.
func (p *ChannelPins) Retire(id uint32, owner any, failed bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.open[id]; e != nil && e.owner == owner {
		delete(p.open, id)
		if !e.released {
			e.released = true
			p.active--
		}
	}
	if failed {
		if _, ok := p.dead[id]; !ok {
			p.dead[id] = struct{}{}
			p.deadOrder = append(p.deadOrder, id)
			if len(p.deadOrder) > maxDeadChannels {
				delete(p.dead, p.deadOrder[0])
				p.deadOrder = p.deadOrder[1:]
			}
		}
	}
}
