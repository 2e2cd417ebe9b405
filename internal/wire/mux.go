// Multiplexed query conversations: the wire layer's answer to the
// paper's many-cheap-conversations deployment. One connection holds any
// number of concurrent query conversations, each on its own uint32
// channel id:
//
//   - the client opens a channel with frames.QueryCh [ch][kind+params] and
//     drives it with frames.ChallengeCh/frames.FinishCh frames;
//   - the server runs each channel's conversation in its own goroutine
//     against its own immutable snapshot (taken, in arrival order, when
//     the query frame is read), answering with frames.ProverCh frames;
//   - channel failures travel as frames.ErrorCh/frames.BudgetCh and kill
//     only that conversation — the connection, its other channels, and
//     interleaved ingestion continue.
//
// Back-pressure rule: each channel's inbound queue holds a few frames
// (the conversations are lock-step, so an honest peer never has more
// than one in flight); a client that floods one channel stalls its own
// connection's read loop, never the server or other connections.
// Channel opens past Server.MaxConcurrentQueries are refused with a
// per-channel budget frame, the same treatment as engine admission.
//
// Channel bookkeeping (live table, concurrency slots, tombstones for
// failed channels) lives in ChannelPins (seam.go), shared with the
// shard router's proxy so both ends of a proxied connection enforce the
// same discipline.
package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/wire/frames"
)

// muxFrame is one channel-scoped frame with the id already stripped.
type muxFrame struct {
	typ     byte
	payload []byte
}

// ---------------------------------------------------------------------
// Server side

// connMux is the per-connection conversation multiplexer: it serializes
// frame writes (the read loop's acks and every conversation goroutine
// share one socket) and routes inbound channel frames to the goroutine
// that owns the channel.
type connMux struct {
	s    *Server
	conn net.Conn
	wmu  sync.Mutex

	pins *ChannelPins // channel id → *muxChan
	wg   sync.WaitGroup
	done chan struct{} // closed when the connection's read loop exits
}

// muxChan is one live conversation channel: its inbound frame queue and
// a latch the read loop can select against so a conversation that dies
// mid-frame never wedges the connection.
type muxChan struct {
	q    chan muxFrame
	done chan struct{}
}

func newConnMux(s *Server, conn net.Conn) *connMux {
	return &connMux{
		s:    s,
		conn: conn,
		pins: NewChannelPins(),
		done: make(chan struct{}),
	}
}

// write sends one frame, serialized against every other writer on this
// connection and carrying the server's idle deadline.
func (m *connMux) write(typ byte, payload []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	return m.s.write(m.conn, typ, payload)
}

// shutdown unblocks and drains every conversation goroutine. Called as
// the connection handler unwinds, before any final error frame or the
// socket close, so no goroutine can interleave a write with either.
func (m *connMux) shutdown() {
	close(m.done)
	m.wg.Wait()
}

// dispatch handles one channel-scoped frame from the read loop. Frame
// legality was already checked by the handler's FlowState.
func (m *connMux) dispatch(typ byte, payload []byte, ds *engine.Dataset) error {
	id, rest, err := frames.DecodeChannel(payload)
	if err != nil {
		return err
	}
	if id == 0 {
		return fmt.Errorf("%w: channel id 0 is reserved for the control plane", ErrProtocol)
	}
	if typ == frames.QueryCh || typ == frames.PartialQueryCh {
		return m.open(id, rest, ds, typ == frames.PartialQueryCh)
	}
	if typ == frames.ProofReqCh {
		// Proof fetches are one-shot request/response: no channel state is
		// registered, the reply (or a per-channel error) is the whole
		// exchange. See proof.go.
		return m.proofFetch(id, rest, ds)
	}
	// The finish frame releases the channel's concurrency slot the moment
	// it arrives — not when the conversation goroutine consumes it — so a
	// strictly serial client at the cap is never spuriously refused.
	owner, ok := m.pins.Route(id, typ == frames.FinishCh)
	if !ok {
		return fmt.Errorf("%w: frame 0x%02x for unknown channel %d", ErrProtocol, typ, id)
	}
	if owner == nil {
		// A channel the server failed may see exactly one more frame from
		// the client (lock-step: the challenge that crossed our error on
		// the wire). The tombstone absorbed it; anything further is a
		// protocol violation.
		return nil
	}
	mc := owner.(*muxChan)
	select {
	case mc.q <- muxFrame{typ: typ, payload: rest}:
	case <-mc.done:
		// The conversation ended while this frame was in flight; drop it.
	}
	return nil
}

// open starts a new conversation channel: admission, a fresh snapshot
// (taken here, in frame-arrival order, so a query never observes
// updates the client sent after it), and the conversation goroutine.
// With partial set the session is the slice owner's partial prover
// (Snapshot.NewPartialProver) instead of the whole-transcript prover —
// the split-universe aggregator's side of the conversation; the drive
// loop is byte-for-byte the same protocol.
func (m *connMux) open(id uint32, body []byte, ds *engine.Dataset, partial bool) error {
	kind, params, err := frames.DecodeQuery(body)
	if err != nil {
		return err
	}
	limit := m.s.MaxConcurrentQueries
	if limit == 0 {
		limit = DefaultMaxConcurrentQueries
	}
	mc := &muxChan{q: make(chan muxFrame, 4), done: make(chan struct{})}
	ok, err := m.pins.Open(id, mc, limit)
	if err != nil {
		return err
	}
	if !ok {
		// Same treatment as engine admission: a resource refusal on this
		// channel only, not a protocol violation — the connection and its
		// other conversations continue. The tombstone absorbs the one
		// frame a client may already have in flight on the refused id (a
		// router aborting its other owners' legs sends a finish).
		m.pins.Retire(id, nil, true)
		return m.write(frames.BudgetCh, frames.EncodeChannel(id,
			fmt.Appendf(nil, "%v: too many concurrent queries (limit %d)", ErrBudget, limit)))
	}

	// The snapshot is taken synchronously so the conversation's view is
	// fixed before the read loop touches the next frame — a query never
	// observes updates its client sent after it. For a resident dataset
	// this is O(1); for an evicted one it is the rehydrate, which stalls
	// this connection's read loop (a deliberate trade: the ordering
	// guarantee over cold-start latency — other connections are
	// unaffected, and the dataset a connection queries is hot by its own
	// use). The expensive prover construction happens in the
	// conversation goroutine either way.
	snap, err := ds.SnapshotErr()
	if err != nil {
		m.finish(id, mc, err)
		if errors.Is(err, engine.ErrBudget) {
			return nil // channel-level refusal already sent by finish
		}
		return err
	}
	mkSession := func() (core.ProverSession, error) {
		if partial {
			return snap.NewPartialProver(kind, params)
		}
		from, err := m.s.proverSnapshot(ds, snap)
		if err != nil {
			return nil, err
		}
		return from.NewProver(kind, params)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		m.finish(id, mc, m.serve(id, mc, mkSession))
	}()
	return nil
}

// finish retires a channel: unregister, tombstone on failure, and the
// typed per-channel error frame.
func (m *connMux) finish(id uint32, mc *muxChan, err error) {
	close(mc.done)
	m.pins.Retire(id, mc, err != nil)
	if err != nil {
		typ := byte(frames.ErrorCh)
		if errors.Is(err, engine.ErrBudget) {
			typ = frames.BudgetCh
		}
		_ = m.write(typ, frames.EncodeChannel(id, []byte(err.Error())))
	}
}

// serve runs one channel's conversation: build the prover session (the
// expensive part, deferred off the read loop), then answer challenges
// until the client finishes, the session errors, or the connection goes
// away.
func (m *connMux) serve(id uint32, mc *muxChan, mkSession func() (core.ProverSession, error)) error {
	session, err := mkSession()
	if err != nil {
		return err
	}
	opening, err := session.Open()
	if err != nil {
		return err
	}
	if err := m.write(frames.ProverCh, frames.EncodeChannel(id, frames.EncodeMsg(opening))); err != nil {
		return err
	}
	for {
		var fr muxFrame
		select {
		case fr = <-mc.q:
		case <-m.done:
			return nil // connection closing; the handler reports its own error
		}
		switch fr.typ {
		case frames.FinishCh:
			return nil
		case frames.ChallengeCh:
			ch, err := frames.DecodeMsg(fr.payload)
			if err != nil {
				return err
			}
			resp, err := session.Step(ch)
			if err != nil {
				return err
			}
			if err := m.write(frames.ProverCh, frames.EncodeChannel(id, frames.EncodeMsg(resp))); err != nil {
				return err
			}
		default:
			return fmt.Errorf("%w: unexpected frame 0x%02x mid-conversation", ErrProtocol, fr.typ)
		}
	}
}

// ---------------------------------------------------------------------
// Client side

// QueryHandle is one in-flight multiplexed query conversation, returned
// by Client.QueryAsync. The conversation is driven by its own goroutine
// (the registered verifier session must not be touched until Wait
// returns).
type QueryHandle struct {
	c  *Client
	id uint32
	v  core.VerifierSession
	in chan muxFrame

	done  chan struct{}
	stats core.Stats
	err   error
}

// QueryAsync starts a query conversation on its own channel and returns
// immediately; any number may be in flight on one connection, and
// ingestion calls may interleave with them. The verifier session is
// owned by the conversation goroutine until Wait returns.
func (c *Client) QueryAsync(kind QueryKind, params QueryParams, v core.VerifierSession) (*QueryHandle, error) {
	if kind == QueryCircuit && len(params.Circuit) > frames.MaxCircuitName {
		return nil, fmt.Errorf("wire: circuit name of %d bytes exceeds %d", len(params.Circuit), frames.MaxCircuitName)
	}
	if _, _, err := c.attachment("QueryAsync"); err != nil {
		return nil, err
	}
	h, err := c.newHandle(v)
	if err != nil {
		return nil, err
	}
	if err := c.write(frames.QueryCh, frames.EncodeChannel(h.id, frames.EncodeQuery(kind, params))); err != nil {
		c.unregister(h.id)
		return nil, err
	}
	go h.run()
	return h, nil
}

// Wait blocks until the conversation completes and returns its cost
// accounting. A nil error means the verifier accepted; results are read
// from the concrete verifier session afterwards.
func (h *QueryHandle) Wait() (core.Stats, error) {
	<-h.done
	return h.stats, h.err
}

// newHandle allocates a channel id and registers a handle on it, so the
// demux reader routes that channel's frames to it. Channel ids are
// client-allocated, nonzero, and never reused while live (the counter
// would have to lap a still-open conversation).
func (c *Client) newHandle(v core.VerifierSession) (*QueryHandle, error) {
	c.mu.Lock()
	if c.readErr != nil {
		c.mu.Unlock()
		return nil, c.termErr()
	}
	for {
		c.nextCh++
		if c.nextCh == 0 {
			c.nextCh = 1
		}
		if _, live := c.handles[c.nextCh]; !live {
			break
		}
	}
	h := &QueryHandle{
		c:    c,
		id:   c.nextCh,
		v:    v,
		in:   make(chan muxFrame, 4),
		done: make(chan struct{}),
	}
	c.handles[h.id] = h
	c.mu.Unlock()
	return h, nil
}

func (c *Client) unregister(id uint32) {
	c.mu.Lock()
	delete(c.handles, id)
	c.mu.Unlock()
}

// deliver routes one inbound frame to the conversation goroutine. The
// queue is sized for the lock-step protocol, so overflow can only come
// from a misbehaving server; it reports false and the reader treats it
// as a connection-fatal protocol violation (silently dropping the frame
// would leave the conversation waiting forever on a Timeout-less
// client).
func (h *QueryHandle) deliver(fr muxFrame) bool {
	select {
	case h.in <- fr:
		return true
	default:
		return false
	}
}

func (h *QueryHandle) run() {
	defer close(h.done)
	defer h.c.unregister(h.id)
	h.err = h.drive()
}

// drive runs the verifier side of one channel's conversation.
func (h *QueryHandle) drive() error {
	msg, srvDead, err := h.msg()
	if err != nil {
		return err
	}
	st := &h.stats
	st.Rounds++
	st.WordsToVerifier += msg.Words()
	challenge, done, err := h.v.Begin(msg)
	for !done {
		if err != nil {
			break
		}
		st.WordsToProver += challenge.Words()
		if err = h.c.write(frames.ChallengeCh, frames.EncodeChannel(h.id, frames.EncodeMsg(challenge))); err != nil {
			return err
		}
		msg, srvDead, err = h.msg()
		if err != nil {
			return err
		}
		st.Rounds++
		st.WordsToVerifier += msg.Words()
		challenge, done, err = h.v.Step(msg)
	}
	// Close the channel server-side — unless the server already failed
	// it (srvDead), in which case there is nothing left to finish.
	if !srvDead {
		if ferr := h.c.write(frames.FinishCh, frames.EncodeChannel(h.id, nil)); ferr != nil && err == nil {
			err = ferr
		}
	}
	return err
}

// frame waits for the next raw frame on this channel, honoring the
// client timeout — shared by the conversation path (msg) and the
// one-shot proof fetch (see proof.go).
func (h *QueryHandle) frame() (muxFrame, error) {
	var timeout <-chan time.Time
	if h.c.Timeout > 0 {
		t := time.NewTimer(h.c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case fr := <-h.in:
		return fr, nil
	case <-h.c.readerDone:
		select {
		case fr := <-h.in:
			return fr, nil
		default:
			return muxFrame{}, h.c.termErr()
		}
	case <-timeout:
		h.c.conn.Close()
		return muxFrame{}, fmt.Errorf("%w: no server frame within %v", ErrTimeout, h.c.Timeout)
	}
}

// msg waits for the next prover message on this channel. srvDead
// reports that the server ended the channel (error or budget frame), so
// no finish frame should follow.
func (h *QueryHandle) msg() (m core.Msg, srvDead bool, err error) {
	fr, err := h.frame()
	if err != nil {
		return core.Msg{}, false, err
	}
	switch fr.typ {
	case frames.ProverCh:
		m, err = frames.DecodeMsg(fr.payload)
		return m, false, err
	case frames.BudgetCh:
		return core.Msg{}, true, &BudgetError{Msg: string(fr.payload)}
	case frames.ErrorCh:
		return core.Msg{}, true, &ServerError{Msg: string(fr.payload)}
	default:
		return core.Msg{}, false, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, fr.typ)
	}
}
