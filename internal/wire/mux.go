// Multiplexed query conversations: the wire layer's answer to the
// paper's many-cheap-conversations deployment. One connection holds any
// number of concurrent query conversations, each on its own uint32
// channel id:
//
//   - the client opens a channel with frames.QueryCh [ch][kind+params] and
//     drives it with frames.ChallengeCh/frames.FinishCh frames;
//   - the prover side runs each channel's conversation in its own
//     goroutine against its own session (on the server, over an immutable
//     snapshot taken, in arrival order, when the query frame is read),
//     answering with frames.ProverCh frames;
//   - channel failures travel as frames.ErrorCh/frames.BudgetCh and kill
//     only that conversation — the connection, its other channels, and
//     interleaved ingestion continue.
//
// Back-pressure rule: each channel's inbound queue holds a few frames
// (the conversations are lock-step, so an honest peer never has more
// than one in flight); a client that floods one channel stalls its own
// connection's read loop until that conversation consumes or fails,
// never the server or other connections. Channel opens past
// Server.MaxConcurrentQueries are refused with a per-channel budget
// frame, the same treatment as engine admission.
//
// The prover side is one type, Mux, whatever the session: the server
// runs snapshot provers through it, and the shard router the folded
// sessions of its split datasets, so a split dataset reads like one
// engine by construction. Channel bookkeeping (live table, concurrency
// slots, tombstones for failed channels) lives in ChannelPins (seam.go).
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/wire/frames"
)

// muxFrame is one channel-scoped frame with the id already stripped.
type muxFrame struct {
	typ     byte
	payload []byte
}

// ---------------------------------------------------------------------
// Prover side

// Mux is the prover side of one client connection. It serializes frame
// writes (the read loop's acks and every conversation goroutine share
// one socket), admits conversation channels against a cap, runs each
// conversation's core.ProverSession on its own goroutine until the
// client finishes, answers posted-proof requests (proof.go), and fails a
// channel with the typed per-channel frame. Open, Route, Refuse and
// Proof belong to the connection's read loop.
type Mux struct {
	conn  net.Conn
	idle  time.Duration
	limit int
	wmu   sync.Mutex

	pins *ChannelPins // channel id → *muxChan, or an owner the caller pinned
	wg   sync.WaitGroup
	done chan struct{} // closed by Shutdown
}

// muxChan is one live conversation channel: its inbound frame queue and
// a latch the read loop can select against so a conversation that dies
// mid-frame never wedges the connection.
type muxChan struct {
	q    chan muxFrame
	done chan struct{}
}

// NewMux returns the prover side of conn. idle bounds every read and
// write (zero: no deadline); a positive limit caps the conversations in
// flight, anything else admits every channel.
func NewMux(conn net.Conn, idle time.Duration, limit int) *Mux {
	return &Mux{
		conn:  conn,
		idle:  idle,
		limit: limit,
		pins:  NewChannelPins(),
		done:  make(chan struct{}),
	}
}

// Pins returns the connection's channel routing table. A caller that
// answers some channels elsewhere (the router's backends) pins them
// here too, so one table holds every channel id of the connection.
func (m *Mux) Pins() *ChannelPins { return m.pins }

// Read receives one client frame under the idle deadline.
func (m *Mux) Read() (byte, []byte, error) {
	if m.idle > 0 {
		if err := m.conn.SetReadDeadline(time.Now().Add(m.idle)); err != nil {
			return 0, nil, err
		}
	}
	return frames.ReadFrame(m.conn)
}

// Write sends one frame to the client, serialized against every other
// writer on the connection and carrying the idle deadline.
func (m *Mux) Write(typ byte, payload []byte) error {
	return m.send(frames.Frame(typ, payload))
}

// writeMsg sends the protocol message msg on channel id as one frame of
// type typ, laid out in one buffer (frames.MsgFrame).
func (m *Mux) writeMsg(typ byte, id uint32, msg core.Msg) error {
	return m.send(frames.MsgFrame(typ, id, msg))
}

// send writes one laid-out frame in one Write, serialized with every
// other writer of the connection.
func (m *Mux) send(frame []byte) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.idle > 0 {
		if err := m.conn.SetWriteDeadline(time.Now().Add(m.idle)); err != nil {
			return err
		}
	}
	_, err := m.conn.Write(frame)
	return err
}

// Shutdown unblocks and drains every goroutine the mux started. Called
// as the connection handler unwinds, before any final error frame or
// the socket close, so no goroutine can interleave a write with either.
func (m *Mux) Shutdown() {
	close(m.done)
	m.wg.Wait()
}

// Open starts a conversation on channel id: admission against the cap
// first, then start — the synchronous per-query step (the server's
// snapshot, the router's owner opens), run in frame-arrival order so a
// query never observes updates its client sent after it — then the
// session start returns, served on its own goroutine; expensive work
// belongs in the session's Open. A channel refused at the cap or by
// start gets the typed per-channel frame; an error from start is also
// returned (connection-fatal) unless it is a budget refusal. A session
// that is an io.Closer is closed when its conversation ends, by any
// path.
func (m *Mux) Open(id uint32, start func() (core.ProverSession, error)) error {
	mc := &muxChan{q: make(chan muxFrame, 4), done: make(chan struct{})}
	ok, err := m.pins.Open(id, mc, m.limit)
	if err != nil {
		return err
	}
	if !ok {
		// Same treatment as engine admission: a resource refusal on this
		// channel only, not a protocol violation. The tombstone absorbs the
		// one frame a client may already have in flight on the refused id
		// (a router aborting its other owners' legs sends a finish).
		return m.Refuse(id, fmt.Errorf("%w: too many concurrent queries (limit %d)", ErrBudget, m.limit))
	}
	session, err := start()
	if err != nil {
		m.finish(id, mc, err)
		if errors.Is(err, ErrBudget) {
			return nil // channel-level refusal already sent by finish
		}
		return err
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		err := m.serve(id, mc, session)
		if c, ok := session.(io.Closer); ok {
			_ = c.Close() // a close failure cannot change what the client was told
		}
		m.finish(id, mc, err)
	}()
	return nil
}

// Route hands one ChallengeCh/FinishCh frame (split by ChannelID) to
// the conversation serving the channel. A finish frame releases the
// channel's concurrency slot the moment it arrives — not when the
// conversation consumes it — so a strictly serial client at the cap is
// never spuriously refused. An owner the caller pinned itself is
// returned for the caller to forward to; nil means the mux took the
// frame, or a tombstone absorbed it (a failed channel may see one more
// client frame: the challenge that crossed its error on the wire).
func (m *Mux) Route(typ byte, id uint32, body []byte) (any, error) {
	owner, ok := m.pins.Route(id, typ == frames.FinishCh)
	if !ok {
		return nil, fmt.Errorf("%w: frame 0x%02x for unknown channel %d", ErrProtocol, typ, id)
	}
	mc, served := owner.(*muxChan)
	if !served {
		return owner, nil
	}
	select {
	case mc.q <- muxFrame{typ: typ, payload: body}:
	case <-mc.done:
		// The conversation ended while this frame was in flight; drop it.
	}
	return nil, nil
}

// Refuse fails a channel that never opened with the typed per-channel
// frame, tombstoning id so the one client frame lock-step permits
// behind the refusal is absorbed rather than fatal.
func (m *Mux) Refuse(id uint32, err error) error {
	m.pins.Retire(id, nil, true)
	return m.refusal(id, err)
}

// refusal sends err on channel id as the typed per-channel frame: a
// budget refusal as a budget frame, a *ServerError relayed from a
// backend as its Msg (so the client reads what the backend's engine
// said), anything else as its text.
func (m *Mux) refusal(id uint32, err error) error {
	typ, text := byte(frames.ErrorCh), err.Error()
	if errors.Is(err, ErrBudget) {
		typ = frames.BudgetCh
	} else if srv, ok := err.(*ServerError); ok {
		text = srv.Msg
	}
	return m.Write(typ, frames.EncodeChannel(id, []byte(text)))
}

// finish retires a channel: unregister, tombstone on failure, and the
// typed per-channel error frame.
func (m *Mux) finish(id uint32, mc *muxChan, err error) {
	close(mc.done)
	m.pins.Retire(id, mc, err != nil)
	if err != nil {
		_ = m.refusal(id, err)
	}
}

// serve runs one channel's conversation: open the session, then answer
// challenges until the client finishes, the session errors, or the
// connection goes away.
func (m *Mux) serve(id uint32, mc *muxChan, session core.ProverSession) error {
	opening, err := session.Open()
	if err != nil {
		return err
	}
	if err := m.writeMsg(frames.ProverCh, id, opening); err != nil {
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
			if err := m.writeMsg(frames.ProverCh, id, resp); err != nil {
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
		if err = h.c.writeMsg(frames.ChallengeCh, h.id, challenge); err != nil {
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
