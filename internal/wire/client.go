// The verifier client: control-plane request/response calls, the demux
// reader that fans channel frames out to conversation handles (mux.go),
// and the admin plane a router or operator tool drives shards with.
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/wire/frames"
)

// Client is the data-owner side: it uploads the stream (keeping only its
// local verifier summaries) and drives query conversations. The flow is
// OpenDataset, then Ingest and Query in any order.
//
// A Client is safe for concurrent use: Query and QueryAsync multiplex
// any number of conversations over the one connection (each on its own
// channel id, demultiplexed by a reader goroutine), and the
// control-plane calls (OpenDataset, Ingest, the admin calls) serialize
// among themselves.
type Client struct {
	conn net.Conn
	// Timeout bounds how long the client waits for each expected server
	// frame (and for each frame write), mirroring Server.IdleTimeout on
	// the other end: a stalled or half-open server surfaces as a typed
	// ErrTimeout instead of hanging OpenDataset/Ingest/Query forever. The
	// connection is closed on timeout — the conversation state is
	// unrecoverable. Set it before the first call; zero means no bound.
	Timeout time.Duration

	// FieldModulus is the field the client agreed on with the server
	// out-of-band (the modulus it builds its own verifiers over). When
	// nonzero, FetchProof rejects any proof whose binding names a
	// different modulus — without it a malicious server could grind the
	// challenge derivation over 2^64 modulus choices. Set it before the
	// first FetchProof/QueryCached call; zero skips the check.
	FieldModulus uint64

	wmu sync.Mutex // serializes frame writes

	cmu    sync.Mutex // serializes control-plane request/response pairs
	dsName string     // dataset attached by OpenDataset ("" before it); guarded by cmu
	dsU    uint64     // its universe size (Open rejects a mismatch); guarded by cmu

	mu      sync.Mutex // guards the demux state below
	handles map[uint32]*QueryHandle
	nextCh  uint32
	readErr error // terminal reader failure, sticky
	srvErr  error // typed server error/budget frame seen on the control channel, sticky

	ctrl       chan ctrlFrame // control-channel frames (acks, refusals)
	readerDone chan struct{}  // closed when the demux reader exits
}

// ctrlFrame is one control-channel frame as delivered by the demux
// reader.
type ctrlFrame struct {
	typ     byte
	payload []byte
}

// ServerError is a refusal the server sent as an error frame, on the
// control channel or on one conversation's channel. Msg is the server's
// own text, so an intermediary relaying the refusal to its client
// (shard.Router) forwards Msg rather than re-wrapping Error().
type ServerError struct{ Msg string }

func (e *ServerError) Error() string { return "wire: server error: " + e.Msg }

// BudgetError is a resource refusal the server sent as a budget frame:
// engine admission, or the per-connection cap on concurrent queries. Msg
// is the server's error text, which already names ErrBudget, so Error
// returns it unchanged and a router relaying it reads exactly like the
// server it relays. errors.Is(err, ErrBudget) holds.
type BudgetError struct{ Msg string }

func (e *BudgetError) Error() string { return e.Msg }

func (e *BudgetError) Unwrap() error { return ErrBudget }

// ErrTimeout reports that Client.Timeout elapsed while waiting on the
// server; the connection has been closed. Distinguish it with
// errors.Is(err, wire.ErrTimeout).
var ErrTimeout = errors.New("wire: client timeout")

// Dial connects to a prover server.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection — the constructor for
// callers that own the dial policy (the shard router dials backends
// with bounded retry before handing the connection here).
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:       conn,
		handles:    make(map[uint32]*QueryHandle),
		ctrl:       make(chan ctrlFrame, 16),
		readerDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }

// readLoop is the demux reader: the only goroutine that reads the
// socket. Channel-scoped frames are routed to their conversation
// handle; control frames go to the ctrl queue the request/response
// calls consume.
func (c *Client) readLoop() {
	defer close(c.readerDone)
	for {
		typ, payload, err := frames.ReadFrame(c.conn)
		if err != nil {
			c.failReader(err)
			return
		}
		switch typ {
		case frames.ProverCh, frames.ErrorCh, frames.BudgetCh, frames.ProofCh:
			id, rest, err := frames.DecodeChannel(payload)
			if err != nil {
				c.failReader(err)
				return
			}
			c.mu.Lock()
			h := c.handles[id]
			c.mu.Unlock()
			if h == nil {
				continue // late frame for a finished conversation
			}
			if !h.deliver(muxFrame{typ: typ, payload: rest}) {
				c.failReader(fmt.Errorf("%w: channel %d flooded beyond the lock-step window", ErrProtocol, id))
				return
			}
		case frames.OK, frames.Budget, frames.Error, frames.StatsResp:
			if typ == frames.Budget || typ == frames.Error {
				// Remember the server's parting shot: if the connection
				// dies before anyone reads this frame, later calls still
				// surface the typed cause instead of a bare EOF.
				c.mu.Lock()
				if c.srvErr == nil {
					c.srvErr = ctrlErr(typ, payload)
				}
				c.mu.Unlock()
			}
			select {
			case c.ctrl <- ctrlFrame{typ: typ, payload: payload}:
			default:
				// The server acked something nobody asked about — the
				// conversation is desynchronized beyond recovery.
				c.failReader(fmt.Errorf("%w: unsolicited control frame 0x%02x", ErrProtocol, typ))
				return
			}
		default:
			c.failReader(fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ))
			return
		}
	}
}

// failReader records the reader's terminal error. Open conversations
// and control waiters observe it through readerDone.
func (c *Client) failReader(err error) {
	c.mu.Lock()
	if c.readErr == nil {
		c.readErr = err
	}
	c.mu.Unlock()
}

// termErr is the error reported once the reader has died: the typed
// server refusal if one arrived, otherwise the transport failure.
func (c *Client) termErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srvErr != nil {
		return c.srvErr
	}
	if c.readErr != nil {
		return c.readErr
	}
	return io.EOF
}

// ctrlErr types a server refusal frame.
func ctrlErr(typ byte, payload []byte) error {
	if typ == frames.Budget {
		return &BudgetError{Msg: string(payload)}
	}
	return &ServerError{Msg: string(payload)}
}

// write sends one frame of type typ carrying payload, as send sends it.
func (c *Client) write(typ byte, payload []byte) error {
	return c.send(frames.Frame(typ, payload))
}

// writeMsg sends the protocol message m on channel id as one frame of
// type typ, laid out in one buffer (frames.MsgFrame), as write sends.
func (c *Client) writeMsg(typ byte, id uint32, m core.Msg) error {
	return c.send(frames.MsgFrame(typ, id, m))
}

// send writes one laid-out frame in one Write, serialized against every
// other writer on the connection and bounded by Timeout. When the write
// fails because the server already tore the connection down after an
// error frame, the typed server error is surfaced instead of the raw
// transport error.
func (c *Client) send(frame []byte) error {
	c.wmu.Lock()
	err := func() error {
		if c.Timeout > 0 {
			if err := c.conn.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
				return err
			}
		}
		_, err := c.conn.Write(frame)
		return err
	}()
	c.wmu.Unlock()
	if err == nil {
		return nil
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		// A timed-out write may have left a partial frame on the wire —
		// the framing is unrecoverable, per the Timeout contract.
		c.conn.Close()
		return fmt.Errorf("%w: frame write stalled beyond %v", ErrTimeout, c.Timeout)
	}
	// Give the reader a beat to pick up the server's parting error frame
	// from the receive buffer, then prefer it: "index out of range" beats
	// "broken pipe".
	select {
	case <-c.readerDone:
	case <-time.After(50 * time.Millisecond):
	}
	c.mu.Lock()
	srvErr := c.srvErr
	c.mu.Unlock()
	if srvErr != nil {
		return srvErr
	}
	return err
}

// waitCtrl blocks for the next control-channel frame, honoring Timeout.
func (c *Client) waitCtrl() (byte, []byte, error) {
	var timeout <-chan time.Time
	if c.Timeout > 0 {
		t := time.NewTimer(c.Timeout)
		defer t.Stop()
		timeout = t.C
	}
	select {
	case fr := <-c.ctrl:
		return fr.typ, fr.payload, nil
	case <-c.readerDone:
		// Drain a frame that raced in just before the reader died.
		select {
		case fr := <-c.ctrl:
			return fr.typ, fr.payload, nil
		default:
		}
		return 0, nil, c.termErr()
	case <-timeout:
		c.conn.Close()
		return 0, nil, fmt.Errorf("%w: no server response within %v", ErrTimeout, c.Timeout)
	}
}

// OpenDataset attaches the connection to the named server-side dataset,
// creating it over a universe of size ≥ u if it does not exist. It
// returns the dataset's current update count — zero for a fresh dataset;
// a verifier must have observed every update already ingested for its
// queries to be accepted. After OpenDataset, Ingest and Query may be
// freely interleaved, and other connections attached to the same name
// see the same data.
func (c *Client) OpenDataset(name string, u uint64) (uint64, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if name == "" || len(name) > frames.MaxDatasetName {
		return 0, fmt.Errorf("wire: dataset name must be 1..%d bytes", frames.MaxDatasetName)
	}
	if err := c.write(frames.Open, frames.EncodeOpen(name, u)); err != nil {
		return 0, err
	}
	count, err := c.readOK()
	if err == nil {
		// The server's engine refuses an open whose universe differs from
		// the existing dataset's, so a successful open pins both: proofs
		// fetched on this connection must carry exactly this identity.
		c.dsName, c.dsU = name, u
	}
	return count, err
}

// errNotAttached is the fail-fast refusal of a call that needs the
// attachment OpenDataset (or OpenDatasetSlice) makes.
func errNotAttached(op string) error {
	return fmt.Errorf("wire: %s requires an attached dataset (call OpenDataset first)", op)
}

// attachment returns the dataset identity pinned by the last successful
// open; op names the calling method for the refusal when there is none.
func (c *Client) attachment(op string) (name string, u uint64, err error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.dsName == "" {
		return "", 0, errNotAttached(op)
	}
	return c.dsName, c.dsU, nil
}

// maxFrameUpdates is the most updates one updates frame carries: 16
// bytes each, within frames.MaxFrame.
const maxFrameUpdates = frames.MaxFrame / 16

// Ingest uploads updates into the attached dataset as one acknowledged
// updates frame, empty batches included, and returns the dataset's
// update count after it (including other connections' concurrent
// ingestion). The server applies one frame as one batch: all of it or,
// when any index is out of range or a count or Σδ would overflow int64,
// none of it, as one dataset version.
// Only a batch past what one frame carries (frames.MaxFrame/16 updates)
// is cut into several frames, each its own batch, and a refusal then
// leaves the frames before it applied.
func (c *Client) Ingest(ups []stream.Update) (uint64, error) {
	return c.ingest(frames.Updates, ups, maxFrameUpdates)
}

// CheckIngest asks whether the server would apply ups, one frame's worth,
// as one updates frame now, and returns the attached dataset's Σδ. The
// server applies none of it. It refuses the batch as Ingest would, with
// the same error, and that refusal closes the connection as Ingest's
// does.
func (c *Client) CheckIngest(ups []stream.Update) (int64, error) {
	total, err := c.ingest(frames.CheckUpdates, ups, maxFrameUpdates)
	return int64(total), err
}

// ingest sends ups as frames of type typ, at most perFrame updates each,
// and returns the last frame's acknowledged value.
func (c *Client) ingest(typ byte, ups []stream.Update, perFrame int) (uint64, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if c.dsName == "" {
		return 0, errNotAttached("Ingest")
	}
	var count uint64
	for sent := false; len(ups) > 0 || !sent; sent = true {
		n := min(len(ups), perFrame)
		if err := c.write(typ, frames.EncodeUpdates(ups[:n])); err != nil {
			return count, err
		}
		var err error
		if count, err = c.readOK(); err != nil {
			return count, err
		}
		ups = ups[n:]
	}
	return count, nil
}

func (c *Client) readOK() (uint64, error) {
	typ, payload, err := c.waitCtrl()
	if err != nil {
		return 0, err
	}
	switch typ {
	case frames.OK:
		return frames.DecodeCount(payload)
	case frames.Budget, frames.Error:
		return 0, ctrlErr(typ, payload)
	default:
		return 0, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}

// Query sends the query and drives the conversation between the remote
// prover and the local verifier session. A nil error means the verifier
// accepted; results are read from the concrete verifier afterwards.
// Query is safe to call from many goroutines at once: each call runs on
// its own multiplexed channel (it is QueryAsync + Wait).
func (c *Client) Query(kind QueryKind, params QueryParams, v core.VerifierSession) (core.Stats, error) {
	h, err := c.QueryAsync(kind, params, v)
	if err != nil {
		return core.Stats{}, err
	}
	return h.Wait()
}

// ---------------------------------------------------------------------
// Admin plane: dataset handoff and operational stats. These are the
// calls the shard router (and operator tooling) drives shards with;
// they are control-plane request/response pairs and legal in any
// connection state, so a fresh admin connection needs no open.

// Handoff asks the server to release the named dataset for migration:
// the engine persists it one final time, detaches it from the registry
// (later ingest through a stale route fails loudly instead of silently
// diverging), and keeps the checkpoint file for the adopter to take.
// It returns the update count the on-disk checkpoint covers.
func (c *Client) Handoff(name string) (uint64, error) {
	return c.adminCall(frames.Handoff, name)
}

// Adopt asks the server to register the named dataset from a checkpoint
// file already placed in its data dir — the receiving half of a
// handoff. It returns the adopted checkpoint's update count, which the
// mover compares against Handoff's to assert a loss-free move.
func (c *Client) Adopt(name string) (uint64, error) {
	return c.adminCall(frames.Adopt, name)
}

func (c *Client) adminCall(typ byte, name string) (uint64, error) {
	if name == "" || len(name) > frames.MaxDatasetName {
		return 0, fmt.Errorf("wire: dataset name must be 1..%d bytes", frames.MaxDatasetName)
	}
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if err := c.write(typ, frames.EncodeName(name)); err != nil {
		return 0, err
	}
	return c.readOK()
}

// ServerStats fetches the server's operational counters: proof-cache
// accounting plus the startup recovery report (datasets recovered,
// per-file failures of a partial recovery).
func (c *Client) ServerStats() (ServerStats, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if err := c.write(frames.StatsReq, nil); err != nil {
		return ServerStats{}, err
	}
	typ, payload, err := c.waitCtrl()
	if err != nil {
		return ServerStats{}, err
	}
	switch typ {
	case frames.StatsResp:
		var st ServerStats
		if err := json.Unmarshal(payload, &st); err != nil {
			return ServerStats{}, fmt.Errorf("%w: stats payload: %v", ErrProtocol, err)
		}
		return st, nil
	case frames.Budget, frames.Error:
		return ServerStats{}, ctrlErr(typ, payload)
	default:
		return ServerStats{}, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, typ)
	}
}
