// Split-universe client calls: attaching to one slice of a split
// dataset and holding a partial-prover conversation — the leg an
// aggregating router speaks to each slice owner. The verifier-facing
// protocol is unchanged; these calls exist so a core.SplitProver (the
// router's, or a test's) can fold the owners' exact partial messages:
// a PartialConv is a core.SplitOwner.
package wire

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/wire/frames"
)

// OpenDatasetSlice attaches the connection to the named dataset opened
// as the slice [lo, hi) of a split universe of size ≥ globalU, creating
// the slice on first open (see engine.OpenSlice for the geometry
// discipline: bounds over the padded global universe, power-of-two
// width ≥ 2, aligned to itself). It returns the slice's current update
// count. After it, Ingest delivers updates for the owned index range
// and PartialQuery opens partial-prover conversations; whole-transcript
// Query calls are refused by the server — a slice's messages are
// partials, not a complete transcript.
func (c *Client) OpenDatasetSlice(name string, globalU, lo, hi uint64) (uint64, error) {
	c.cmu.Lock()
	defer c.cmu.Unlock()
	if name == "" || len(name) > frames.MaxDatasetName {
		return 0, fmt.Errorf("wire: dataset name must be 1..%d bytes", frames.MaxDatasetName)
	}
	if err := c.write(frames.OpenSlice, frames.EncodeOpenSlice(name, globalU, lo, hi)); err != nil {
		return 0, err
	}
	count, err := c.readOK()
	if err == nil {
		// The slice's protocol identity is the global universe: every
		// parameter and proof binding is derived from it, never from the
		// slice width.
		c.dsName, c.dsU = name, globalU
	}
	return count, err
}

// PartialConv is one partial-prover conversation with a slice owner,
// returned by Client.PartialQuery. Unlike QueryHandle it has no driving
// goroutine: the core.SplitProver holding it is the conversation's
// clock, reading each message with Msg and broadcasting each challenge
// with Challenge, so it can hold S conversations in lock-step. Not safe
// for concurrent use (one SplitProver owns it); distinct conversations
// on one Client are independent.
type PartialConv struct {
	h       *QueryHandle
	srvDead bool // server already failed the channel; no finish frame owed
	closed  bool
}

// PartialQuery opens a partial-prover conversation for one query on its
// own channel. The first Msg returns the owner's opening (the dataset
// version and this slice's partial claim + round-1 message); each
// Challenge(r) buys the next Msg, which after the final head fold is
// the slice's leaves. The caller must Finish (or Close) the
// conversation when done with it.
func (c *Client) PartialQuery(kind QueryKind, params QueryParams) (*PartialConv, error) {
	if _, _, err := c.attachment("PartialQuery"); err != nil {
		return nil, err
	}
	h, err := c.newHandle(nil)
	if err != nil {
		return nil, err
	}
	if err := c.write(frames.PartialQueryCh, frames.EncodeChannel(h.id, frames.EncodeQuery(kind, params))); err != nil {
		c.unregister(h.id)
		return nil, err
	}
	return &PartialConv{h: h}, nil
}

// retire releases the handle; late frames for the id are dropped by the
// demux reader.
func (p *PartialConv) retire() {
	if !p.closed {
		p.closed = true
		p.h.c.unregister(p.h.id)
	}
}

// Msg waits for the owner's next message, honoring the client timeout.
// A server-side channel failure (error or budget frame) surfaces typed
// and closes the conversation.
func (p *PartialConv) Msg() (core.Msg, error) {
	if p.closed {
		return core.Msg{}, fmt.Errorf("wire: partial conversation is closed")
	}
	m, srvDead, err := p.h.msg()
	if err != nil {
		p.srvDead = srvDead
		p.retire()
	}
	return m, err
}

// Challenge sends the verifier's broadcast challenge to the owner.
func (p *PartialConv) Challenge(m core.Msg) error {
	if p.closed {
		return fmt.Errorf("wire: partial conversation is closed")
	}
	if err := p.h.c.write(frames.ChallengeCh, frames.EncodeChannel(p.h.id, frames.EncodeMsg(m))); err != nil {
		p.retire()
		return err
	}
	return nil
}

// Finish ends the conversation, closing the channel server-side (unless
// the server already failed it) and releasing the handle. It is
// idempotent and safe after an error.
func (p *PartialConv) Finish() error {
	if p.closed {
		return nil
	}
	var err error
	if !p.srvDead {
		err = p.h.c.write(frames.FinishCh, frames.EncodeChannel(p.h.id, nil))
	}
	p.retire()
	return err
}
