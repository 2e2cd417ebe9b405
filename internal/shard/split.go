// The split-universe path: one dataset too large for a single engine,
// spread as power-of-two slices of its padded universe across several
// shards. Unlike the byte-forwarding routes in router.go, the router is
// a protocol PARTICIPANT here — it attaches to every owner over the
// shard-facing slice calls (wire.OpenDatasetSlice, wire.PartialQuery),
// scatters each ingest batch, and folds the owners' partial-prover
// messages with a core.SplitProver into the single conversation the
// client sees, served like a single engine's through the connection's
// wire.Mux. The client-facing protocol is unchanged: sip.Client and
// wire.Client speak to a split dataset exactly as to a whole one, and
// the transcript — and therefore every verifier decision and every
// cached Fiat–Shamir proof byte — is bit-identical to a single engine
// holding the whole dataset.
//
// Version discipline: a slice's dataset version counts DELIVERED
// batches (engine.IngestColumns bumps a slice on every delivered batch,
// empty or not), so the scatter delivers every non-empty global batch
// to every owner — one frame each, empty sub-batches included — and
// acks a fully-empty global batch locally. Slice versions then track
// the single-engine version exactly, which is what lets the SplitProver
// pin one version across owners and the proof binding carry the same
// version a single engine would.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/lde"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

// splitAttach is one client connection's attachment to a split dataset:
// the geometry plus the per-slice owner legs. The owner slice is
// mutable (a slice handoff swaps in a freshly attached client); the
// mutex covers owners and count, which the read loop and conversation
// goroutines share.
type splitAttach struct {
	name   string
	u      uint64 // client-declared global universe
	width  uint64 // slice width over the padded universe
	slices int

	mu     sync.Mutex
	owners []*wire.Client // slice k → its owner leg
	count  uint64         // last acked global update count
}

// bounds returns slice k's [lo, hi) over the padded universe.
func (a *splitAttach) bounds(k int) (lo, hi uint64) {
	return uint64(k) * a.width, uint64(k+1) * a.width
}

func (a *splitAttach) owner(k int) *wire.Client {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.owners[k]
}

// swapOwner installs a replacement leg for slice k. The old client is
// NOT closed: in-flight conversations may still be draining it; the
// proxy's append-only connection list closes it at teardown.
func (a *splitAttach) swapOwner(k int, c *wire.Client) {
	a.mu.Lock()
	a.owners[k] = c
	a.mu.Unlock()
}

func (a *splitAttach) clients() []*wire.Client {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]*wire.Client(nil), a.owners...)
}

func (a *splitAttach) setCount(n uint64) {
	a.mu.Lock()
	a.count = n
	a.mu.Unlock()
}

func (a *splitAttach) total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.count
}

// openConvs opens one partial conversation per owner, in slice order.
// The caller must be the client read loop (or hold no later frames):
// opening synchronously in frame-arrival order is what guarantees every
// owner snapshots the same set of this connection's acknowledged
// batches — the same ordering a single engine's mux gives one dataset.
func (a *splitAttach) openConvs(kind wire.QueryKind, params wire.QueryParams) ([]core.SplitOwner, error) {
	owners := a.clients()
	convs := make([]core.SplitOwner, 0, len(owners))
	for k, c := range owners {
		conv, err := c.PartialQuery(kind, params)
		if err != nil {
			for _, conv := range convs {
				_ = conv.Finish()
			}
			return nil, fmt.Errorf("shard: opening partial conversation on slice %d of %q: %w", k, a.name, err)
		}
		convs = append(convs, conv)
	}
	return convs, nil
}

// splitClient returns this connection's owner leg to (shard, dataset),
// dialing on first use. One wire.Client per pair: a client carries a
// single attachment, and distinct split datasets on one proxy
// connection may share a shard.
func (p *proxyConn) splitClient(s ShardInfo, dataset string) (*wire.Client, error) {
	key := s.Name + "\x00" + dataset
	if c := p.splitClients[key]; c != nil {
		return c, nil
	}
	if p.splitClients == nil {
		p.splitClients = make(map[string]*wire.Client)
	}
	c, err := p.dialSplitLeg(s)
	if err != nil {
		return nil, err
	}
	p.splitClients[key] = c
	return c, nil
}

// dialSplitLeg dials a fresh owner leg with the same bounded retry as a
// byte-forwarding backend.
func (p *proxyConn) dialSplitLeg(s ShardInfo) (*wire.Client, error) {
	conn, err := dialBackoff(s.Addr, p.r.DialRetryBudget)
	if err != nil {
		return nil, fmt.Errorf("shard: shard %q (%s) is unreachable: %w", s.Name, s.Addr, err)
	}
	c := wire.NewClient(conn)
	if t := p.r.IdleTimeout; t > 0 {
		c.Timeout = t
	}
	p.splitConns = append(p.splitConns, c)
	return c, nil
}

// openSplit attaches the client connection to a split dataset: one
// OpenDatasetSlice per owner, in slice order, then the summed count is
// acked exactly as a single engine would ack its whole-dataset OPEN.
func (p *proxyConn) openSplit(name string, u uint64, pl *splitPlacement) error {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return err
	}
	if uint64(pl.slices)*2 > params.U {
		return fmt.Errorf("shard: dataset %q: universe %d pads to %d, too small for %d slices (slice width must be ≥ 2)",
			name, u, params.U, pl.slices)
	}
	a := &splitAttach{
		name:   name,
		u:      u,
		width:  params.U / uint64(pl.slices),
		slices: pl.slices,
		owners: make([]*wire.Client, pl.slices),
	}
	var total uint64
	for k, s := range pl.owners {
		c, err := p.splitClient(s, name)
		if err != nil {
			return err
		}
		lo, hi := a.bounds(k)
		n, err := c.OpenDatasetSlice(name, u, lo, hi)
		if err != nil {
			return fmt.Errorf("shard: opening slice %d of %q on shard %q: %w", k, name, s.Name, err)
		}
		a.owners[k] = c
		total += n
	}
	a.count = total
	p.split, p.cur = a, nil
	return p.mux.Write(frames.OK, frames.EncodeCount(total))
}

// splitIngest scatters one global updates batch across the owners or,
// for a check-updates frame, only asks them. A non-empty batch is
// delivered to EVERY owner (empty sub-batches included) so slice
// versions track the global version; a fully-empty updates batch is
// acked locally, mirroring the engine's no-bump rule for empty
// whole-dataset batches.
//
// A batch is refused whole, as a single engine refuses it: every owner
// checks its part (wire.Client.CheckIngest) before any owner applies
// one, and the router refuses a batch that would take the global Σδ,
// the sum of the owners' (each kept modulo 2^64), outside int64. The
// scatters of one dataset are serialized router-wide, so no other
// connection's batch lands between the check and the delivery.
func (p *proxyConn) splitIngest(typ byte, payload []byte) error {
	a := p.split
	idx, deltas, err := frames.DecodeUpdateColumns(payload)
	if err != nil {
		return err
	}
	if len(idx) == 0 && typ == frames.Updates {
		return p.mux.Write(frames.OK, frames.EncodeCount(a.total()))
	}
	subs := make([][]stream.Update, a.slices)
	for i, ix := range idx {
		if ix >= a.u {
			// The engine's own bounds refusal, verbatim: validated here
			// because each owner only knows its slice.
			return fmt.Errorf("engine: index %d outside universe [0,%d)", ix, a.u)
		}
		k := int(ix / a.width)
		subs[k] = append(subs[k], stream.Update{Index: ix, Delta: deltas[i]})
	}
	mu := p.r.splitWriteLock(a.name)
	mu.Lock()
	defer mu.Unlock()
	var total int64
	for k := range subs {
		var part int64
		err := p.onSlice(a, k, func(c *wire.Client) (err error) {
			part, err = c.CheckIngest(subs[k])
			return err
		})
		if se := (*wire.ServerError)(nil); errors.As(err, &se) {
			return errors.New(se.Msg) // the owner engine's refusal, in its words
		}
		if err != nil {
			return fmt.Errorf("shard: checking batch on slice %d of %q: %w", k, a.name, err)
		}
		total += part
	}
	if _, err := engine.CheckTotal(total, deltas); err != nil {
		return err
	}
	if typ == frames.CheckUpdates {
		return p.mux.Write(frames.OK, frames.EncodeCount(uint64(total)))
	}
	var n uint64
	for k := range subs {
		var part uint64
		err := p.onSlice(a, k, func(c *wire.Client) (err error) {
			part, err = c.Ingest(subs[k])
			return err
		})
		if err != nil {
			return fmt.Errorf("shard: delivering batch to slice %d of %q: %w", k, a.name, err)
		}
		n += part
	}
	a.setCount(n)
	return p.mux.Write(frames.OK, frames.EncodeCount(n))
}

// onSlice runs call on slice k's owner leg. A call the owner refused
// because it released the slice for a handoff (engine.ErrReleased: it
// checkpointed first, so the refused request did nothing) is re-run
// through a fresh attachment to the slice's new home; three attempts
// bound a migration storm. Any other failure is returned at once. A
// scatter sends each owner its sub-batch as exactly one frame: the
// sub-batch is part of one client frame, so Ingest sends it whole, empty
// or not, and every slice version stays the version a single engine
// reaches.
func (p *proxyConn) onSlice(a *splitAttach, k int, call func(*wire.Client) error) error {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if err = p.reattachSlice(a, k); err != nil {
				continue
			}
		}
		var se *wire.ServerError
		if err = call(a.owner(k)); !errors.As(err, &se) || !strings.Contains(se.Msg, engine.ErrReleased.Error()) {
			return err
		}
	}
	return err
}

// reattachSlice re-resolves slice k's owner (waiting out any in-flight
// migration through the gate in resolve) and swaps in a freshly dialed,
// freshly attached leg. The previous leg is left to drain.
func (p *proxyConn) reattachSlice(a *splitAttach, k int) error {
	_, pl, err := p.r.resolve(a.name)
	if err != nil {
		return err
	}
	if pl == nil || pl.slices != a.slices {
		return fmt.Errorf("shard: dataset %q is no longer split %d ways", a.name, a.slices)
	}
	s := pl.owners[k]
	c, err := p.dialSplitLeg(s)
	if err != nil {
		return err
	}
	p.splitClients[s.Name+"\x00"+a.name] = c
	lo, hi := a.bounds(k)
	if _, err := c.OpenDatasetSlice(a.name, a.u, lo, hi); err != nil {
		return fmt.Errorf("shard: re-attaching slice %d of %q on shard %q: %w", k, a.name, s.Name, err)
	}
	a.swapOwner(k, c)
	return nil
}

// splitChannel answers one query or proof request on the split
// attachment through the client mux — the same prover side a single
// engine runs, over a core.SplitProver that folds the owners. Only the
// seam kinds split: the engine's kind table refuses any other kind, and
// constructor-rejected parameters, in the engine's own words before any
// owner hears of the query. A proof request for a kind with no posted
// proof (engine.CheckPosted) is refused first, the same way.
func (p *proxyConn) splitChannel(typ byte, id uint32, body []byte) error {
	if typ == frames.PartialQueryCh {
		return p.mux.Refuse(id, errors.New("shard: partial conversations cannot nest: dataset is already split across shards"))
	}
	var (
		version uint64
		kind    wire.QueryKind
		params  wire.QueryParams
		err     error
	)
	if typ == frames.ProofReqCh {
		version, kind, params, err = frames.DecodeProofReq(body)
	} else {
		kind, params, err = frames.DecodeQuery(body)
	}
	if err != nil {
		return err
	}
	if typ == frames.ProofReqCh {
		if err := engine.CheckPosted(kind); err != nil {
			return p.mux.Refuse(id, err)
		}
	}
	a := p.split
	comb, err := engine.SplitCombiner(field.Mersenne(), a.u, kind, params)
	if err != nil {
		return p.mux.Refuse(id, err)
	}
	// The owners open in the client read loop — mux.Open runs start
	// synchronously, as does the proof path below — so every owner
	// snapshots the batches this connection had acknowledged when the
	// query arrived (see openConvs).
	open := func() (*core.SplitProver, error) {
		return core.NewSplitProver(field.Mersenne(), a.u, comb, func() ([]core.SplitOwner, error) {
			return a.openConvs(kind, params)
		})
	}
	// session is what the mux serves: sp, behind the router's fold liar
	// when one is set.
	session := func(sp *core.SplitProver) core.ProverSession {
		if p.r.foldLie == nil {
			return sp
		}
		return &core.TamperedProver{P: sp, T: p.r.foldLie}
	}
	if typ == frames.QueryCh {
		return p.mux.Open(id, func() (core.ProverSession, error) {
			sp, err := open()
			if err != nil {
				return nil, err
			}
			return session(sp), nil
		})
	}
	sp, err := open()
	if err != nil {
		return err // an owner leg died: connection-fatal, like a lost backend
	}
	// The router records the Fiat–Shamir proof itself: the challenge
	// schedule is a function of the binding alone, so driving the owners
	// with it reproduces the exact bytes a single engine would post — one
	// assembly per (dataset, version, query) in the router's own cache,
	// shared by every requesting connection. sp opens here to learn the
	// version; the recording's Open gets the same opening again.
	p.mux.Proof(id, version, field.Mersenne(), p.r.proofCacheRef(), func() (fs.Binding, core.ProverSession, error) {
		_, err := sp.Open()
		return fs.Binding{
			Modulus:  field.Mersenne().Modulus(),
			Universe: a.u,
			Dataset:  a.name,
			Version:  sp.Version(),
			Query:    engine.FSQuery(kind, params),
		}, session(sp), err
	})
	return nil
}

// ---------------------------------------------------------------------
// Aggregated stats.

// AggregatedStats fans a stats request out to every shard and merges
// the replies: summed counters at the top level, the per-shard
// breakdown (plus the router's own split-proof cache, as "router")
// under Shards.
func (r *Router) AggregatedStats() (wire.ServerStats, error) {
	r.maybeReloadTable()
	r.mu.Lock()
	shards := append([]ShardInfo(nil), r.table.Shards...)
	r.mu.Unlock()
	agg := wire.ServerStats{Shards: make(map[string]wire.ServerStats, len(shards)+1)}
	add := func(name string, st wire.ServerStats) {
		agg.ProofCache.Hits += st.ProofCache.Hits
		agg.ProofCache.Misses += st.ProofCache.Misses
		agg.ProofCache.Evictions += st.ProofCache.Evictions
		agg.ProofCache.Coalesced += st.ProofCache.Coalesced
		agg.ProofCache.Bytes += st.ProofCache.Bytes
		agg.ProofCache.Entries += st.ProofCache.Entries
		agg.DatasetsRecovered += st.DatasetsRecovered
		for _, f := range st.RecoveryFailures {
			agg.RecoveryFailures = append(agg.RecoveryFailures, name+": "+f)
		}
		agg.Shards[name] = st
	}
	for _, s := range shards {
		conn, err := dialBackoff(s.Addr, r.DialRetryBudget)
		if err != nil {
			return wire.ServerStats{}, fmt.Errorf("shard: stats from shard %q: %w", s.Name, err)
		}
		c := wire.NewClient(conn)
		if t := r.IdleTimeout; t > 0 {
			c.Timeout = t
		}
		st, err := c.ServerStats()
		_ = c.Close()
		if err != nil {
			return wire.ServerStats{}, fmt.Errorf("shard: stats from shard %q: %w", s.Name, err)
		}
		add(s.Name, st)
	}
	add("router", wire.ServerStats{ProofCache: r.proofCacheRef().Stats()})
	return agg, nil
}

// statsReply answers a client stats request with the merged fleet view:
// a superset of any one shard's reply, since Shards carries each one.
func (p *proxyConn) statsReply() error {
	st, err := p.r.AggregatedStats()
	if err != nil {
		return err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return p.mux.Write(frames.StatsResp, b)
}
