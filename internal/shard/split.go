// The split-universe path: one dataset too large for a single engine,
// spread as power-of-two slices of its padded universe across several
// shards. Unlike the byte-forwarding routes in router.go, the router is
// a protocol PARTICIPANT here — it attaches to every owner over the
// shard-facing slice calls (wire.OpenDatasetSlice, wire.PartialQuery),
// scatters each ingest batch, and folds the owners' partial-prover
// messages with core.SplitAggregator into the single conversation the
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
// the single-engine version exactly, which is what lets the aggregator
// pin one version across owners and the proof binding carry the same
// version a single engine would.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/lde"
	"repro/internal/stream"
	"repro/internal/sumcheck"
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
func (a *splitAttach) openConvs(kind wire.QueryKind, params wire.QueryParams) ([]*wire.PartialConv, error) {
	owners := a.clients()
	convs := make([]*wire.PartialConv, len(owners))
	for k, c := range owners {
		conv, err := c.PartialQuery(kind, params)
		if err != nil {
			finishConvs(convs)
			return nil, fmt.Errorf("shard: opening partial conversation on slice %d of %q: %w", k, a.name, err)
		}
		convs[k] = conv
	}
	return convs, nil
}

// finishConvs closes every non-nil conversation; idempotent.
func finishConvs(convs []*wire.PartialConv) {
	for _, c := range convs {
		if c != nil {
			_ = c.Finish()
		}
	}
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
	conn, err := dialBackoff(s.Addr, p.r.DialTimeout, p.r.DialRetryBudget)
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

// splitIngest scatters one global updates batch across the owners. A
// non-empty batch is delivered to EVERY owner (empty sub-batches
// included) so slice versions track the global version; a fully-empty
// batch is acked locally, mirroring the engine's no-bump rule for empty
// whole-dataset batches.
func (p *proxyConn) splitIngest(payload []byte) error {
	a := p.split
	idx, deltas, err := frames.DecodeUpdateColumns(payload)
	if err != nil {
		return err
	}
	if len(idx) == 0 {
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
	var total uint64
	for k := 0; k < a.slices; k++ {
		n, err := p.deliverSlice(a, k, subs[k])
		if err != nil {
			return err
		}
		total += n
	}
	a.setCount(total)
	return p.mux.Write(frames.OK, frames.EncodeCount(total))
}

// deliverSlice hands slice k its sub-batch, surviving a concurrent
// slice handoff: a delivery refused mid-migration (the source engine
// released the slice after checkpointing, so the refused batch was not
// applied) is re-sent through a fresh attachment to the slice's new
// home. Three attempts bound a migration storm.
func (p *proxyConn) deliverSlice(a *splitAttach, k int, sub []stream.Update) (uint64, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		if attempt > 0 {
			if err := p.reattachSlice(a, k); err != nil {
				lastErr = err
				continue
			}
		}
		n, err := a.owner(k).IngestBatch(sub)
		if err == nil {
			return n, nil
		}
		lastErr = err
	}
	return 0, fmt.Errorf("shard: delivering batch to slice %d of %q: %w", k, a.name, lastErr)
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
// engine runs, over a session that folds the owners. Only the seam kinds
// split: the engine's kind table refuses any other kind, and
// constructor-rejected parameters, in the engine's own words before any
// owner hears of the query.
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
	a := p.split
	comb, err := engine.SplitCombiner(field.Mersenne(), a.u, kind, params)
	if err != nil {
		return p.mux.Refuse(id, err)
	}
	if typ == frames.QueryCh {
		// Open reads the session only when start succeeds.
		return p.mux.Open(id, func() (core.ProverSession, error) { return a.prover(comb, kind, params) })
	}
	sp, err := a.prover(comb, kind, params)
	if err != nil {
		return err // an owner leg died: connection-fatal, like a lost backend
	}
	// The router records the Fiat–Shamir proof itself: the challenge
	// schedule is a function of the binding alone, so driving the owners
	// with it reproduces the exact bytes a single engine would post — one
	// assembly per (dataset, version, query) in the router's own cache,
	// shared by every requesting connection.
	p.mux.Proof(id, version, field.Mersenne(), p.r.proofCacheRef(), sp.resolve)
	return nil
}

// prover opens one partial conversation per owner for a query and
// returns them as one session. It runs in the client read loop, so
// every owner snapshots the batches this connection had acknowledged
// when the query arrived (see openConvs).
func (a *splitAttach) prover(comb sumcheck.Combiner, kind wire.QueryKind, params wire.QueryParams) (*splitProver, error) {
	convs, err := a.openConvs(kind, params)
	if err != nil {
		return nil, err
	}
	return &splitProver{a: a, comb: comb, kind: kind, params: params, convs: convs}, nil
}

// splitProver presents a split dataset's aggregator and owner
// conversations as the one core.ProverSession a single engine would be
// — to the client's verifier through the mux, to engine.RecordProof for
// a posted proof. Open folds the owners' openings; Close finishes every
// owner conversation, which the mux does however the session ends.
type splitProver struct {
	a      *splitAttach
	comb   sumcheck.Combiner
	kind   wire.QueryKind
	params wire.QueryParams
	convs  []*wire.PartialConv

	agg     *core.SplitAggregator // nil until Open has folded the openings
	opening core.Msg
}

// Open reads every owner's opening and folds them; once folded, Open
// hands the same message over again (the proof path folds to learn the
// version before recording). A version skew (another connection's
// batch landed between our opens) finishes the stale conversations and
// reopens — bounded retries, because under concurrent ingest "the"
// version is whatever one consistent cut says.
func (sp *splitProver) Open() (core.Msg, error) {
	if sp.agg != nil {
		return sp.opening, nil
	}
	for attempt := 0; ; attempt++ {
		parts := make([]core.Msg, len(sp.convs))
		var err error
		for k, conv := range sp.convs {
			if parts[k], err = conv.Msg(); err != nil {
				return core.Msg{}, err
			}
		}
		agg, err := core.NewSplitAggregator(field.Mersenne(), sp.a.u, sp.a.slices, sp.comb, 0)
		if err != nil {
			return core.Msg{}, err
		}
		opening, err := agg.Open(parts)
		if err == nil {
			sp.agg, sp.opening = agg, opening
			return opening, nil
		}
		if !errors.Is(err, core.ErrSplitVersion) || attempt >= 3 {
			return core.Msg{}, err
		}
		finishConvs(sp.convs)
		if sp.convs, err = sp.a.openConvs(sp.kind, sp.params); err != nil {
			return core.Msg{}, err
		}
	}
}

// Step consumes one verifier challenge and emits one folded prover
// message. Broadcast rounds fan the challenge to every owner and collect
// their partials; once the tail starts the owners are done and the
// aggregator folds alone.
func (sp *splitProver) Step(m core.Msg) (core.Msg, error) {
	if len(m.Elems) != 1 {
		return core.Msg{}, fmt.Errorf("%w: challenge carries %d field elements, want 1", wire.ErrProtocol, len(m.Elems))
	}
	if !sp.agg.Broadcast() {
		return sp.agg.Next(m.Elems[0])
	}
	for _, conv := range sp.convs {
		if err := conv.Challenge(m); err != nil {
			return core.Msg{}, err
		}
	}
	parts := make([]core.Msg, len(sp.convs))
	for k, conv := range sp.convs {
		var err error
		if parts[k], err = conv.Msg(); err != nil {
			return core.Msg{}, err
		}
	}
	out, err := sp.agg.Collect(parts)
	if err == nil && sp.agg.TailStarted() {
		finishConvs(sp.convs)
	}
	return out, err
}

// Close finishes every owner conversation; idempotent.
func (sp *splitProver) Close() error {
	finishConvs(sp.convs)
	return nil
}

// resolve is the proof path's view of the session (wire.Mux.Proof): it
// folds the openings and names the binding a single engine holding the
// whole dataset would post the proof under.
func (sp *splitProver) resolve() (fs.Binding, core.ProverSession, error) {
	if _, err := sp.Open(); err != nil {
		return fs.Binding{}, sp, err
	}
	return fs.Binding{
		Modulus:  field.Mersenne().Modulus(),
		Universe: sp.a.u,
		Dataset:  sp.a.name,
		Version:  sp.agg.Version(),
		Query:    engine.FSQuery(sp.kind, sp.params),
	}, sp, nil
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
		conn, err := dialBackoff(s.Addr, r.DialTimeout, r.DialRetryBudget)
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
