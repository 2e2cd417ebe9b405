// The split-universe path: one dataset too large for a single engine,
// spread as power-of-two slices of its padded universe across several
// shards. Unlike the byte-forwarding routes in router.go, the router is
// a protocol PARTICIPANT here — it attaches to every owner over the
// shard-facing slice calls (wire.OpenDatasetSlice, wire.PartialQuery),
// scatters each ingest batch, and folds the owners' partial-prover
// messages with core.SplitAggregator into the single conversation the
// client sees. The client-facing protocol is unchanged: sip.Client and
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
	"repro/internal/proofcache"
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

// splitConv is a live split conversation's pin owner: the read loop
// feeds client challenges into ch, and done tells the conversation
// goroutine the client finished (or abandoned) the channel.
type splitConv struct {
	ch   chan core.Msg
	done chan struct{}
	once sync.Once
}

func (sc *splitConv) finish() { sc.once.Do(func() { close(sc.done) }) }

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
	return p.writeClient(frames.OK, frames.EncodeCount(total))
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
		return p.writeClient(frames.OK, frames.EncodeCount(a.total()))
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
	return p.writeClient(frames.OK, frames.EncodeCount(total))
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

// refuseTyped fails one channel with the typed per-channel frame the
// server would use: a budget refusal stays a budget refusal, and an
// owner's own refusal is relayed in the owner's words (a
// *wire.BudgetError's text already is) — the client then reads what a
// single engine would have told it.
func (p *proxyConn) refuseTyped(id uint32, err error) error {
	typ, text := byte(frames.ErrorCh), err.Error()
	if errors.Is(err, wire.ErrBudget) {
		typ = frames.BudgetCh
	} else if srv, ok := err.(*wire.ServerError); ok {
		text = srv.Msg
	}
	return p.writeClient(typ, frames.EncodeChannel(id, []byte(text)))
}

// refuseChannel refuses a channel that was never opened, tombstoning
// the id so the one in-flight client frame lock-step permits is
// absorbed rather than fatal.
func (p *proxyConn) refuseChannel(id uint32, err error) error {
	p.pins.Retire(id, nil, true)
	return p.refuseTyped(id, err)
}

// splitQuery starts one interactive split conversation: the owner
// conversations open synchronously in the read loop (frame-arrival
// order pins the snapshot set), then a goroutine drives the fold.
func (p *proxyConn) splitQuery(id uint32, payload []byte) error {
	a := p.split
	_, body, err := frames.DecodeChannel(payload)
	if err != nil {
		return err
	}
	kind, params, err := frames.DecodeQuery(body)
	if err != nil {
		return err
	}
	comb, err := engine.SplitCombiner(field.Mersenne(), a.u, kind, params)
	if err != nil {
		return p.refuseChannel(id, err)
	}
	convs, err := a.openConvs(kind, params)
	if err != nil {
		return err // an owner leg died: connection-fatal, like a lost backend
	}
	sc := &splitConv{ch: make(chan core.Msg, 4), done: make(chan struct{})}
	if _, err := p.pins.Open(id, sc, 0); err != nil {
		finishConvs(convs)
		return err
	}
	p.pumps.Add(1)
	go p.runSplitConv(id, sc, a, comb, kind, params, convs)
	return nil
}

// splitProver presents a split dataset's aggregator and owner
// conversations as the one core.ProverSession a single engine would be
// — to the client's verifier in an interactive conversation, to
// fs.Binding.Record for a posted proof. foldOpenings builds it with the
// openings already folded, so Open only hands that message over.
type splitProver struct {
	agg     *core.SplitAggregator
	opening core.Msg
	convs   []*wire.PartialConv
}

// foldOpenings reads every owner's opening and folds them. A version
// skew (another connection's batch landed between our opens) finishes
// the stale conversations and reopens — bounded retries, because under
// concurrent ingest "the" version is whatever one consistent cut says.
// On error every owner conversation has been finished.
func (p *proxyConn) foldOpenings(a *splitAttach, comb sumcheck.Combiner, kind wire.QueryKind, params wire.QueryParams, convs []*wire.PartialConv) (*splitProver, error) {
	f := field.Mersenne()
	for attempt := 0; ; attempt++ {
		parts := make([]core.Msg, len(convs))
		var err error
		for k, conv := range convs {
			if parts[k], err = conv.Msg(); err != nil {
				finishConvs(convs)
				return nil, err
			}
		}
		agg, err := core.NewSplitAggregator(f, a.u, a.slices, comb, 0)
		if err != nil {
			finishConvs(convs)
			return nil, err
		}
		opening, err := agg.Open(parts)
		if err == nil {
			return &splitProver{agg: agg, opening: opening, convs: convs}, nil
		}
		finishConvs(convs)
		if !errors.Is(err, core.ErrSplitVersion) || attempt >= 3 {
			return nil, err
		}
		if convs, err = a.openConvs(kind, params); err != nil {
			return nil, err
		}
	}
}

func (sp *splitProver) Open() (core.Msg, error) { return sp.opening, nil }

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

// errSplitFinished ends a split conversation the client walked away
// from (or whose proxy connection is closing): quiet teardown, exactly
// as the server treats an early finish.
var errSplitFinished = errors.New("shard: split conversation finished by the client")

// runSplitConv is the conversation goroutine for one interactive split
// query: it plays the server's side of the mux conversation against the
// client while folding the owners underneath.
func (p *proxyConn) runSplitConv(id uint32, sc *splitConv, a *splitAttach, comb sumcheck.Combiner, kind wire.QueryKind, params wire.QueryParams, convs []*wire.PartialConv) {
	defer p.pumps.Done()
	sp, err := p.foldOpenings(a, comb, kind, params, convs)
	if err == nil {
		err = p.converse(id, sc, sp)
		finishConvs(sp.convs)
	}
	switch {
	case err == nil:
		// Conversation complete: wait for the client's finish frame (routed
		// to sc by the read loop) before retiring the pin.
		select {
		case <-sc.done:
		case <-p.closing:
		}
		p.pins.Retire(id, sc, false)
	case errors.Is(err, errSplitFinished):
		p.pins.Retire(id, sc, false)
	default:
		p.pins.Retire(id, sc, true)
		sc.finish()
		_ = p.refuseTyped(id, err)
	}
}

// converse sends sp's messages to the client, one per challenge the
// read loop feeds into sc, until the aggregator has emitted them all.
func (p *proxyConn) converse(id uint32, sc *splitConv, sp *splitProver) error {
	m := sp.opening
	for {
		if err := p.writeClient(frames.ProverCh, frames.EncodeChannel(id, frames.EncodeMsg(m))); err != nil {
			return err
		}
		if sp.agg.Done() {
			return nil
		}
		select {
		case m = <-sc.ch:
		case <-sc.done:
			return errSplitFinished
		case <-p.closing:
			return errSplitFinished
		}
		var err error
		if m, err = sp.Step(m); err != nil {
			return err
		}
	}
}

// splitProofReq serves one PROOF request against a split dataset. The
// router records the Fiat–Shamir proof itself: the challenge schedule is
// a function of the binding alone (StreamVerifier.Challenges), so
// driving the owners with it through fs.Binding.Record reproduces the
// exact bytes a single engine's GenerateProof would cache.
func (p *proxyConn) splitProofReq(payload []byte) error {
	a := p.split
	id, body, err := frames.DecodeChannel(payload)
	if err != nil {
		return err
	}
	reqVersion, kind, params, err := frames.DecodeProofReq(body)
	if err != nil {
		return err
	}
	comb, err := engine.SplitCombiner(field.Mersenne(), a.u, kind, params)
	if err != nil {
		return p.refuseChannel(id, err)
	}
	convs, err := a.openConvs(kind, params)
	if err != nil {
		return err
	}
	p.pumps.Add(1)
	go p.runSplitProof(id, a, comb, kind, params, reqVersion, convs)
	return nil
}

// runSplitProof folds the owners into an encoded proof, through the
// router's proof cache: one assembly per (dataset, version, query),
// shared by every requesting connection.
func (p *proxyConn) runSplitProof(id uint32, a *splitAttach, comb sumcheck.Combiner, kind wire.QueryKind, params wire.QueryParams, reqVersion uint64, convs []*wire.PartialConv) {
	defer p.pumps.Done()
	sp, err := p.foldOpenings(a, comb, kind, params, convs)
	if err != nil {
		_ = p.refuseTyped(id, err)
		return
	}
	// On a cache hit the owner conversations were opened and never
	// driven past their openings; Finish is idempotent either way.
	defer finishConvs(sp.convs)
	version := sp.agg.Version()
	if reqVersion != 0 && reqVersion != version {
		// The server's version-pin refusal, verbatim.
		_ = p.writeClient(frames.ErrorCh, frames.EncodeChannel(id, fmt.Appendf(nil,
			"proof version %d is not current (dataset %q is at version %d)", reqVersion, a.name, version)))
		return
	}
	f := field.Mersenne()
	binding := fs.Binding{
		Modulus:  f.Modulus(),
		Universe: a.u,
		Dataset:  a.name,
		Version:  version,
		Query:    engine.FSQuery(kind, params),
	}
	key := proofcache.Key{Dataset: a.name, Version: version, Query: string(binding.Query.Encode())}
	val, err := p.r.proofCacheRef().Get(key, func() ([]byte, error) {
		pf, err := engine.RecordProof(f, binding, func() (core.ProverSession, error) { return sp, nil })
		if err != nil {
			return nil, err
		}
		return pf.Encode(), nil
	})
	if err != nil {
		_ = p.refuseTyped(id, err)
		return
	}
	_ = p.writeClient(frames.ProofCh, frames.EncodeChannel(id, val))
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

// aggregatedStatsReply answers a client stats request with the merged
// fleet view (Router.AggregateStats mode).
func (p *proxyConn) aggregatedStatsReply() error {
	st, err := p.r.AggregatedStats()
	if err != nil {
		return err
	}
	b, err := json.Marshal(st)
	if err != nil {
		return err
	}
	return p.writeClient(frames.StatsResp, b)
}
