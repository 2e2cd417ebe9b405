// Non-interactive replay over the wire: the PROOF frame pair.
//
// A proof request (frames.ProofReqCh) names a query and a dataset version
// (0 = current); the server answers with the posted Fiat–Shamir proof
// for that (dataset, version, query) — generated once, cached in a
// byte-budgeted LRU (internal/proofcache), and served to every verifier
// that asks. k concurrent verifiers of one query cost one prover run:
// the cache single-flights concurrent misses, so fan-out reads are
// cache hits rather than k interactive conversations.
//
// The exchange is one-shot request/response on an ordinary mux channel
// id: no channel state is registered on either side, errors travel as
// the usual per-channel error/budget frames, and the connection's other
// conversations and ingestion continue around it.
package wire

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fs"
	"repro/internal/proofcache"
	"repro/internal/wire/frames"
)

// DefaultProofCacheBudget is the proof-cache byte cap applied when
// Server.ProofCacheBudget is zero. Proofs are O(log u · log n) words, so
// this holds tens of thousands of distinct (version, query) entries.
const DefaultProofCacheBudget = 64 << 20

// ---------------------------------------------------------------------
// Server side

// proofCacheRef returns the shared proof cache, creating it on first
// use.
func (s *Server) proofCacheRef() *proofcache.Cache {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.proofCache == nil {
		budget := s.ProofCacheBudget
		if budget == 0 {
			budget = DefaultProofCacheBudget
		}
		s.proofCache = proofcache.New(budget)
	}
	return s.proofCache
}

// ServerStats is a point-in-time snapshot of the server's operational
// counters. It is the payload of the StatsReq/StatsResp admin exchange
// (JSON-encoded on the wire), so fields must stay JSON-representable.
type ServerStats struct {
	ProofCache proofcache.Stats

	// DatasetsRecovered counts the checkpoints loaded by the startup
	// Recover pass on this server's engine.
	DatasetsRecovered int
	// RecoveryFailures lists the per-file errors from a partial recovery
	// (engine.ErrPartialRecovery): checkpoints that exist on disk but
	// could not be loaded. Empty when recovery was clean.
	RecoveryFailures []string `json:",omitempty"`

	// Shards carries the per-backend breakdown when the stats reply was
	// assembled by an aggregating router rather than a single server: the
	// top-level counters are sums across all backends (plus the router's
	// own split-proof cache, reported as the "router" entry). A plain
	// server never sets it, and clients that predate it ignore the extra
	// JSON field.
	Shards map[string]ServerStats `json:",omitempty"`
}

// Stats returns the server's counters — the proof cache's
// hit/miss/eviction/coalescing accounting plus the startup recovery
// outcome.
func (s *Server) Stats() ServerStats {
	st := ServerStats{ProofCache: s.proofCacheRef().Stats()}
	s.mu.Lock()
	st.DatasetsRecovered = s.recovered
	st.RecoveryFailures = append([]string(nil), s.recoveryFails...)
	s.mu.Unlock()
	return st
}

// proofFetch serves one PROOF request. The snapshot is taken
// synchronously in the read loop — same arrival-order guarantee as a
// query open: the proof covers exactly the batches acknowledged before
// the request. Cache lookup and (on a miss) proof generation then run
// in their own goroutine, so a miss never stalls the connection's other
// traffic.
func (m *connMux) proofFetch(id uint32, body []byte, ds *engine.Dataset) error {
	version, kind, params, err := frames.DecodeProofReq(body)
	if err != nil {
		return err
	}
	snap, err := ds.SnapshotErr()
	if err != nil {
		if errors.Is(err, engine.ErrBudget) {
			return m.write(frames.BudgetCh, frames.EncodeChannel(id, []byte(err.Error())))
		}
		return err
	}
	if version != 0 && version != snap.Version() {
		// The server can only prove the present: earlier versions' counts
		// are gone. A pinned-version request that no longer matches is the
		// client's signal to re-fingerprint.
		return m.write(frames.ErrorCh, frames.EncodeChannel(id, fmt.Appendf(nil,
			"proof version %d is not current (dataset %q is at version %d)", version, ds.Name(), snap.Version())))
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		key := proofcache.Key{
			Dataset: ds.Name(),
			Version: snap.Version(),
			Query:   string(engine.FSQuery(kind, params).Encode()),
		}
		val, err := m.s.proofCacheRef().Get(key, func() ([]byte, error) {
			pf, err := m.s.generateProof(ds, snap, kind, params)
			if err != nil {
				return nil, err
			}
			return pf.Encode(), nil
		})
		if err != nil {
			typ := byte(frames.ErrorCh)
			if errors.Is(err, engine.ErrBudget) {
				typ = frames.BudgetCh
			}
			_ = m.write(typ, frames.EncodeChannel(id, []byte(err.Error())))
			return
		}
		_ = m.write(frames.ProofCh, frames.EncodeChannel(id, val))
	}()
	return nil
}

// generateProof records the proof the server posts for one query over
// snap — what Snapshot.GenerateProof does, except that the prover comes
// from proverSnapshot: the binding (and with it the challenge schedule)
// is always the real dataset's, so with Corrupt set the lie is in the
// data, never in the header; a client's binding check passes and only
// its verifier's own fingerprint can catch it.
func (s *Server) generateProof(ds *engine.Dataset, snap *engine.Snapshot, kind QueryKind, params QueryParams) (*fs.Proof, error) {
	from, err := s.proverSnapshot(ds, snap)
	if err != nil {
		return nil, err
	}
	return engine.RecordProof(s.F, snap.ProofBinding(kind, params), func() (core.ProverSession, error) {
		return from.NewProver(kind, params)
	})
}

// ---------------------------------------------------------------------
// Client side

// FetchProof retrieves the server's posted Fiat–Shamir proof for one
// query. version pins the dataset version the proof must cover (the
// request fails if ingestion has moved past it); 0 accepts the current
// version. The returned proof carries the version it was generated at
// in its binding.
//
// The proof's binding is validated against the request before it is
// returned: dataset name and universe must match the attached dataset,
// the query must be the canonical encoding of (kind, params), a nonzero
// version must be echoed exactly, and — when Client.FieldModulus is set
// — the modulus must match. The challenges a verifier derives from the
// binding are therefore fixed by values the CLIENT chose; a malicious
// server gets no grinding bits from the proof header.
func (c *Client) FetchProof(kind QueryKind, params QueryParams, version uint64) (*fs.Proof, error) {
	if kind == QueryCircuit && len(params.Circuit) > frames.MaxCircuitName {
		return nil, fmt.Errorf("wire: circuit name of %d bytes exceeds %d", len(params.Circuit), frames.MaxCircuitName)
	}
	dsName, dsU, err := c.attachment("FetchProof")
	if err != nil {
		return nil, err
	}
	h, err := c.newHandle(nil)
	if err != nil {
		return nil, err
	}
	defer c.unregister(h.id)
	if err := c.write(frames.ProofReqCh, frames.EncodeChannel(h.id, frames.EncodeProofReq(version, kind, params))); err != nil {
		return nil, err
	}
	fr, err := h.frame()
	if err != nil {
		return nil, err
	}
	switch fr.typ {
	case frames.ProofCh:
		pf, err := fs.DecodeProof(fr.payload)
		if err != nil {
			return nil, err
		}
		if err := checkProofBinding(pf, c.FieldModulus, dsName, dsU, version, kind, params); err != nil {
			return nil, err
		}
		return pf, nil
	case frames.BudgetCh:
		return nil, &BudgetError{Msg: string(fr.payload)}
	case frames.ErrorCh:
		return nil, &ServerError{Msg: string(fr.payload)}
	default:
		return nil, fmt.Errorf("%w: unexpected frame 0x%02x", ErrProtocol, fr.typ)
	}
}

// checkProofBinding rejects a fetched proof whose binding does not match
// the request it answers. Every field feeding the challenge derivation
// is pinned to a client-chosen value: dataset and universe from
// OpenDataset, the query from the request, the version when the caller
// pinned one, and the modulus when the client declared its field. Only
// an unpinned version (and, if FieldModulus is zero, the modulus) is
// accepted from the server.
func checkProofBinding(pf *fs.Proof, modulus uint64, dsName string, dsU, version uint64,
	kind QueryKind, params QueryParams) error {
	want := fs.Binding{
		Modulus:  pf.Modulus,
		Universe: dsU,
		Dataset:  dsName,
		Version:  pf.Version,
		Query:    engine.FSQuery(kind, params),
	}
	if modulus != 0 {
		want.Modulus = modulus
	}
	if version != 0 {
		want.Version = version
	}
	if pf.Binding != want {
		return fmt.Errorf("%w: proof binding (modulus %d, universe %d, dataset %q, version %d, query kind %d) does not answer the request (modulus %d, universe %d, dataset %q, version %d, query kind %d)",
			ErrProtocol, pf.Modulus, pf.Binding.Universe, pf.Dataset, pf.Version, pf.Query.Kind,
			want.Modulus, want.Universe, want.Dataset, want.Version, want.Query.Kind)
	}
	return nil
}

// QueryCached runs one query non-interactively: fetch the posted proof
// (version as in FetchProof), build a verifier from the proof's binding
// via mkVerifier, and verify the recorded conversation offline —
// results are then read from the concrete verifier session, exactly as
// after an interactive Query.
//
// mkVerifier must return a verifier constructed with binding.RNG()
// whose streamed fingerprint covers the client's own view of the data
// (engine.NewStreamVerifier plus replaying the client's held updates):
// acceptance then certifies the server's answer against the client's
// fingerprint at that version, with no interaction and no per-verifier
// prover work on the server.
func (c *Client) QueryCached(kind QueryKind, params QueryParams, version uint64,
	mkVerifier func(fs.Binding) (core.VerifierSession, error)) (*fs.Proof, core.Stats, error) {
	pf, err := c.FetchProof(kind, params, version)
	if err != nil {
		return nil, core.Stats{}, err
	}
	v, err := mkVerifier(pf.Binding)
	if err != nil {
		return nil, core.Stats{}, err
	}
	var st core.Stats
	for _, msg := range pf.Messages {
		st.Rounds++
		st.WordsToVerifier += msg.Words()
	}
	if err := pf.Binding.Verify(pf, v); err != nil {
		return pf, st, err
	}
	return pf, st, nil
}
