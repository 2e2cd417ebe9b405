// The prover service: the per-connection read loop over engine
// datasets. Frame legality is delegated to FlowState, accept/close to
// Lifecycle (seam.go), the prover side of each connection to Mux
// (mux.go) and byte layouts to the frames codec; this file owns policy
// — budgets, dataset lifecycle, which prover answers a query, and the
// admin plane (handoff/adopt/stats).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/proofcache"
	"repro/internal/wire/frames"
)

// Server is the cloud-side prover service. Datasets are maintained
// aggregate state, named and shared through Engine. Provers are
// constructed from snapshots — the stream is ingested once and never
// replayed.
type Server struct {
	F field.Field
	// Workers is handed to every prover the server builds: 0 proves each
	// query serially, n > 0 fans the prover's table scans across n
	// goroutines, n < 0 uses runtime.NumCPU(). Transcripts are identical
	// either way; only latency changes.
	Workers int
	// Engine holds the named datasets the server serves. Leave nil
	// to have the server create one on first use; share one Engine to
	// serve the same datasets from several listeners.
	Engine *engine.Engine
	// IdleTimeout bounds how long the server waits for the next frame
	// from (or write to) a client before abandoning the connection, so a
	// stalled or malicious peer cannot pin a handler goroutine forever.
	// Zero means no deadline.
	IdleTimeout time.Duration
	// MaxUniverse caps the universe size a client may announce with
	// open — a dataset allocates 16 bytes per universe entry up
	// front, so without a cap one cheap frame could exhaust server
	// memory. Zero selects DefaultMaxUniverse.
	MaxUniverse uint64
	// MaxConcurrentQueries caps the multiplexed query conversations in
	// flight per connection. An excess channel open is refused with a
	// per-channel budget frame (the conversation fails typed as
	// ErrBudget client-side; the connection and its other conversations
	// continue). Zero selects DefaultMaxConcurrentQueries; negative
	// means no cap.
	MaxConcurrentQueries int
	// MemBudget caps the engine's aggregate resident dataset memory in
	// bytes (engine.SetBudget). When admission would exceed it, LRU
	// datasets are evicted to DataDir; with no DataDir the open or
	// ingest fails with a budget error frame. Zero means unlimited.
	MemBudget int64
	// DataDir is the checkpoint directory. When set, Serve configures
	// the engine with it and recovers every checkpointed dataset before
	// accepting connections, so a restarted server answers queries over
	// its previous datasets with no re-ingestion.
	DataDir string
	// CheckpointEvery starts the engine's background checkpointer at
	// that interval (requires DataDir): a crash loses at most the last
	// interval of ingestion. Zero disables background checkpointing.
	CheckpointEvery time.Duration
	// ProofCacheBudget caps the bytes of encoded Fiat–Shamir proofs the
	// server keeps for PROOF requests (see proof.go): one proof is
	// generated per (dataset, version, query) and served to every
	// verifier that asks. Zero selects DefaultProofCacheBudget; negative
	// disables storage (requests still single-flight, nothing is kept).
	ProofCacheBudget int64
	// Corrupt, when non-nil, rewrites a clone of the maintained counts
	// before proving — a hook for the dishonest-cloud experiments and
	// tests. It applies to every whole-dataset prover the server builds,
	// interactive sessions and posted proofs alike (snapshotProver), and
	// costs O(u) per prover, not O(stream): no raw stream is retained
	// anywhere in the server.
	Corrupt func(counts []int64) []int64

	life Lifecycle // listeners, live connections, handler drain

	proofCache *proofcache.Cache // lazily built by proofCacheRef; guarded by mu
	mu         sync.Mutex
	inited     bool // engine configured (budget/data dir/recovery) by Serve
	ownEngine  bool // engine was created by this server (Close may close it)
	hooked     bool // proof-cache drop hook registered on the engine

	recovered     int      // datasets recovered from DataDir at startup
	recoveryFails []string // per-file failures of a partial recovery
}

// Serve accepts connections until the listener closes. Each connection is
// served on its own goroutine. Before accepting, Serve applies the
// server's resource/durability configuration to the engine (MemBudget,
// DataDir with a recovery scan, CheckpointEvery); a failed recovery
// refuses to serve rather than silently dropping datasets, and leaves
// the listener unregistered. Serve may run on several listeners at once
// (sharing one engine). After Close, Serve returns ErrServerClosed
// (see Lifecycle.Serve).
func (s *Server) Serve(ln net.Listener) error {
	return s.life.Serve(ln, ErrServerClosed, s.engineInit, s.serveConn)
}

// serveConn runs one connection: the read loop, then — once every
// conversation goroutine has drained — the server's one final typed
// error frame, before the Lifecycle closes the socket.
func (s *Server) serveConn(conn net.Conn) {
	limit := s.MaxConcurrentQueries
	if limit == 0 {
		limit = DefaultMaxConcurrentQueries
	}
	mux := NewMux(conn, s.IdleTimeout, limit)
	err := s.handle(mux)
	mux.Shutdown()
	if err != nil && !errors.Is(err, io.EOF) {
		typ := byte(frames.Error)
		if errors.Is(err, engine.ErrBudget) {
			typ = frames.Budget
		}
		_ = mux.Write(typ, []byte(err.Error()))
	}
}

// engineInit configures the engine once per server: budget, data dir,
// startup recovery of checkpointed datasets, background checkpointing.
// It runs under the server lock, so Serve never accepts before recovery
// finishes, and inited is set only on success — a failed init (say, an
// unwritable data dir) is retried by the next Serve instead of being
// silently skipped.
func (s *Server) engineInit() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inited {
		return nil
	}
	if s.Engine == nil {
		s.Engine = engine.New(s.F, s.Workers)
		s.Engine.SetMaxDatasets(DefaultMaxDatasets)
		s.ownEngine = true
	}
	eng := s.Engine
	s.hookEngineLocked(eng)
	if s.MemBudget > 0 {
		eng.SetBudget(s.MemBudget)
	}
	if s.DataDir != "" {
		if err := eng.SetDataDir(s.DataDir); err != nil {
			return fmt.Errorf("wire: data dir: %w", err)
		}
		n, err := eng.Recover()
		s.recovered = n
		if err != nil {
			if !errors.Is(err, engine.ErrPartialRecovery) {
				// A damaged file must not take the server down (its healthy
				// datasets were still registered — skip semantics); only a
				// scan-level failure refuses to serve.
				return fmt.Errorf("wire: recovering datasets: %w", err)
			}
			// A half-recovered shard must be visible to the operator, not
			// just logged and forgotten: retain each file's failure for
			// Stats() and the startup log.
			s.recoveryFails = recoveryFailures(err)
		}
		if s.CheckpointEvery > 0 {
			if err := eng.StartCheckpointer(s.CheckpointEvery); err != nil && !errors.Is(err, engine.ErrCheckpointerRunning) {
				// Already-running is fine: another listener sharing this
				// engine started it.
				return fmt.Errorf("wire: checkpointer: %w", err)
			}
		}
	}
	s.inited = true
	return nil
}

// hookEngineLocked registers the proof-cache invalidation hook on the
// engine, once: a dropped-and-recreated dataset restarts its version
// counter, so any proof cached under the old life's (name, version,
// query) keys would answer for different data. Caller holds s.mu.
func (s *Server) hookEngineLocked(eng *engine.Engine) {
	if s.hooked {
		return
	}
	s.hooked = true
	eng.OnDrop(func(name string) {
		s.proofCacheRef().DropDataset(name)
	})
}

// recoveryFailures flattens an ErrPartialRecovery chain into one string
// per unrecovered file.
func recoveryFailures(err error) []string {
	var out []string
	var walk func(e error, depth int)
	walk = func(e error, depth int) {
		if e == nil || errors.Is(engine.ErrPartialRecovery, e) || depth > 4 {
			return
		}
		if u, ok := e.(interface{ Unwrap() []error }); ok {
			for _, c := range u.Unwrap() {
				walk(c, depth+1)
			}
			return
		}
		out = append(out, e.Error())
	}
	walk(err, 0)
	return out
}

// Close stops every served listener, closes every live connection, and waits for
// the handler goroutines to drain before any final persistence; a Serve
// in flight (or started later) returns ErrServerClosed. Close is
// idempotent — each served listener is closed at most once. If this
// server created its own engine and configured persistence (DataDir),
// Close then also closes the engine — the background checkpointer stops
// and dirty datasets are persisted one final time. Because the drain
// happens first, no handler can be mid-IngestColumns when that final
// persist runs: every batch folded (and acknowledged) before shutdown
// is captured, making an orderly shutdown genuinely loss-free.
// A caller-supplied Engine is left running (it may be shared with other
// listeners); its owner calls engine.Close — after this Close returns,
// with no handler still folding.
func (s *Server) Close() error {
	// An in-flight IngestColumns still completes before its handler
	// notices the closed socket; the drain waits it out.
	lnErr := s.life.Close()
	s.mu.Lock()
	eng, persist := s.Engine, s.ownEngine && s.inited && s.DataDir != ""
	s.mu.Unlock()
	if persist && eng != nil {
		if err := eng.Close(); err != nil {
			return err
		}
	}
	return lnErr
}

// engineRef returns the shared engine, creating it (with the default
// dataset cap) on first use.
func (s *Server) engineRef() *engine.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.Engine == nil {
		s.Engine = engine.New(s.F, s.Workers)
		s.Engine.SetMaxDatasets(DefaultMaxDatasets)
		s.ownEngine = true
	}
	s.hookEngineLocked(s.Engine)
	return s.Engine
}

// checkUniverse enforces the server's universe-size cap.
func (s *Server) checkUniverse(u uint64) error {
	limit := s.MaxUniverse
	if limit == 0 {
		limit = DefaultMaxUniverse
	}
	if u > limit {
		return fmt.Errorf("%w: universe %d exceeds the server limit %d", ErrProtocol, u, limit)
	}
	return nil
}

// handle is one connection's read loop. Frame legality is FlowState's
// (the same machine the shard router runs at its edge); each case body
// owns only the frame's work.
func (s *Server) handle(mux *Mux) error {
	var flow FlowState
	var ds *engine.Dataset // the attachment; FlowState admits no frame that uses it before an open
	for {
		typ, payload, err := mux.Read()
		if err != nil {
			return err
		}
		if err := flow.Advance(typ); err != nil {
			return err
		}
		switch typ {
		case frames.Open:
			name, uu, err := frames.DecodeOpen(payload)
			if err != nil {
				return err
			}
			if err := s.checkUniverse(uu); err != nil {
				return err
			}
			if ds, err = s.engineRef().Open(name, uu); err != nil {
				return err
			}
			if err := mux.Write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
				return err
			}
		case frames.OpenSlice:
			name, globalU, lo, hi, err := frames.DecodeOpenSlice(payload)
			if err != nil {
				return err
			}
			// The universe cap governs what this server allocates, so it
			// applies to the slice width, not the global universe the slice
			// belongs to — splitting is exactly how a dataset bigger than any
			// one server gets served. Inverted bounds fall through to the
			// engine's geometry validation for the typed refusal.
			if hi > lo {
				if err := s.checkUniverse(hi - lo); err != nil {
					return err
				}
			}
			if ds, err = s.engineRef().OpenSlice(name, globalU, lo, hi); err != nil {
				return err
			}
			if err := mux.Write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
				return err
			}
		case frames.Updates:
			idx, deltas, err := frames.DecodeUpdateColumns(payload)
			if err != nil {
				return err
			}
			if err := ds.IngestColumns(idx, deltas); err != nil {
				return err
			}
			if err := mux.Write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
				return err
			}
		case frames.QueryCh, frames.ChallengeCh, frames.FinishCh, frames.ProofReqCh, frames.PartialQueryCh:
			if err := s.channel(mux, typ, payload, ds); err != nil {
				return err
			}
		case frames.Handoff:
			name, err := frames.DecodeName(payload)
			if err != nil {
				return err
			}
			n, err := s.engineRef().Release(name)
			if err != nil {
				return err
			}
			if err := mux.Write(frames.OK, frames.EncodeCount(n)); err != nil {
				return err
			}
		case frames.Adopt:
			name, err := frames.DecodeName(payload)
			if err != nil {
				return err
			}
			n, err := s.engineRef().Adopt(name)
			if err != nil {
				return err
			}
			if err := mux.Write(frames.OK, frames.EncodeCount(n)); err != nil {
				return err
			}
		case frames.StatsReq:
			b, err := json.Marshal(s.Stats())
			if err != nil {
				return err
			}
			if err := mux.Write(frames.StatsResp, b); err != nil {
				return err
			}
		}
	}
}

// channel serves one channel-scoped frame on the attached dataset.
func (s *Server) channel(mux *Mux, typ byte, payload []byte, ds *engine.Dataset) error {
	id, body, err := ChannelID(payload)
	if err != nil {
		return err
	}
	switch typ {
	case frames.QueryCh, frames.PartialQueryCh:
		kind, params, err := frames.DecodeQuery(body)
		if err != nil {
			return err
		}
		return mux.Open(id, func() (core.ProverSession, error) {
			// The snapshot is taken synchronously so the conversation's view
			// is fixed before the read loop touches the next frame — a query
			// never observes updates its client sent after it. For a resident
			// dataset this is O(1); for an evicted one it is the rehydrate,
			// which stalls this connection's read loop (a deliberate trade:
			// the ordering guarantee over cold-start latency — other
			// connections are unaffected, and the dataset a connection queries
			// is hot by its own use).
			snap, err := ds.SnapshotErr()
			if err != nil {
				return nil, err
			}
			return &snapshotProver{s: s, ds: ds, snap: snap, kind: kind, params: params, partial: typ == frames.PartialQueryCh}, nil
		})
	case frames.ProofReqCh:
		version, kind, params, err := frames.DecodeProofReq(body)
		if err != nil {
			return err
		}
		// Same arrival-order guarantee as a query open: the proof covers
		// exactly the batches acknowledged before the request.
		snap, err := ds.SnapshotErr()
		if err != nil {
			if errors.Is(err, engine.ErrBudget) {
				return mux.Refuse(id, err)
			}
			return err
		}
		sp := &snapshotProver{s: s, ds: ds, snap: snap, kind: kind, params: params}
		mux.Proof(id, version, s.F, s.proofCacheRef(), sp.resolve)
		return nil
	default: // ChallengeCh, FinishCh
		_, err := mux.Route(typ, id, body)
		return err
	}
}

// snapshotProver is the session answering one query over snap, built on
// its first Open: off the read loop, and never for a posted proof the
// cache already holds. It is a slice owner's partial prover when
// partial is set, else the whole-dataset prover. This is the one place
// Corrupt is applied, to interactive sessions and posted proofs alike:
// the dishonest cloud proves from a standalone snapshot over the hook's
// rewrite of a clone of snap's counts. Slices are left alone: their
// provers are partials, and the aggregator pins one version across
// slices, so doctoring one would only fail the fold.
type snapshotProver struct {
	s       *Server
	ds      *engine.Dataset
	snap    *engine.Snapshot
	kind    QueryKind
	params  QueryParams
	partial bool
	// The prover itself, built by Open.
	core.ProverSession
}

func (p *snapshotProver) Open() (msg core.Msg, err error) {
	from := p.snap
	switch _, _, slice := p.ds.Slice(); {
	case p.partial:
		p.ProverSession, err = from.NewPartialProver(p.kind, p.params)
	case p.s.Corrupt != nil && !slice:
		counts := p.s.Corrupt(append([]int64(nil), from.Counts()...))
		if from, err = engine.SnapshotFromCounts(p.s.F, p.ds.UniverseSize(), p.s.Workers, counts); err == nil {
			p.ProverSession, err = from.NewProver(p.kind, p.params)
		}
	default:
		p.ProverSession, err = from.NewProver(p.kind, p.params)
	}
	if err != nil {
		return core.Msg{}, err
	}
	return p.ProverSession.Open()
}

// resolve is the proof path's view of the session (Mux.Proof). The
// binding (and with it the challenge schedule) is always the real
// dataset's, so with Corrupt set the lie is in the data, never in the
// header: a client's binding check passes and only its verifier's own
// fingerprint can catch it.
func (p *snapshotProver) resolve() (fs.Binding, core.ProverSession, error) {
	return p.snap.ProofBinding(p.kind, p.params), p, nil
}
