// The prover service: listener lifecycle and the per-connection read
// loop. Frame legality is delegated to FlowState (seam.go) and byte
// layouts to the frames codec; this file owns policy — admission,
// budgets, dataset lifecycle, and the admin plane (handoff/adopt/stats).
package wire

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/field"
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
	// interactive sessions and posted proofs alike (see proverSnapshot),
	// and costs O(u) per prover, not O(stream): no raw stream is retained
	// anywhere in the server.
	Corrupt func(counts []int64) []int64

	proofCache *proofcache.Cache // lazily built by proofCacheRef; guarded by mu
	mu         sync.Mutex
	lns        map[net.Listener]struct{} // every listener currently being served
	closed     bool
	inited     bool                  // engine configured (budget/data dir/recovery) by Serve
	ownEngine  bool                  // engine was created by this server (Close may close it)
	hooked     bool                  // proof-cache drop hook registered on the engine
	conns      map[net.Conn]struct{} // connections with a live handler
	handlers   sync.WaitGroup        // one per handler goroutine; drained by Close

	recovered     int      // datasets recovered from DataDir at startup
	recoveryFails []string // per-file failures of a partial recovery
}

// Serve accepts connections until the listener closes. Each connection is
// served on its own goroutine. Before accepting, Serve applies the
// server's resource/durability configuration to the engine (MemBudget,
// DataDir with a recovery scan, CheckpointEvery); a failed recovery
// refuses to serve rather than silently dropping datasets. After an
// intentional Close, Serve returns ErrServerClosed rather than the
// listener's "use of closed network connection" error.
func (s *Server) Serve(ln net.Listener) error {
	// As in net/http, Serve on an already-closed server refuses without
	// touching (or registering) the caller's listener — a later Close must
	// not close a listener the server never served.
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrServerClosed
	}
	// Every listener being served is tracked in a set: Serve may be
	// called concurrently on several listeners (sharing one engine), and
	// Close must stop all of them, not just the most recent.
	if s.lns == nil {
		s.lns = make(map[net.Listener]struct{})
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()
	if err := s.engineInit(); err != nil {
		// A Serve that never accepted must not leave the listener
		// registered: per the contract above, a later Close closes only
		// listeners the server actually served.
		s.mu.Lock()
		delete(s.lns, ln)
		s.mu.Unlock()
		return err
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			if !closed {
				// The listener died on its own; it is no longer served,
				// so a later Close must not touch it.
				delete(s.lns, ln)
			}
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			// Close already snapshotted the registry; don't start a
			// handler it would not drain.
			s.mu.Unlock()
			conn.Close()
			return ErrServerClosed
		}
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
		s.handlers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.handlers.Done()
			defer func() {
				conn.Close()
				s.mu.Lock()
				delete(s.conns, conn)
				s.mu.Unlock()
			}()
			if err := s.handle(conn); err != nil && !errors.Is(err, io.EOF) {
				typ := byte(frames.Error)
				if errors.Is(err, engine.ErrBudget) {
					typ = frames.Budget
				}
				_ = s.write(conn, typ, []byte(err.Error()))
			}
		}()
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
	s.mu.Lock()
	s.closed = true
	lns := make([]net.Listener, 0, len(s.lns))
	for ln := range s.lns {
		lns = append(lns, ln)
	}
	s.lns = nil
	eng := s.Engine
	persist := s.ownEngine && s.inited && s.DataDir != ""
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var lnErr error
	for _, ln := range lns {
		lnErr = errors.Join(lnErr, ln.Close())
	}
	// Interrupt handlers blocked on socket reads (a closed conn fails the
	// next read; an in-flight IngestColumns still completes), then wait
	// them all out.
	for _, c := range conns {
		_ = c.Close()
	}
	s.handlers.Wait()
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

// read receives one frame, applying the idle deadline.
func (s *Server) read(conn net.Conn) (byte, []byte, error) {
	if s.IdleTimeout > 0 {
		if err := conn.SetReadDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
			return 0, nil, err
		}
	}
	return frames.ReadFrame(conn)
}

// write sends one frame, applying the idle deadline.
func (s *Server) write(conn net.Conn, typ byte, payload []byte) error {
	if s.IdleTimeout > 0 {
		if err := conn.SetWriteDeadline(time.Now().Add(s.IdleTimeout)); err != nil {
			return err
		}
	}
	return frames.WriteFrame(conn, typ, payload)
}

// handle is one connection's read loop. Frame legality is FlowState's
// (the same machine the shard router runs at its edge); each case body
// owns only the frame's work.
func (s *Server) handle(conn net.Conn) error {
	var flow FlowState
	var ds *engine.Dataset // the attachment; FlowState admits no frame that uses it before an open
	mux := newConnMux(s, conn)
	// Unblock and drain this connection's conversation goroutines before
	// the handler's caller writes any final error frame or closes the
	// socket.
	defer mux.shutdown()
	for {
		typ, payload, err := s.read(conn)
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
			if err := mux.write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
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
			if err := mux.write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
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
			if err := mux.write(frames.OK, frames.EncodeCount(ds.Updates())); err != nil {
				return err
			}
		case frames.QueryCh, frames.ChallengeCh, frames.FinishCh, frames.ProofReqCh, frames.PartialQueryCh:
			if err := mux.dispatch(typ, payload, ds); err != nil {
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
			if err := mux.write(frames.OK, frames.EncodeCount(n)); err != nil {
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
			if err := mux.write(frames.OK, frames.EncodeCount(n)); err != nil {
				return err
			}
		case frames.StatsReq:
			b, err := json.Marshal(s.Stats())
			if err != nil {
				return err
			}
			if err := mux.write(frames.StatsResp, b); err != nil {
				return err
			}
		}
	}
}

// proverSnapshot returns the state a whole-dataset prover for ds is
// built from: snap itself on an honest server; with Corrupt set, a
// standalone snapshot over the hook's rewrite of a clone of snap's
// counts — the dishonest cloud proves from doctored state. It is the
// one place the hook is applied, shared by the interactive sessions
// (mux.go) and the posted proofs (proof.go). Slices are left alone:
// their provers are partials, and the aggregator pins one version
// across slices, so doctoring one would only fail the fold.
func (s *Server) proverSnapshot(ds *engine.Dataset, snap *engine.Snapshot) (*engine.Snapshot, error) {
	if _, _, slice := ds.Slice(); s.Corrupt == nil || slice {
		return snap, nil
	}
	counts := s.Corrupt(append([]int64(nil), snap.Counts()...))
	return engine.SnapshotFromCounts(s.F, ds.UniverseSize(), s.Workers, counts)
}
