// Package sip is the public API of this repository: streaming interactive
// proofs for outsourced data, reproducing Cormode, Thaler & Yi,
// "Verifying Computations with Streaming Interactive Proofs" (VLDB 2011).
//
// The model: a space-limited verifier (the data owner) and an untrusted
// prover (the cloud) both observe a stream of (index, delta) updates to an
// implicit vector a of length u. The verifier keeps only O(log u) words.
// After the stream, the two run a short interactive protocol through which
// the prover convinces the verifier of the exact answer to a query that
// would require Ω(u) space to answer unaided. A correct prover is always
// accepted; any cheating prover is rejected except with probability
// ~log(u)/p (≈10⁻¹⁶ for the default field, p = 2⁶¹−1).
//
// Supported queries (paper section in parentheses):
//
//	SELF-JOIN SIZE / F2, frequency moments Fk   (§3.1, §3.2)
//	INNER PRODUCT / join size, RANGE-SUM        (§3.2)
//	SUB-VECTOR, RANGE QUERY, INDEX, DICTIONARY,
//	PREDECESSOR, SUCCESSOR                      (§4)
//	HEAVY HITTERS, k-LARGEST                    (§6.1)
//	F0, inverse distribution, Fmax              (§6.2)
//	CIRCUIT: GKR over layered arithmetic
//	circuits — F2 cross-check, COUNT,
//	MATMUL (verified matrix product)            (§3 Remarks, Thm. 3, App. A)
//
// Typical use:
//
//	proto, _ := sip.NewSelfJoinSize(sip.Mersenne(), 1<<20)
//	proto.Workers = -1            // prover uses every core (optional)
//	v := proto.NewVerifier(rng)   // data owner: O(log u) space
//	p := proto.NewProver()        // cloud: stores the data
//	for _, up := range updates {
//	    v.Observe(up)
//	    p.Observe(up)
//	}
//	stats, err := sip.Run(p, v)   // interactive verification
//	f2, _ := v.Result()
//
// # Parallel proving
//
// The prover is the expensive party (Θ(u log u)-ish field work for the
// multi-round protocols, Θ(u^{3/2}) one-round), and its table scans are
// embarrassingly parallel. Every protocol struct carries a Workers field:
// 0 (default) proves serially, n > 0 fans each scan out across n
// goroutines, and -1 selects runtime.NumCPU(). Because all arithmetic is
// exact field arithmetic combined in deterministic chunk order, the
// transcript — every message, every claim — is bit-identical for every
// worker count; only wall-clock time changes. The verifier's costs are
// already logarithmic and are unaffected.
//
// # Persistent datasets: ingest once, prove many
//
// The session API above rebuilds prover state per conversation. A
// Dataset instead maintains that state across queries — the paper's
// actual deployment, where the cloud holds the data and answers a whole
// workload over it:
//
//	ds, _ := sip.NewDataset(sip.Mersenne(), 1<<20, -1)
//	ds.Ingest(batch)                        // once per batch, not per query
//	snap := ds.Snapshot()                   // O(1), immutable view
//	p, _ := snap.NewProver(sip.QuerySelfJoinSize, sip.QueryParams{})
//	stats, err := sip.Run(p, v)             // v observed the same stream
//
// Every later query skips the Θ(stream) rebuild: provers are constructed
// from the maintained tables with transcripts bit-identical to the
// streaming path. Ingestion can continue between queries — snapshots are
// copy-on-write, so in-flight conversations never observe a torn state.
// An Engine names datasets so many connections (see internal/wire's v2
// protocol, cmd/sipserver and cmd/sipclient) share them.
//
// Over the wire, conversations are multiplexed: each query runs on its
// own channel of the connection in its own server goroutine against its
// own snapshot (wire.Client.QueryAsync, or plain Query from many
// goroutines), so one slow proof never serializes the cheap ones and
// ingestion keeps flowing between conversation frames —
// examples/concurrentqueries and sipclient -concurrency demonstrate
// the regime, and transcripts stay bit-identical to serial runs.
//
// # Durability and memory governance
//
// The prover carries the O(u) state in this protocol family, so a
// long-lived multi-tenant engine must govern that state explicitly. An
// Engine can be given a data directory and a memory budget:
//
//	eng := sip.NewEngine(sip.Mersenne(), -1)
//	eng.SetDataDir("/var/lib/sip")      // enables checkpoints + eviction
//	eng.SetBudget(1 << 30)              // Σ resident table bytes across datasets
//	eng.StartCheckpointer(30 * time.Second)
//	defer eng.Close()                   // stop + final flush: loss-free shutdown
//	n, _ := eng.Recover()               // after a restart: reload every dataset
//
// Admission control at Open (and at rehydration) keeps resident tables
// under the budget by evicting least-recently-used datasets: each one
// checkpoints to the data dir (a versioned, checksummed, atomically
// renamed file), frees its tables, and rehydrates transparently on its
// next use — query transcripts are bit-identical across an
// evict/rehydrate cycle. When eviction cannot make room, admission
// fails with ErrBudget. Persist checkpoints dirty datasets on demand;
// StartCheckpointer does it on an interval, bounding crash loss to that
// interval; Recover rebuilds the registry from the data dir after a
// restart, so no stream is ever re-ingested.
//
// Every dataset carries its own residency latch, so the checkpoint I/O
// of one dataset's eviction or rehydration never blocks operations on
// any other — a fleet of datasets thrashing through a tight budget
// overlaps its transitions instead of queueing them behind one lock.
//
// For production the verifier's randomness must come from
// sip.NewCryptoRNG(); deterministic seeds are for tests and experiments.
package sip

import (
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/gkr"
	"repro/internal/stream"
)

// Field is a prime field Z_p; all protocol checks are Schwartz–Zippel
// identity tests over it.
type Field = field.Field

// Elem is a field element.
type Elem = field.Elem

// RNG is the verifier's randomness source.
type RNG = field.RNG

// Update is one stream element: a_Index += Delta.
type Update = stream.Update

// KVPair is a key–value association for dictionary-style workloads.
type KVPair = stream.KVPair

// Stats is the cost accounting of one protocol run (rounds and words).
type Stats = core.Stats

// Msg is a protocol message (exposed for custom transports).
type Msg = core.Msg

// ProverSession and VerifierSession are the conversation state machines;
// all protocols implement them, and custom transports drive them.
type (
	ProverSession   = core.ProverSession
	VerifierSession = core.VerifierSession
)

// Entry is a reported sub-vector entry.
type Entry = core.Entry

// HeavyHitter is a verified heavy item.
type HeavyHitter = core.HeavyHitter

// Tamperer mutates prover messages (for robustness experiments).
type Tamperer = core.Tamperer

// TamperedProver wraps a prover session with a Tamperer.
type TamperedProver = core.TamperedProver

// ErrRejected is returned (wrapped) whenever a verifier refuses a proof.
var ErrRejected = core.ErrRejected

// ErrBudget is returned (wrapped) when admitting a dataset's tables
// would exceed the engine's memory budget (Engine.SetBudget) and
// evicting least-recently-used datasets could not make room.
var ErrBudget = engine.ErrBudget

// Mersenne returns the default field Z_p with p = 2^61 - 1, the modulus
// used throughout the paper's experiments.
func Mersenne() Field { return field.Mersenne() }

// NewField returns Z_p for a caller-chosen prime p < 2^62.
func NewField(p uint64) (Field, error) { return field.New(p) }

// FieldForUniverse returns a field with u ≤ p ≤ 2u (the paper's minimal
// parameterization via Bertrand's postulate).
func FieldForUniverse(u uint64) (Field, error) { return field.ForUniverse(u) }

// NewSeededRNG returns a deterministic generator for reproducible
// experiments. Do not use for real verification.
func NewSeededRNG(seed uint64) RNG { return field.NewSplitMix64(seed) }

// NewCryptoRNG returns a cryptographically secure generator; protocol
// soundness against a real adversary requires it.
func NewCryptoRNG() RNG { return field.CryptoRNG{} }

// Run drives a complete local conversation between a prover and a
// verifier session. A nil error means the verifier accepted.
func Run(p ProverSession, v VerifierSession) (Stats, error) { return core.Run(p, v) }

// ---------------------------------------------------------------------
// Persistent dataset engine

// Engine is a registry of named datasets — the multi-tenant state of a
// prover service.
type Engine = engine.Engine

// Dataset is a persistently maintained frequency vector: ingest updates
// once, construct provers for any number of queries from snapshots.
type Dataset = engine.Dataset

// Snapshot is an immutable view of a dataset at one ingestion epoch.
type Snapshot = engine.Snapshot

// QueryKind selects which query a snapshot prover answers.
type QueryKind = engine.QueryKind

// QueryParams carries the per-kind query parameters.
type QueryParams = engine.QueryParams

// The query kinds a dataset answers.
const (
	QuerySelfJoinSize = engine.QuerySelfJoinSize
	QueryFk           = engine.QueryFk
	QueryRangeSum     = engine.QueryRangeSum
	QueryRangeQuery   = engine.QueryRangeQuery
	QueryIndex        = engine.QueryIndex
	QueryDictionary   = engine.QueryDictionary
	QueryPredecessor  = engine.QueryPredecessor
	QuerySuccessor    = engine.QuerySuccessor
	QueryKLargest     = engine.QueryKLargest
	QueryHeavyHitters = engine.QueryHeavyHitters
	QueryF0           = engine.QueryF0
	QueryFmax         = engine.QueryFmax
	QueryCircuit      = engine.QueryCircuit
)

// ---------------------------------------------------------------------
// Non-interactive replay (Fiat–Shamir proof cache)
//
// Interactive conversations cost the server one prover run per
// verifier. The replay layer instead posts ONE proof per
// (dataset, version, query): the verifier's challenges are derived
// deterministically from a transcript hash over the proof's binding
// (field modulus, universe, dataset name, dataset version, query), so
// any client that agrees on the binding re-derives the same challenges,
// replays the recorded conversation through its own verifier session,
// and accepts or rejects offline. The wire server caches these proofs
// (wire.Server.ProofCacheBudget, internal/proofcache) and serves k
// concurrent verifiers of one query with one prover run
// (wire.Client.FetchProof / QueryCached, sipclient -cached). See
// DESIGN.md, "Transcript-hash schedule", for the absorption order and
// the soundness model.
//
// SOUNDNESS CAVEAT — data must be committed first. The streaming
// verifier samples all of its randomness up front, so the Fiat–Shamir
// challenges here depend only on the public binding, not on the data or
// the prover's messages, and the dataset version is a predictable
// counter. A party that can choose what to ingest AFTER computing the
// next version's challenge point could craft data that fools that
// point. Replay proofs are therefore sound only in the model where
// ingestion is committed before the proof at that version exists — the
// engine enforces the version bump on ingest, but nothing in this API
// can verify that the data itself was not chosen adversarially against
// a precomputed challenge. Deployments where the data source is
// untrusted should keep using interactive queries with a secret
// CryptoRNG (Query/NewQueryVerifier), whose challenges the prover never
// learns in advance.

// Proof is one recorded Fiat–Shamir conversation: binding, prover
// messages, transcript digest.
type Proof = fs.Proof

// ProofBinding names what a proof commits to; both ends derive the
// verifier's challenge randomness from it (ProofBinding.RNG).
type ProofBinding = fs.Binding

// ProofQuery is the canonical query descriptor inside a binding.
type ProofQuery = fs.Query

// StreamVerifier is a verifier session that also observes stream
// updates — what a client keeps for offline proof verification. Its
// Challenges method returns every message it will send, fixed by the
// RNG it was built with: the schedule a proof generator (an engine, or
// a router folding a split dataset) records the prover against, with no
// verifier in the loop. The client's own StreamVerifier is the check.
type StreamVerifier = engine.StreamVerifier

// NewQueryVerifier returns the streaming verifier session for one query
// kind over [0, u) with no observed state. For offline verification,
// build it with the proof binding's RNG, Observe your own copy of the
// stream, then call VerifyProof.
func NewQueryVerifier(f Field, u uint64, kind QueryKind, params QueryParams, rng RNG) (StreamVerifier, error) {
	return engine.NewStreamVerifier(f, u, kind, params, rng)
}

// DecodeProof parses an encoded proof, rejecting malformed input.
func DecodeProof(b []byte) (*Proof, error) { return fs.DecodeProof(b) }

// VerifyProof replays a posted proof against v, which must have been
// built from pf.Binding.RNG() and observed the client's own view of the
// stream. A nil error certifies the recorded answer against the
// client's fingerprint at the proof's dataset version; any flipped bit
// in the proof fails.
func VerifyProof(pf *Proof, v VerifierSession) error { return pf.Binding.Verify(pf, v) }

// ---------------------------------------------------------------------
// GKR / circuit workload (Theorem 3, Appendix A)
//
// The CIRCUIT query runs the paper's general-purpose construction: any
// layered arithmetic circuit over the dataset's frequency vector,
// verified layer by layer with a streaming verifier that keeps O(log u)
// words per layer. Circuits come from a registry of named families;
// select one by name (and optional argument) in QueryParams.Circuit /
// QueryParams.A — locally via Snapshot.NewProver, or over the wire where
// the name travels in the query frame.

// CircuitSpec names a circuit family and its argument (for MATMUL, the
// matrix dimension n; 0 selects a default spanning the universe).
type CircuitSpec = circuit.Spec

// The built-in circuit families.
const (
	CircuitF2     = circuit.FamilyF2     // Σ a_i² via squaring + sum tree (cross-checks the native F2 protocol)
	CircuitCount  = circuit.FamilyCount  // Σ a_i via a binary add tree
	CircuitMatMul = circuit.FamilyMatMul // C = A·A for the n×n matrix read row-major from the vector
)

// CircuitFamilies lists the registered circuit family names, sorted.
func CircuitFamilies() []string { return circuit.Families() }

// ErrUnknownCircuit is returned (wrapped) when a CircuitSpec names no
// registered family.
var ErrUnknownCircuit = circuit.ErrUnknownFamily

// CircuitVerifier is the verifier session for a CIRCUIT query: observe
// the stream, then drive it against a prover with Run (or hand it to
// the wire client). After acceptance, Outputs returns the verified
// output vector of the circuit.
type CircuitVerifier = gkr.VerifierSession

// NewCircuitVerifier returns the streaming verifier for one circuit
// family over [0, u). It keeps O(log² u) words and must observe the
// same stream as the dataset it queries.
func NewCircuitVerifier(f Field, spec CircuitSpec, u uint64, rng RNG) (*CircuitVerifier, error) {
	return gkr.NewVerifierFor(f, spec, u, rng)
}

// NewEngine returns an empty dataset registry. workers is the prover
// fan-out handed to every dataset (0 serial, -1 all cores). The engine
// starts memory-only and unbudgeted; see Engine.SetDataDir,
// Engine.SetBudget, Engine.Persist, Engine.StartCheckpointer,
// Engine.Recover, and Engine.Close for durability and governance.
func NewEngine(f Field, workers int) *Engine { return engine.New(f, workers) }

// NewDataset returns a standalone dataset over a universe of size ≥ u.
func NewDataset(f Field, u uint64, workers int) (*Dataset, error) {
	return engine.NewDataset(f, u, workers)
}

// ---------------------------------------------------------------------
// Protocol constructors (aliases into internal/core)

// Fk is the frequency-moment protocol (F2 = SELF-JOIN SIZE).
type Fk = core.Fk

// InnerProduct is the two-stream join-size protocol.
type InnerProduct = core.InnerProduct

// RangeSum is the keyed range-aggregation protocol.
type RangeSum = core.RangeSum

// SubVector is the reporting-query workhorse (RANGE QUERY et al.).
type SubVector = core.SubVector

// Index, Dictionary, Predecessor, Successor and KLargest specialize
// SubVector per §4.2 and §6.1.
type (
	Index       = core.Index
	Dictionary  = core.Dictionary
	Predecessor = core.Predecessor
	Successor   = core.Successor
	KLargest    = core.KLargest
)

// HeavyHitters is the §6.1 protocol.
type HeavyHitters = core.HeavyHitters

// FrequencyBased is the §6.2 protocol family; Fmax composes it with an
// INDEX witness.
type (
	FrequencyBased = core.FrequencyBased
	Fmax           = core.Fmax
)

// NewSelfJoinSize returns the SELF-JOIN SIZE (F2) protocol over [0, u).
func NewSelfJoinSize(f Field, u uint64) (*Fk, error) { return core.NewSelfJoinSize(f, u) }

// NewFk returns the k-th frequency moment protocol over [0, u).
func NewFk(f Field, u uint64, k int) (*Fk, error) { return core.NewFk(f, u, k) }

// NewInnerProduct returns the INNER PRODUCT protocol over [0, u).
func NewInnerProduct(f Field, u uint64) (*InnerProduct, error) { return core.NewInnerProduct(f, u) }

// NewRangeSum returns the RANGE-SUM protocol over [0, u).
func NewRangeSum(f Field, u uint64) (*RangeSum, error) { return core.NewRangeSum(f, u) }

// NewSubVector returns the SUB-VECTOR protocol over [0, u).
func NewSubVector(f Field, u uint64) (*SubVector, error) { return core.NewSubVector(f, u) }

// NewRangeQuery returns the RANGE QUERY protocol over [0, u).
func NewRangeQuery(f Field, u uint64) (*SubVector, error) { return core.NewRangeQuery(f, u) }

// NewIndex returns the INDEX protocol over [0, u).
func NewIndex(f Field, u uint64) (*Index, error) { return core.NewIndex(f, u) }

// NewDictionary returns the verified key-value store protocol over [0, u).
func NewDictionary(f Field, u uint64) (*Dictionary, error) { return core.NewDictionary(f, u) }

// NewPredecessor returns the PREDECESSOR protocol over [0, u).
func NewPredecessor(f Field, u uint64) (*Predecessor, error) { return core.NewPredecessor(f, u) }

// NewSuccessor returns the SUCCESSOR protocol over [0, u).
func NewSuccessor(f Field, u uint64) (*Successor, error) { return core.NewSuccessor(f, u) }

// NewKLargest returns the k-th largest protocol over [0, u).
func NewKLargest(f Field, u uint64) (*KLargest, error) { return core.NewKLargest(f, u) }

// NewHeavyHitters returns the φ-heavy-hitters protocol over [0, u).
func NewHeavyHitters(f Field, u uint64) (*HeavyHitters, error) { return core.NewHeavyHitters(f, u) }

// NewF0 returns the distinct-count protocol over [0, u); phi = 0 selects
// the paper's default φ = u^{-1/2}.
func NewF0(f Field, u uint64, phi float64) (*FrequencyBased, error) { return core.NewF0(f, u, phi) }

// NewInverseDistribution returns the "how many items occur exactly k
// times" protocol over [0, u).
func NewInverseDistribution(f Field, u uint64, phi float64, k int64) (*FrequencyBased, error) {
	return core.NewInverseDistribution(f, u, phi, k)
}

// NewFrequencyBased returns the generic Σ h(a_i) protocol over [0, u).
func NewFrequencyBased(f Field, u uint64, phi float64, h func(int64) Elem) (*FrequencyBased, error) {
	return core.NewFrequencyBased(f, u, phi, h)
}

// NewFmax returns the maximum-frequency protocol over [0, u).
func NewFmax(f Field, u uint64, phi float64) (*Fmax, error) { return core.NewFmax(f, u, phi) }

// MultiFk is the §7 "Multiple Queries" direct-sum batch: several
// frequency-moment queries verified in one conversation sharing a single
// random point and challenge schedule.
type MultiFk = core.MultiFk

// NewMultiFk returns a batch protocol with one slot per entry of ks.
func NewMultiFk(f Field, u uint64, ks []int) (*MultiFk, error) { return core.NewMultiFk(f, u, ks) }

// ---------------------------------------------------------------------
// One-call conveniences
//
// These run the full lifecycle (stream → conversation) locally. They are
// the quickest way to use the library when prover and verifier live in
// the same process; for genuinely outsourced data use the session API
// with the wire transport in cmd/sipserver and cmd/sipclient.

// verifyLocal is the one local run loop: the kind's streaming verifier
// observes the updates, the paper's prover observes them too, and the
// two hold the conversation. The verifier's refusal of the query comes
// first. Results are read from the returned verifier's concrete type.
func verifyLocal(f Field, u uint64, updates []Update, kind QueryKind, params QueryParams, rng RNG) (StreamVerifier, Stats, error) {
	v, err := engine.NewStreamVerifier(f, u, kind, params, rng)
	if err != nil {
		return nil, Stats{}, err
	}
	for _, up := range updates {
		if err := v.Observe(up); err != nil {
			return nil, Stats{}, err
		}
	}
	p, err := engine.NewReplayProver(f, u, kind, params, updates, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	stats, err := Run(p, v)
	return v, stats, err
}

// VerifySelfJoinSize streams updates into both parties and verifies F2.
func VerifySelfJoinSize(f Field, u uint64, updates []Update, rng RNG) (Elem, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QuerySelfJoinSize, QueryParams{}, rng)
	if err != nil {
		return 0, stats, err
	}
	res, err := v.(*core.FkVerifier).Result()
	return res, stats, err
}

// VerifyRangeSum streams key-value updates and verifies the sum over
// [qL, qR], returned as a signed integer.
func VerifyRangeSum(f Field, u uint64, updates []Update, qL, qR uint64, rng RNG) (int64, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QueryRangeSum, QueryParams{A: qL, B: qR}, rng)
	if err != nil {
		return 0, stats, err
	}
	res, err := v.(*core.RangeSumVerifier).SignedResult()
	return res, stats, err
}

// VerifyRangeQuery streams updates and verifies the nonzero entries in
// [qL, qR].
func VerifyRangeQuery(f Field, u uint64, updates []Update, qL, qR uint64, rng RNG) ([]Entry, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QueryRangeQuery, QueryParams{A: qL, B: qR}, rng)
	if err != nil {
		return nil, stats, err
	}
	entries, err := v.(*core.SubVectorVerifier).Result()
	return entries, stats, err
}

// VerifyHeavyHitters streams updates and verifies the φ-heavy hitters.
func VerifyHeavyHitters(f Field, u uint64, updates []Update, phi float64, rng RNG) ([]HeavyHitter, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QueryHeavyHitters, QueryParams{Phi: phi}, rng)
	if err != nil {
		return nil, stats, err
	}
	hh, _, err := v.(*core.HeavyHittersVerifier).Result()
	return hh, stats, err
}

// VerifyCircuit streams updates into both parties and verifies the
// named circuit's full output vector over the final frequency vector
// (e.g. CircuitMatMul: every entry of C = A·A).
func VerifyCircuit(f Field, u uint64, updates []Update, spec CircuitSpec, rng RNG) ([]Elem, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QueryCircuit, QueryParams{Circuit: spec.Name, A: spec.Arg}, rng)
	if err != nil {
		return nil, stats, err
	}
	outs, err := v.(*CircuitVerifier).Outputs()
	return outs, stats, err
}

// VerifyF0 streams updates and verifies the number of distinct items.
func VerifyF0(f Field, u uint64, updates []Update, rng RNG) (Elem, Stats, error) {
	v, stats, err := verifyLocal(f, u, updates, QueryF0, QueryParams{}, rng)
	if err != nil {
		return 0, stats, err
	}
	res, err := v.(*core.FrequencyBasedVerifier).Result()
	return res, stats, err
}
