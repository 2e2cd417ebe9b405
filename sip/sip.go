// Package sip is the public API of this repository: streaming interactive
// proofs for outsourced data, reproducing Cormode, Thaler & Yi,
// "Verifying Computations with Streaming Interactive Proofs" (VLDB 2011).
//
// The model: a space-limited verifier (the data owner) observes a stream
// of (index, delta) updates to an implicit vector a of length u, keeping
// only O(log u) words; an untrusted prover (the cloud) holds the data, as
// the aggregated vector a itself. After the stream, the two run a short
// interactive protocol through which
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
// Typical use — the cloud holds the data as a Dataset, ingested once and
// queried many times; the data owner keeps one small ticket per query it
// will ask, and picks the query only when it asks:
//
//	kinds := []sip.QueryKind{sip.QuerySelfJoinSize, sip.QueryRangeSum}
//	t, _ := sip.NewTicket(sip.Mersenne(), 1<<20, kinds, rng) // data owner: O(log u) space
//	ds, _ := sip.NewDataset(sip.Mersenne(), 1<<20, -1)      // cloud; -1 = every core
//	for _, up := range updates {
//	    t.Observe(up)                  // the one streaming pass
//	}
//	ds.Ingest(updates)                 // once per batch, not per query
//	q := sip.QueryParams{A: 10, B: 99} // the query, picked now
//	v, _ := t.Spend(sip.QueryRangeSum, q)
//	p, _ := ds.Snapshot().NewProver(sip.QueryRangeSum, q)
//	stats, err := sip.Run(p, v)        // interactive verification
//	ans, _ := sip.AnswerOf(sip.QueryRangeSum, v) // ans.Int is the sum
//
// Every prover is built from the dataset's maintained tables, which it
// borrows read-only. Ingestion can continue between queries — snapshots
// are copy-on-write and O(1), so in-flight conversations never observe a
// torn state. An Engine names datasets so many connections (see
// internal/wire, cmd/sipserver and cmd/sipclient) share them. One
// Dataset.Ingest call is one batch: applied whole or, when any index is
// outside the universe or a count or Σδ would overflow int64, not at
// all, as one dataset version. Over the wire, one wire.Client.Ingest
// call is the same one batch, sent as one acknowledged frame; a dataset
// split across shards behind the router refuses it the same way, and
// no slice applies any of a refused batch.
//
// # Parallel proving
//
// The prover is the expensive party (Θ(u log u)-ish field work for the
// multi-round protocols, Θ(u^{3/2}) one-round), and its table scans are
// embarrassingly parallel. A dataset's workers argument (and every
// protocol struct's Workers field) sets the fan-out: 0 proves serially,
// n > 0 fans each scan out across n goroutines, and -1 selects
// runtime.NumCPU(). Because all arithmetic is exact field arithmetic
// combined in deterministic chunk order, the transcript — every message,
// every claim — is bit-identical for every worker count; only wall-clock
// time changes. The verifier's costs are already logarithmic and are
// unaffected.
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
//	eng.SetBudget(1 << 30)              // Σ resident table bytes across datasets: 9 per padded entry each
//	eng.StartCheckpointer(30 * time.Second)
//	defer eng.Close()                   // stop + final flush: loss-free shutdown
//	n, _ := eng.Recover()               // after a restart: reload every dataset
//
// A dataset's resident tables cost 8 bytes of counts per padded universe
// entry plus at most 1 of live-pair lists: the counts are every prover's
// one input, and no field image of them is held. Admission control at
// Open (and at rehydration) keeps resident tables under the budget by
// evicting least-recently-used datasets: each one
// checkpoints to the data dir (a versioned, checksummed, atomically
// renamed file that costs what the dataset holds: an all-zero chunk of
// the table is not written, a sparse one is written as pairs), frees
// its tables, and rehydrates transparently on its next use, rebuilding
// only the chunks it holds — query transcripts are bit-identical across an
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
// (dataset, version) of SELF-JOIN SIZE, the only kind it serves: every
// other kind is refused with ErrNotPosted and answered interactively.
// The verifier's challenges are derived
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
// SOUNDNESS CAVEAT — integrity against third parties, no soundness
// against the server. The streaming verifier samples all of its
// randomness up front, and here that randomness is a hash of the public
// binding, so the server that generates a proof knows every challenge
// before it writes a message. Committing the data first does not help:
// knowing r₁, the server adds c·(X − r₁) to its honest first sum-check
// message, with c = Δ/(1 − 2r₁), claims C + Δ and answers every later
// round honestly, and the client's verifier accepts the false claim.
// A posted proof therefore shows only that nobody between the server and
// the client (a cache, a mirror, a relay) altered what the server
// recorded. Where the server itself is untrusted, use interactive
// queries with a secret CryptoRNG, whose challenges the prover never
// learns in advance. The sound posted object is a one-message annotation
// that depends on no verifier randomness; until SELF-JOIN SIZE is served
// that way, no other kind is posted at all.

// ErrNotPosted is the refusal of a posted proof for any kind but
// SELF-JOIN SIZE, from Snapshot.GenerateProof and wire.Client.FetchProof
// alike.
var ErrNotPosted = engine.ErrNotPosted

// Proof is one recorded Fiat–Shamir conversation: binding, prover
// messages, transcript digest.
type Proof = fs.Proof

// ProofBinding names what a proof commits to; both ends derive the
// verifier's challenge randomness from it (ProofBinding.RNG).
type ProofBinding = fs.Binding

// ProofQuery is the canonical query descriptor inside a binding.
type ProofQuery = fs.Query

// StreamVerifier is a verifier session that also observes stream
// updates — what a client keeps for an interactive conversation or, for
// SELF-JOIN SIZE, for offline proof verification, where it is the only
// check: nothing is verified when a proof is recorded.
type StreamVerifier = engine.StreamVerifier

// Ticket is a single-use streaming verifier whose query is picked when it
// is spent: NewTicket draws the summaries of the kinds it may serve, the
// client feeds it the stream once (Observe), and Spend returns one kind's
// verifier with its query set.
type Ticket = engine.Ticket

// The typed refusals of NewTicket and Ticket.Spend: a second spend, a
// kind the ticket was not drawn for, and CIRCUIT (whose verifier comes
// from NewQueryVerifier).
var (
	ErrTicketSpent   = engine.ErrTicketSpent
	ErrTicketFamily  = engine.ErrTicketFamily
	ErrTicketCircuit = engine.ErrTicketCircuit
)

// NewTicket draws a ticket for any of kinds over [0, u) from rng.
func NewTicket(f Field, u uint64, kinds []QueryKind, rng RNG) (*Ticket, error) {
	return engine.NewTicket(f, u, kinds, rng)
}

// Answer is a verified result, one shape for every kind.
type Answer = engine.Answer

// AnswerOf reads kind's verified result off its accepting verifier.
func AnswerOf(kind QueryKind, v VerifierSession) (Answer, error) { return engine.AnswerOf(kind, v) }

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
// stream. A nil error certifies that the recorded conversation is
// consistent with the client's fingerprint at the proof's dataset
// version, so any bit flipped after the server recorded it fails; it does
// not certify the answer against the server itself (see the soundness
// caveat above).
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
// observes the updates, a prover is built from their aggregate, the two
// hold the conversation, and the kind's answer is read off the accepting
// verifier. The verifier's refusal of the query comes first.
func verifyLocal(f Field, u uint64, updates []Update, kind QueryKind, params QueryParams, rng RNG) (Answer, Stats, error) {
	v, err := engine.NewStreamVerifier(f, u, kind, params, rng)
	if err != nil {
		return Answer{}, Stats{}, err
	}
	for _, up := range updates {
		if err := v.Observe(up); err != nil {
			return Answer{}, Stats{}, err
		}
	}
	p, err := engine.NewReplayProver(f, u, kind, params, updates, 0)
	if err != nil {
		return Answer{}, Stats{}, err
	}
	stats, err := Run(p, v)
	if err != nil {
		return Answer{}, stats, err
	}
	a, err := AnswerOf(kind, v)
	return a, stats, err
}

// VerifySelfJoinSize streams updates into the verifier and verifies F2.
func VerifySelfJoinSize(f Field, u uint64, updates []Update, rng RNG) (Elem, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QuerySelfJoinSize, QueryParams{}, rng)
	return a.Elem, stats, err
}

// VerifyRangeSum streams key-value updates and verifies the sum over
// [qL, qR], returned as a signed integer.
func VerifyRangeSum(f Field, u uint64, updates []Update, qL, qR uint64, rng RNG) (int64, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QueryRangeSum, QueryParams{A: qL, B: qR}, rng)
	return a.Int, stats, err
}

// VerifyRangeQuery streams updates and verifies the nonzero entries in
// [qL, qR].
func VerifyRangeQuery(f Field, u uint64, updates []Update, qL, qR uint64, rng RNG) ([]Entry, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QueryRangeQuery, QueryParams{A: qL, B: qR}, rng)
	return a.Entries, stats, err
}

// VerifyHeavyHitters streams updates and verifies the φ-heavy hitters.
func VerifyHeavyHitters(f Field, u uint64, updates []Update, phi float64, rng RNG) ([]HeavyHitter, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QueryHeavyHitters, QueryParams{Phi: phi}, rng)
	return a.Hitters, stats, err
}

// VerifyCircuit streams updates into the verifier and verifies the
// named circuit's full output vector over the final frequency vector
// (e.g. CircuitMatMul: every entry of C = A·A).
func VerifyCircuit(f Field, u uint64, updates []Update, spec CircuitSpec, rng RNG) ([]Elem, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QueryCircuit, QueryParams{Circuit: spec.Name, A: spec.Arg}, rng)
	return a.Outputs, stats, err
}

// VerifyF0 streams updates and verifies the number of distinct items.
func VerifyF0(f Field, u uint64, updates []Update, rng RNG) (Elem, Stats, error) {
	a, stats, err := verifyLocal(f, u, updates, QueryF0, QueryParams{}, rng)
	return a.Elem, stats, err
}
