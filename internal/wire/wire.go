// Package wire runs the interactive proofs over TCP: the prover becomes a
// long-lived "cloud" server that maintains datasets as aggregate prover
// state, and the verifier a thin client that keeps only its O(log u)
// summaries while uploading, then drives query conversations over the
// same connection.
//
// This is the deployment sketched in the paper's introduction: "the pass
// over the input can take place incrementally as the verifier uploads
// data to the cloud", after which each query costs the owner a
// logarithmic-size conversation.
//
// There is one client flow: open <name> attaches the connection to a
// named dataset shared through the server's engine, after which update
// batches and query conversations interleave freely. Any number of
// connections ingest into and query the same dataset concurrently; each
// query proves against an immutable snapshot taken when the query frame
// arrives, and ingestion continues meanwhile. Updates are folded into
// maintained state as each batch arrives — the server never stores the
// raw stream and never replays it, however many queries follow — and
// each batch is acknowledged with the dataset's new update count, so
// cooperating uploaders can sequence their work. A dataset nobody else
// should reach is simply one whose name the client draws unguessably at
// random; the server has no separate notion of a private dataset, and
// MaxDatasets + MemBudget govern every dataset alike.
//
// Every query conversation runs on its own channel id in its own server
// goroutine against its own immutable snapshot, so one connection holds
// any number of overlapped conversations while ingestion keeps flowing
// between their frames (see mux.go and Client.QueryAsync).
//
// # Layering
//
// The package is split into layers, bottom up:
//
//	frames (internal/wire/frames)  codec: framing + payload layouts
//	seam.go                        FlowState + ChannelPins + Lifecycle
//	mux.go, proof.go               Mux: the prover side of a connection
//	server.go                      the prover service over engine datasets
//	client.go, mux.go, proof.go    the verifier client
//
// The frames package owns every byte layout; FlowState owns which frame
// is legal next on a connection; ChannelPins owns the channel-id
// routing table. The server, the client, and the shard router
// (internal/shard) are all built from those pieces, so a proxy between
// a client and a server enforces exactly the rules the server would.
// The router also shares the server's Mux — the one conversation
// driver, posted-proof reply and typed refusal, which serves the split
// datasets it answers itself — and its Lifecycle, the one accept/close
// registry. Only internal/wire/... and internal/shard import frames
// (enforced by a frames test).
package wire

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/wire/frames"
)

// QueryKind enumerates the queries the server answers; the values live in
// the engine, which owns prover construction.
type QueryKind = engine.QueryKind

// The wire query kinds.
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

// QueryParams carries the per-kind parameters; unused fields are zero.
type QueryParams = engine.QueryParams

// DefaultMaxUniverse is the universe-size cap applied when
// Server.MaxUniverse is zero: 2^26 entries ≈ 1 GiB of maintained state
// per dataset. Deployments with bigger datasets raise the knob.
const DefaultMaxUniverse = 1 << 26

// DefaultMaxDatasets caps the named datasets a server-created engine
// will register (each pins O(u) memory forever). Supply your own Engine
// to choose a different policy.
const DefaultMaxDatasets = 1024

// DefaultMaxConcurrentQueries caps the multiplexed query conversations
// in flight on one connection when Server.MaxConcurrentQueries is zero.
// Each conversation pins one goroutine and one prover session (O(u)
// table views), so the cap bounds what a single connection can demand.
const DefaultMaxConcurrentQueries = 64

// ErrBudget is the engine's admission failure: the server's resident
// memory budget is exhausted and eviction could not make room. It
// travels the wire as its own frame type, so a client distinguishes
// "server full, retry later or elsewhere" from a protocol violation
// with errors.Is(err, wire.ErrBudget).
var ErrBudget = engine.ErrBudget

// ErrNotPosted refuses a posted proof of any kind but SELF-JOIN SIZE:
// Client.FetchProof returns it before it writes a request.
var ErrNotPosted = engine.ErrNotPosted

// ErrProtocol reports a malformed or unexpected frame. It is the
// canonical instance from the codec layer, so errors.Is matches on both
// sides of a proxy.
var ErrProtocol = frames.ErrProtocol

// ErrServerClosed is returned by Server.Serve after Server.Close,
// mirroring net/http.ErrServerClosed: an intentional shutdown is not a
// transport failure and callers can distinguish it with errors.Is.
var ErrServerClosed = errors.New("wire: server closed")
