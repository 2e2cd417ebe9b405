package engine

import (
	"fmt"

	"repro/internal/core"
)

// QueryKind enumerates the queries a dataset answers. It is defined here
// (rather than in the wire layer) because prover construction is an
// engine concern; package wire aliases these for its frame encoding.
type QueryKind uint8

// The query kinds.
const (
	QuerySelfJoinSize QueryKind = iota + 1
	QueryFk
	QueryRangeSum
	QueryRangeQuery
	QueryIndex
	// QueryDictionary answers get(A) over a key-value stream. A put of
	// (key, value) is the update Update{Index: key, Delta: value+1}: the
	// +1 shift tells a stored 0 from an absent key. Keys are distinct
	// across the stream, values are below u, and u < p/2. The answer's
	// At is the value and Found whether the key is present.
	QueryDictionary
	QueryPredecessor
	QuerySuccessor
	QueryKLargest
	QueryHeavyHitters
	QueryF0
	QueryFmax
	// QueryCircuit runs the GKR protocol for a named circuit family from
	// internal/circuit's registry over the dataset's dense counts; the
	// family name travels in QueryParams.Circuit, its argument in A.
	QueryCircuit
)

// QueryParams carries the per-kind parameters; unused fields are zero.
type QueryParams struct {
	A, B    uint64  // range bounds / point / key / circuit argument
	K       int64   // moment order or k-largest rank
	Phi     float64 // heavy-hitter fraction
	Circuit string  // circuit family name (QueryCircuit only)
}

// NewProver constructs the prover session for one query over the
// snapshot's maintained state. No stream is replayed and no table is
// copied: every prover borrows the counts' chunks, and the heavy-hitters
// threshold comes from the maintained Σδ.
// The resulting conversation transcript is bit-identical to
// NewReplayProver's over the original stream (crosschecked in the
// package tests), for every worker count.
func (s *Snapshot) NewProver(kind QueryKind, params QueryParams) (core.ProverSession, error) {
	if s.ds.sliceHi != 0 {
		// A slice holds only [sliceLo, sliceHi) of the universe; its
		// messages are partials, not a complete transcript. Query it
		// through NewPartialProver behind a core.SplitProver.
		return nil, fmt.Errorf("engine: dataset %q is the slice [%d,%d) of universe %d; whole-transcript provers need the full table",
			s.ds.name, s.ds.sliceLo, s.ds.sliceHi, s.ds.origU)
	}
	in, err := openKind(s.ds.f, s.ds.origU, kind, params)
	if err != nil {
		return nil, err
	}
	return in.prover(s)
}
