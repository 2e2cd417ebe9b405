// Slice datasets: the engine half of split-universe sharding. A huge
// dataset is split into S contiguous, aligned slices of its padded
// universe; each shard opens its slice with OpenSlice under the plain
// dataset name, ingests only the indexes it owns, and serves queries
// through Snapshot.NewPartialProver — a session whose messages are this
// slice's exact partials of the single-engine transcript (see
// core.SplitProver for the folding side).
//
// A slice keeps the dataset's identity global: origU is the *global*
// universe (every protocol is parameterized by it) while params and the
// tables span only the slice's width, indexed locally (global i at
// i−sliceLo). Checkpoints carry the bounds (store format ≥ 3), so
// eviction, recovery, and Release/Adopt handoff all work per slice with
// the machinery whole datasets already use.
package engine

import (
	"errors"
	"sync"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/sumcheck"
)

// ErrNotSplittable reports a query kind the split-universe seam does not
// cover: the two-phase frequency-based protocols (F0, Fmax), the
// hash-tree family, and GKR circuits need state that is not a per-slice
// partial sum. The router maps it onto a typed refusal so clients learn
// to query those kinds on unsplit datasets.
var ErrNotSplittable = errors.New("engine: query kind not covered by the split-universe seam")

// newSliceShell is newDatasetShell for one slice [lo, hi) of a split
// universe of size ≥ globalU: no table allocation, slice-width params.
func newSliceShell(f field.Field, globalU, lo, hi uint64, workers int) (*Dataset, error) {
	gp, err := lde.ParamsForUniverse(globalU, 2)
	if err != nil {
		return nil, err
	}
	sp, err := sumcheck.SliceParams(gp, lo, hi)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{f: f, params: sp, origU: globalU, sliceLo: lo, sliceHi: hi, workers: workers, res: resEvicted}
	ds.resCond = sync.NewCond(&ds.mu)
	return ds, nil
}

// OpenSlice returns the named dataset opened as the slice [lo, hi) of a
// split universe of size ≥ globalU, creating it on first open. The
// bounds are over the *padded* global universe (2^d ≥ globalU), must be
// a power-of-two width ≥ 2 aligned to itself — the discipline under
// which each sumcheck round's partial is exact. Re-opening attaches to
// the existing slice; the requested identity (global universe and both
// bounds) must match. Admission control applies as in Open, charging
// only the slice's width.
func (e *Engine) OpenSlice(name string, globalU, lo, hi uint64) (*Dataset, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	// Validate the geometry before taking the lock.
	shell, err := newSliceShell(e.f, globalU, lo, hi, e.workers)
	if err != nil {
		return nil, err
	}
	return e.open(name, shell)
}

// NewPartialProver constructs the slice-owner prover session for one
// query over this snapshot: a core.PartialProver whose opening reports
// the snapshot's dataset version and whose messages are this slice's
// exact partials of the single-engine transcript. On a whole-universe
// dataset it returns the session for the one slice covering the whole
// padded table — the S=1 degenerate split an aggregation-overhead
// benchmark compares against. Kinds outside the seam (everything but
// SELF-JOIN SIZE, Fk, and RANGE-SUM) fail with ErrNotSplittable.
func (s *Snapshot) NewPartialProver(kind QueryKind, params QueryParams) (core.ProverSession, error) {
	d := s.ds
	lo, hi := d.sliceLo, d.sliceHi
	if hi == 0 {
		lo, hi = 0, d.params.U
	}
	row, err := seamRow(kind)
	if err != nil {
		return nil, err
	}
	in, err := row.open(d.f, d.origU, params, d.workers)
	if err != nil {
		return nil, err
	}
	return in.partial(s, lo, hi)
}
