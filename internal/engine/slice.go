// Slice datasets: the engine half of split-universe sharding. A huge
// dataset is split into S contiguous, aligned slices of its padded
// universe; each shard opens its slice with OpenSlice under the plain
// dataset name, ingests only the indexes it owns, and serves queries
// through Snapshot.NewPartialProver — a session whose messages are this
// slice's exact partials of the single-engine transcript (see
// internal/core's SplitAggregator for the folding side).
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
	"fmt"
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
	e.mu.Lock()
	defer e.mu.Unlock()
	attach := func(ds *Dataset) (*Dataset, error) {
		if ds.sliceHi == 0 {
			return nil, fmt.Errorf("engine: dataset %q is a whole-universe dataset, not a slice", name)
		}
		if ds.origU != globalU || ds.sliceLo != lo || ds.sliceHi != hi {
			return nil, fmt.Errorf("engine: dataset %q is the slice [%d,%d) of universe %d, not [%d,%d) of %d",
				name, ds.sliceLo, ds.sliceHi, ds.origU, lo, hi, globalU)
		}
		e.touchLocked(ds)
		return ds, nil
	}
	if ds, ok := e.datasets[name]; ok {
		return attach(ds)
	}
	if _, gone := e.releasedNames[name]; gone {
		return nil, fmt.Errorf("%w: dataset %q was handed off from this engine", ErrReleased, name)
	}
	if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
		return nil, fmt.Errorf("engine: dataset limit of %d reached", e.maxDatasets)
	}
	if err := e.admitLocked(tableBytes(shell.params.U), nil); err != nil {
		return nil, fmt.Errorf("engine: cannot admit dataset %q: %w", name, err)
	}
	// admitLocked may have released e.mu while waiting out an in-flight
	// transition: re-check the registry and the cap before creating.
	if ds, ok := e.datasets[name]; ok {
		return attach(ds)
	}
	if _, gone := e.releasedNames[name]; gone {
		return nil, fmt.Errorf("%w: dataset %q was handed off from this engine", ErrReleased, name)
	}
	if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
		return nil, fmt.Errorf("engine: dataset limit of %d reached", e.maxDatasets)
	}
	ds := shell
	ds.head = &tableState{
		counts: make([]int64, ds.params.U),
		elems:  make([]field.Elem, ds.params.U),
	}
	ds.res = resResident
	ds.name = name
	ds.eng = e
	e.resident += tableBytes(ds.params.U)
	e.touchLocked(ds)
	e.datasets[name] = ds
	return ds, nil
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
	return in.partial(s.st, lo, hi)
}
