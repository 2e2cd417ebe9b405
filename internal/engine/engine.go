// Package engine is the persistent dataset layer of the prover service:
// ingest once, prove many.
//
// The paper's deployment model (§1) is a cloud that holds the data and
// answers many verified queries over it, with the stream pass happening
// once, as the owner uploads. The session machinery in internal/core is
// deliberately per-conversation; before this package existed the server
// re-played the entire stored stream through Observe for every query, so
// k queries cost k full re-ingestions and no two connections could share
// a dataset.
//
// A Dataset instead maintains the aggregate state every prover kind is a
// cheap function of:
//
//   - counts: the dense frequency vector a (int64 per entry) — the
//     hash-tree provers (SUB-VECTOR and friends, HEAVY HITTERS) and the
//     frequency-based provers (F0, Fmax) build their leaves/residual
//     tables from it;
//   - elems: the field image of a — the sum-check provers (Fk,
//     RANGE-SUM) take it as their table directly;
//   - total: Σδ, the stream length n for the heavy-hitters threshold φn.
//
// Updates are ingested in batches, once, through a sharded scatter
// kernel; Snapshot hands out an immutable view in O(1) (copy-on-write:
// the next ingest after a snapshot clones the tables, so readers never
// block ingestion and never observe a torn state). Snapshot.NewProver
// constructs the prover session for any QueryKind from that view without
// touching the raw stream — the engine does not even retain it.
//
// # Resource governance and durability
//
// The prover carries the O(u) state so the streaming verifier doesn't
// have to — which means a multi-tenant engine must govern that state
// explicitly or a handful of datasets exhausts the process. An Engine
// therefore runs its datasets through a resident/evicted state machine
// (see persist.go):
//
//   - SetBudget caps the aggregate bytes of resident tables; admission
//     control at Open and at rehydration evicts least-recently-used
//     datasets to disk to stay under it, and fails with ErrBudget when
//     eviction cannot make room.
//   - SetDataDir names the checkpoint directory (internal/store codec);
//     evicted datasets checkpoint there, free their tables, and
//     rehydrate transparently on the next use, with transcripts
//     bit-identical across the cycle. Each dataset carries its own
//     residency latch, so the checkpoint I/O of one dataset's
//     transition never blocks another's — concurrent rehydrations
//     overlap instead of serializing on the engine lock.
//   - Persist / StartCheckpointer write dirty datasets back on demand or
//     on an interval, and Recover rebuilds the registry from the data
//     dir after a restart, so a crash loses at most the last interval.
package engine

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/parallel"
	"repro/internal/stream"
)

// Engine is a registry of named datasets sharing one field, worker
// budget, and memory budget — the multi-tenant state of a prover server.
// All methods are safe for concurrent use.
type Engine struct {
	f       field.Field
	workers int

	mu          sync.Mutex
	datasets    map[string]*Dataset
	maxDatasets int

	// releasedNames tombstones datasets handed off by Release: Open
	// refuses to recreate them (ErrReleased) so a client racing the
	// rebalance window — routed to the source after its checkpoint left —
	// fails typed instead of silently growing an orphan dataset. Adopt
	// clears the tombstone (the name came back), as does Drop (the
	// operator's escape hatch to truly forget a released name).
	releasedNames map[string]struct{}

	// Resource governance + durability (persist.go). Residency
	// transitions *begin* only with mu held — admission accounting can
	// never race a transition's start — but the checkpoint I/O of a
	// transition runs outside every lock; each dataset carries its own
	// latch (Dataset.res + resCond) that its users wait on, so k
	// transitions of distinct datasets overlap.
	budget      int64      // Σ-byte cap on resident head tables (0 = unlimited)
	resident    int64      // bytes resident or reserved (rehydrations reserve up front)
	dataDir     string     // checkpoint directory ("" = memory-only engine)
	clock       uint64     // LRU clock; bumped on every dataset touch
	transitions int        // evictions/rehydrations currently in flight
	admitCond   *sync.Cond // on mu; signaled whenever a transition settles or bytes free up

	ckptStop chan struct{} // closes to stop the background checkpointer
	ckptDone chan struct{} // closed when the checkpointer has exited
	ckptErr  error         // accumulated background persistence failures (bounded)
	ckptErrN int           // total background failures, retained or not

	// dropHooks run (outside every engine/dataset lock) whenever a named
	// dataset leaves the registry — Drop and Release — so layered caches
	// keyed by dataset name (the wire layer's proof cache) can invalidate.
	dropHooks []func(name string)
}

// New returns an empty engine. workers is handed to every prover built
// from its datasets (0 serial, n < 0 all cores; see parallel.Workers).
func New(f field.Field, workers int) *Engine {
	e := &Engine{f: f, workers: workers, datasets: make(map[string]*Dataset)}
	e.admitCond = sync.NewCond(&e.mu)
	return e
}

// SetMaxDatasets caps how many datasets Open will create (0 = no cap).
// Each dataset holds O(u) memory while resident, so a server exposed to
// untrusted clients should set a cap (and a byte budget, see SetBudget).
func (e *Engine) SetMaxDatasets(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.maxDatasets = n
}

// maxDatasetName bounds a dataset name: the posted-proof codec
// (fs.Proof) and the wire's open frames carry its length in one byte.
const maxDatasetName = 255

// ErrDatasetName reports a dataset name the engine refuses: empty, or
// longer than a posted proof's header can carry.
var ErrDatasetName = errors.New("engine: dataset name must be 1..255 bytes")

// checkName guards every place a name enters the engine (Open,
// OpenSlice, Adopt).
func checkName(name string) error {
	if name == "" || len(name) > maxDatasetName {
		return fmt.Errorf("%w, got %d", ErrDatasetName, len(name))
	}
	return nil
}

// Open returns the named dataset, creating it (over a universe of size
// ≥ u) on first open. Re-opening attaches to the existing dataset; the
// requested universe must match the one it was created with, since the
// verifier's summaries are parameterized by it. Creation is subject to
// admission control: if the new dataset's tables would push resident
// memory past the budget, LRU datasets are evicted to disk first, and
// Open fails with ErrBudget when eviction cannot make room.
func (e *Engine) Open(name string, u uint64) (*Dataset, error) {
	if err := checkName(name); err != nil {
		return nil, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if ds, ok := e.datasets[name]; ok {
		if ds.sliceHi != 0 {
			return nil, fmt.Errorf("engine: dataset %q is the slice [%d,%d) of universe %d; reattach with OpenSlice", name, ds.sliceLo, ds.sliceHi, ds.origU)
		}
		if ds.origU != u {
			return nil, fmt.Errorf("engine: dataset %q has universe %d, not %d", name, ds.origU, u)
		}
		e.touchLocked(ds)
		return ds, nil
	}
	if _, gone := e.releasedNames[name]; gone {
		return nil, fmt.Errorf("%w: dataset %q was handed off from this engine", ErrReleased, name)
	}
	if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
		return nil, fmt.Errorf("engine: dataset limit of %d reached", e.maxDatasets)
	}
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	if err := e.admitLocked(tableBytes(params.U), nil); err != nil {
		return nil, fmt.Errorf("engine: cannot admit dataset %q: %w", name, err)
	}
	// admitLocked may have released e.mu while waiting out an in-flight
	// transition: re-check the registry (a concurrent Open of the same
	// name may have won) and the cap before creating.
	if ds, ok := e.datasets[name]; ok {
		if ds.sliceHi != 0 {
			return nil, fmt.Errorf("engine: dataset %q is the slice [%d,%d) of universe %d; reattach with OpenSlice", name, ds.sliceLo, ds.sliceHi, ds.origU)
		}
		if ds.origU != u {
			return nil, fmt.Errorf("engine: dataset %q has universe %d, not %d", name, ds.origU, u)
		}
		e.touchLocked(ds)
		return ds, nil
	}
	if _, gone := e.releasedNames[name]; gone {
		return nil, fmt.Errorf("%w: dataset %q was handed off from this engine", ErrReleased, name)
	}
	if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
		return nil, fmt.Errorf("engine: dataset limit of %d reached", e.maxDatasets)
	}
	ds, err := NewDataset(e.f, u, e.workers)
	if err != nil {
		return nil, err
	}
	ds.name = name
	ds.eng = e
	e.resident += tableBytes(params.U)
	e.touchLocked(ds)
	e.datasets[name] = ds
	return ds, nil
}

// Get returns the named dataset if it exists. An evicted dataset is
// returned as-is; it rehydrates transparently on its next table use.
func (e *Engine) Get(name string) (*Dataset, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	ds, ok := e.datasets[name]
	if ok {
		e.touchLocked(ds)
	}
	return ds, ok
}

// Names returns the registered dataset names, sorted.
func (e *Engine) Names() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.datasets))
	for n := range e.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// OnDrop registers a hook that runs whenever a named dataset leaves the
// registry (Drop or Release), with the engine and dataset locks NOT
// held. The wire layer hooks its proof cache here, so a dataset dropped
// and re-created under the same name can never be served a stale cached
// proof. Hooks must not block for long — they run on the dropping
// goroutine.
func (e *Engine) OnDrop(fn func(name string)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dropHooks = append(e.dropHooks, fn)
}

// fireDropHooks runs the registered drop hooks. Caller must hold no
// engine or dataset lock.
func (e *Engine) fireDropHooks(name string) {
	e.mu.Lock()
	hooks := e.dropHooks
	e.mu.Unlock()
	for _, fn := range hooks {
		fn(name)
	}
}

// Drop removes the named dataset from the registry and deletes its
// checkpoint file. Snapshots already taken stay valid (they hold
// immutable state), and a still-resident *Dataset handle lives on
// unbudgeted; a handle to a dataset dropped while evicted becomes
// unusable (its tables are gone from both memory and disk). Drop waits
// out an in-flight eviction or rehydration of the dataset, so its
// accounting and its checkpoint file can never be touched by a
// transition that outlives the removal.
func (e *Engine) Drop(name string) {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	if !ok {
		delete(e.releasedNames, name)
		e.mu.Unlock()
		return
	}
	for {
		ds.mu.Lock()
		if ds.res != resEvicting && ds.res != resRehydrating {
			break
		}
		// The transition's completion needs e.mu; release it while
		// waiting on the dataset's latch, then re-evaluate with both
		// locks (a new transition could have started in between).
		e.mu.Unlock()
		ds.awaitStableLocked()
		ds.mu.Unlock()
		e.mu.Lock()
	}
	if e.datasets[name] != ds { // re-registered while we waited
		ds.mu.Unlock()
		e.mu.Unlock()
		return
	}
	delete(e.datasets, name)
	if ds.res == resResident && ds.head != nil {
		e.resident -= tableBytes(ds.params.U)
		e.admitCond.Broadcast()
	}
	ds.eng = nil
	// Wait out any in-flight checkpoint write and bar future ones, so a
	// racing background Persist cannot re-create the file after the
	// removal below and resurrect the dataset on the next Recover.
	ds.saveMu.Lock()
	ds.dropped = true
	ds.saveMu.Unlock()
	ds.mu.Unlock()
	e.removeCheckpointLocked(name)
	e.mu.Unlock()
	e.fireDropHooks(name)
}

// ---------------------------------------------------------------------

// tableBytes is the resident cost of one dataset's head tables: an int64
// count and a field.Elem per padded universe entry.
func tableBytes(paddedU uint64) int64 { return int64(paddedU) * 16 }

// tableState is one immutable-once-sealed version of a dataset's
// aggregate state. While unsealed it is mutated in place by ingestion;
// Snapshot seals it, and the next ingest clones it (copy-on-write).
type tableState struct {
	counts  []int64
	elems   []field.Elem
	total   int64
	n       uint64 // updates ingested
	version uint64 // ingest batches applied; the proof-cache key component
	sealed  bool
}

func (st *tableState) clone() *tableState {
	return &tableState{
		counts:  append([]int64(nil), st.counts...),
		elems:   append([]field.Elem(nil), st.elems...),
		total:   st.total,
		n:       st.n,
		version: st.version,
	}
}

// residency is the per-dataset state machine of the memory governor:
//
//	resident ──beginEvict──▶ evicting ──save ok──▶ evicted
//	   ▲                        │ save failed         │
//	   └────────────────────────┴──◀──rehydrate ok── rehydrating
//
// Transitions begin only under the engine lock (so admission accounting
// never races a start), but the I/O that completes them runs outside
// every lock; goroutines needing the tables wait on the dataset's own
// latch (resCond), never on the engine.
type residency int

const (
	resResident    residency = iota // tables in memory, usable
	resEvicting                     // checkpoint save in flight; tables about to be freed
	resRehydrating                  // checkpoint load + rebuild in flight
	resEvicted                      // tables on disk only
)

// Dataset is one named, persistently maintained frequency vector.
// Ingestion and snapshotting are safe for concurrent use from many
// connections. An engine-managed dataset may be evicted (head == nil,
// state on disk) between uses; every table operation rehydrates it
// transparently.
type Dataset struct {
	name    string
	f       field.Field
	params  lde.Params // ℓ=2: padded to 2^d ≥ origU, or the slice's width
	origU   uint64     // global universe size as requested (protocols are built with it)
	workers int

	// Slice bounds in the padded global universe, for datasets opened as
	// one slice of a split universe (OpenSlice). sliceHi == 0 means a
	// whole-universe dataset; for slices, params spans only the slice's
	// width and tables are indexed locally (global i at i−sliceLo).
	sliceLo, sliceHi uint64

	mu       sync.Mutex
	eng      *Engine     // nil for standalone datasets; cleared by Drop/Release
	head     *tableState // nil while evicted
	res      residency   // the dataset's residency latch state
	resCond  *sync.Cond  // on mu; broadcast on every residency transition
	detached bool        // Release ran: every table use fails with ErrReleased
	nMeta    uint64      // updates ingested, valid even while evicted
	verMeta  uint64      // dataset version, valid even while evicted
	lastUse  uint64      // LRU stamp; guarded by eng.mu, not mu

	// saveMu serializes checkpoint writes for this dataset and guards
	// the record of what is on disk, so a slow writer holding an older
	// sealed state can never clobber a newer checkpoint (saveState
	// refuses stale writes). Lock order: mu may be held when taking
	// saveMu, never the reverse.
	saveMu  sync.Mutex
	diskN   uint64 // updates covered by the newest on-disk checkpoint
	diskHas bool   // a checkpoint file exists for this dataset
	dropped bool   // Drop ran: no writer may re-create the checkpoint file
}

// NewDataset returns a standalone (unnamed) dataset over a universe of
// size ≥ u — what the public sip.Dataset wraps, and the building block
// Engine.Open registers under a name. Standalone datasets are always
// resident and never budgeted.
func NewDataset(f field.Field, u uint64, workers int) (*Dataset, error) {
	ds, err := newDatasetShell(f, u, workers)
	if err != nil {
		return nil, err
	}
	ds.head = &tableState{
		counts: make([]int64, ds.params.U),
		elems:  make([]field.Elem, ds.params.U),
	}
	ds.res = resResident
	return ds, nil
}

// newDatasetShell is NewDataset without the O(u) table allocation — the
// recovery scan registers evicted datasets this way and only pays for
// tables it will actually keep resident.
func newDatasetShell(f field.Field, u uint64, workers int) (*Dataset, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return nil, err
	}
	ds := &Dataset{f: f, params: params, origU: u, workers: workers, res: resEvicted}
	ds.resCond = sync.NewCond(&ds.mu)
	return ds, nil
}

// Name returns the dataset's registry name ("" for standalone datasets).
func (d *Dataset) Name() string { return d.name }

// UniverseSize returns the universe the dataset was created over (before
// padding to a power of two). For a slice dataset this is the *global*
// universe of the split, not the slice width.
func (d *Dataset) UniverseSize() uint64 { return d.origU }

// Slice returns the dataset's bounds within the padded global universe.
// isSlice is false for whole-universe datasets (lo and hi are then 0).
func (d *Dataset) Slice() (lo, hi uint64, isSlice bool) {
	return d.sliceLo, d.sliceHi, d.sliceHi != 0
}

// Updates returns how many stream updates have been ingested. It does
// not rehydrate an evicted dataset — the count survives eviction.
func (d *Dataset) Updates() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.nMeta
}

// awaitStableLocked blocks on the dataset's residency latch until no
// transition is in flight. Caller holds d.mu (the wait releases and
// reacquires it); on return the state is resResident or resEvicted.
// Only this dataset's users wait here — transitions of other datasets
// proceed independently.
func (d *Dataset) awaitStableLocked() {
	for d.res == resEvicting || d.res == resRehydrating {
		d.resCond.Wait()
	}
}

// withState runs fn on the dataset's live table state, waiting out an
// in-flight eviction or rehydration and rehydrating from disk first if
// the dataset is evicted. fn runs under the dataset lock and must not
// call back into the engine. The loop re-checks residency because the
// engine may evict again between the rehydrate and the lock.
func (d *Dataset) withState(fn func(*tableState) error) error {
	for {
		d.mu.Lock()
		if d.detached {
			// Release handed this dataset off to another engine; the typed
			// error tells the wire layer (and through it the router's
			// client) to retry against the dataset's new home.
			name := d.name
			d.mu.Unlock()
			return fmt.Errorf("%w: dataset %q", ErrReleased, name)
		}
		d.awaitStableLocked()
		if d.res == resResident {
			err := fn(d.head)
			d.mu.Unlock()
			return err
		}
		eng := d.eng
		d.mu.Unlock()
		if eng == nil {
			return fmt.Errorf("engine: dataset %q was dropped while evicted; its tables are gone", d.name)
		}
		if err := eng.rehydrate(d); err != nil {
			return err
		}
	}
}

// touch marks the dataset most-recently-used for the LRU policy.
func (d *Dataset) touch() {
	d.mu.Lock()
	eng := d.eng
	d.mu.Unlock()
	if eng != nil {
		eng.mu.Lock()
		eng.touchLocked(d)
		eng.mu.Unlock()
	}
}

// minShardBatch is the batch size below which the sharded scatter is not
// worth its per-worker pass over the batch.
const minShardBatch = 1 << 13

// Ingest folds a batch of updates into the maintained state. Either the
// whole batch is applied or, when any index is out of range, none of it.
func (d *Dataset) Ingest(ups []stream.Update) error {
	idx := make([]uint64, len(ups))
	deltas := make([]int64, len(ups))
	for i, up := range ups {
		idx[i], deltas[i] = up.Index, up.Delta
	}
	return d.IngestColumns(idx, deltas)
}

// IngestColumns is Ingest over parallel index/delta columns (the wire
// layer decodes straight into this shape). Large batches are applied
// through a sharded scatter: a stable O(n) counting sort groups update
// positions by contiguous index shard, then each worker applies one
// shard's updates in batch order. No two workers touch the same entry
// and per-index application order is preserved, so the result is
// identical to the serial left-to-right application for every worker
// count. An evicted dataset is rehydrated first (admission control
// applies: rehydration may fail with ErrBudget).
func (d *Dataset) IngestColumns(idx []uint64, deltas []int64) error {
	if len(idx) != len(deltas) {
		return fmt.Errorf("engine: batch has %d indices but %d deltas", len(idx), len(deltas))
	}
	// Bounds are the *requested* universe, not the padded power of two:
	// every protocol is parameterized by origU, so an update in
	// [origU, 2^d) would live in padding no verifier accounts for. A
	// slice dataset additionally owns only [sliceLo, sliceHi) of it.
	base, bound := d.sliceLo, d.origU
	if d.sliceHi != 0 && d.sliceHi < bound {
		bound = d.sliceHi
	}
	for _, i := range idx {
		if i >= d.origU {
			return fmt.Errorf("engine: index %d outside universe [0,%d)", i, d.origU)
		}
		if i < base || i >= bound {
			return fmt.Errorf("engine: index %d outside slice [%d,%d)", i, d.sliceLo, d.sliceHi)
		}
	}
	d.touch()
	return d.withState(func(st *tableState) error {
		if st.sealed {
			st = st.clone()
			d.head = st
		}
		f := d.f
		apply := func(k int) {
			i := idx[k] - base // slice tables are indexed locally
			st.counts[i] += deltas[k]
			st.elems[i] = f.Add(st.elems[i], f.FromInt64(deltas[k]))
		}
		nw := parallel.Workers(d.workers)
		if nw > 1 && len(idx) >= minShardBatch {
			// Index i belongs to shard i/width; equal-width shards keep the
			// shard computation overflow-free for any supported universe.
			u := d.params.U
			width := (u + uint64(nw) - 1) / uint64(nw)
			shard := make([]int32, len(idx))
			count := make([]int, nw)
			for k, i := range idx {
				s := int32((i - base) / width)
				shard[k] = s
				count[s]++
			}
			start := make([]int, nw+1)
			for s := 0; s < nw; s++ {
				start[s+1] = start[s] + count[s]
			}
			pos := make([]int, len(idx))
			next := append([]int(nil), start[:nw]...)
			for k := range idx {
				s := shard[k]
				pos[next[s]] = k
				next[s]++
			}
			parallel.ForGrain(nw, nw, 1, func(_, lo, hi int) {
				for s := lo; s < hi; s++ {
					for _, k := range pos[start[s]:start[s+1]] {
						apply(k)
					}
				}
			})
		} else {
			for k := range idx {
				apply(k)
			}
		}
		for _, dl := range deltas {
			st.total += dl
		}
		st.n += uint64(len(idx))
		d.nMeta = st.n
		if len(idx) > 0 || d.sliceHi != 0 {
			// Every non-empty batch rotates the dataset version, which
			// rotates the Fiat–Shamir challenge point of every cached
			// proof key — an empty batch changes no state and keeps the
			// cache warm. A slice counts *delivered* batches instead: a
			// scatter routes one global batch to every owner (some
			// sub-batches empty), so bumping per delivery keeps each slice
			// version — and hence the aggregated split version — equal to
			// the version a single engine would reach on the same stream.
			st.version++
			d.verMeta = st.version
		}
		return nil
	})
}

// Version returns the dataset's monotone version: the number of
// non-empty ingest batches applied since creation. It survives eviction
// and (via the checkpoint format) restarts, so a proof cached under
// (name, version, query) can never be served for different data.
func (d *Dataset) Version() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.verMeta
}

// Snapshot returns an immutable view of the current state in O(1),
// rehydrating an evicted dataset first. The snapshot stays valid — and
// bit-stable — while ingestion continues and across later evictions of
// its dataset; the first ingest after a snapshot pays one O(u) table
// copy. Snapshot panics if rehydration fails (use SnapshotErr for the
// error-returning form).
func (d *Dataset) Snapshot() *Snapshot {
	s, err := d.SnapshotErr()
	if err != nil {
		panic(err)
	}
	return s
}

// SnapshotErr is Snapshot with rehydration failures (missing data dir,
// corrupt checkpoint, budget exhaustion) reported instead of panicking.
// For an always-resident dataset it cannot fail.
func (d *Dataset) SnapshotErr() (*Snapshot, error) {
	d.touch()
	var snap *Snapshot
	err := d.withState(func(st *tableState) error {
		st.sealed = true
		snap = &Snapshot{ds: d, st: st}
		return nil
	})
	return snap, err
}

// Snapshot is a frozen view of a dataset: the aggregate state all prover
// sessions for that epoch are built from. It is immutable and safe to
// share across goroutines.
type Snapshot struct {
	ds *Dataset
	st *tableState
}

// Counts returns the dense frequency vector. Read-only: callers must not
// modify it.
func (s *Snapshot) Counts() []int64 { return s.st.counts }

// Elems returns the field image of the frequency vector. Read-only.
func (s *Snapshot) Elems() []field.Elem { return s.st.elems }

// Total returns Σδ over the ingested stream (the length n of an
// insert-only stream).
func (s *Snapshot) Total() int64 { return s.st.total }

// Updates returns how many stream updates the snapshot reflects.
func (s *Snapshot) Updates() uint64 { return s.st.n }

// Version returns the dataset version the snapshot was taken at; see
// Dataset.Version.
func (s *Snapshot) Version() uint64 { return s.st.version }
