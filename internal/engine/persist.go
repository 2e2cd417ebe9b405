// Resource governance and durability: the Σ-byte memory budget with LRU
// eviction to disk, checkpoint persistence, and crash recovery. See the
// package comment in engine.go for the model.
//
// # Locking contract
//
// Lock order: e.mu before d.mu before d.saveMu; never the reverse.
// Holding any d.mu while acquiring e.mu is forbidden (touch releases
// d.mu first; rehydrate claims its transition and drops d.mu before
// admission).
//
// Residency transitions *begin* only with the engine lock held —
// beginEvictLocked and the claim step of rehydrate — so admission
// accounting (e.resident, e.transitions) can never race a transition's
// start. The I/O that completes a transition (checkpoint save,
// store.Load, the O(u) field-image rebuild) runs with NO lock held:
// each dataset carries a residency latch (Dataset.res, a four-state
// machine, plus resCond) and only goroutines needing *that* dataset's
// tables wait on it. k transitions of k distinct datasets therefore
// cost ~1× the I/O wall-clock, not k× — the engine lock is held only
// for the O(1) bookkeeping at each end.
//
// Accounting invariants (all under e.mu):
//
//   - e.resident = Σ tableBytes over datasets in {resident,
//     rehydrating}. An evicting dataset's bytes are released when its
//     eviction *begins*; its tables are freed (or, on a save failure,
//     re-charged) when it completes.
//   - A dataset's tables are freed only after its checkpoint is
//     durably on disk (invariant 7 in DESIGN.md): finishEvict frees
//     head only on a successful save and returns the dataset to
//     residency otherwise.
//   - Admission (admitLocked) begins LRU evictions until the
//     reservation fits; when every candidate is already in transition
//     it waits on admitCond (a finishing rehydration becomes the next
//     victim, a failed eviction returns its bytes) and fails with
//     ErrBudget only when nothing in flight can ever make room.
//
// Persist seals the head (copy-on-write) and writes outside the locks,
// so background checkpointing never blocks serving; per-dataset saveMu
// plus the diskN watermark keep a slow writer of an older sealed state
// from clobbering a newer checkpoint.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/parallel"
	"repro/internal/store"
)

// ErrBudget reports that admitting a dataset's tables would exceed the
// engine's memory budget and eviction could not make room. The wire
// layer maps it onto its budget-exhausted error frame so clients can
// distinguish "server full" from a protocol failure.
var ErrBudget = errors.New("engine: memory budget exceeded")

// ErrPartialRecovery wraps the per-file failures of a Recover scan that
// still registered every healthy dataset. Callers that want the skip
// semantics (a bit-rotted file must not take the whole server down)
// test for it with errors.Is and continue; anything else from Recover
// is a scan-level failure.
var ErrPartialRecovery = errors.New("engine: some checkpoints were not recovered")

// ErrCheckpointerRunning reports a StartCheckpointer on an engine whose
// background checkpointer is already running — harmless when two
// listeners share one engine and both ask for the same policy.
var ErrCheckpointerRunning = errors.New("engine: checkpointer already running")

// ckptExt is the checkpoint file suffix in the data dir.
const ckptExt = store.CkptExt

// maxRetainedBgErrs bounds how many background persistence failures are
// kept in the error chain surfaced by Close. A server on a persistently
// failing disk can accumulate thousands of near-identical failures
// between restarts; beyond the cap they are counted, not retained, so
// the chain cannot grow memory without bound.
const maxRetainedBgErrs = 32

// recordBgErrLocked retains a background persistence failure for Close
// to surface. Distinct failures accumulate with errors.Join (an early
// failure is never hidden by a later one); past maxRetainedBgErrs only
// the count grows. Caller holds e.mu.
func (e *Engine) recordBgErrLocked(err error) {
	if e.ckptErrN < maxRetainedBgErrs {
		e.ckptErr = errors.Join(e.ckptErr, err)
	}
	e.ckptErrN++
}

// fileForName maps a dataset name to its filesystem-safe checkpoint
// file name; shared with the shard router via store.DatasetFile.
func fileForName(name string) string { return store.DatasetFile(name) }

// nameFromFile inverts fileForName.
func nameFromFile(file string) (string, error) { return store.DatasetName(file) }

// SetBudget caps the aggregate bytes of resident dataset tables (counts
// plus field image: 16 bytes per padded universe entry per dataset).
// Zero or negative removes the cap. The budget is enforced at admission
// time — Open of a new dataset and rehydration of an evicted one — by
// evicting least-recently-used datasets to the data dir; without a data
// dir eviction is impossible and admission simply fails at the cap.
// Already-resident datasets are not evicted by SetBudget itself.
func (e *Engine) SetBudget(bytes int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.budget = bytes
	e.admitCond.Broadcast()
}

// ResidentBytes reports the bytes of dataset tables currently resident
// or reserved — the quantity SetBudget caps. It includes datasets mid-
// rehydration (their reservation is made up front); a dataset
// mid-eviction is already excluded.
func (e *Engine) ResidentBytes() int64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.resident
}

// TableCost returns the resident byte cost of a dataset over a universe
// of size ≥ u: 16 bytes per entry of the padded (power-of-two) table —
// what opening it charges against the engine budget.
func TableCost(u uint64) (int64, error) {
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		return 0, err
	}
	return tableBytes(params.U), nil
}

// Resident reports whether the dataset's tables are usable from memory
// right now — false while evicted and during either transition.
// Standalone datasets are always resident; an engine-managed dataset may
// be evicted between uses and rehydrates transparently.
func (d *Dataset) Resident() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.res == resResident
}

// SetDataDir names the directory datasets checkpoint to (created if
// missing). It enables eviction, Persist, StartCheckpointer, and
// Recover.
func (e *Engine) SetDataDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.dataDir = dir
	return nil
}

// touchLocked stamps the dataset most-recently-used. Caller holds e.mu.
func (e *Engine) touchLocked(d *Dataset) {
	e.clock++
	d.lastUse = e.clock
}

// admitLocked makes room for need bytes of tables, beginning LRU
// evictions (which complete asynchronously, see beginEvictLocked) until
// the reservation fits the budget. When every candidate is already in
// transition it waits on admitCond — a finishing rehydration becomes
// the next victim, a failed eviction returns its bytes — and fails with
// ErrBudget only when nothing in flight can make room. Caller holds
// e.mu and no dataset lock; exclude (which may be nil) is never chosen
// as a victim. A failure is always an ErrBudget.
func (e *Engine) admitLocked(need int64, exclude *Dataset) error {
	if e.budget <= 0 {
		return nil
	}
	if need > e.budget {
		return fmt.Errorf("%w: tables of %d bytes exceed the budget of %d", ErrBudget, need, e.budget)
	}
	for e.resident+need > e.budget {
		if e.dataDir == "" {
			return fmt.Errorf("%w: %d bytes resident, %d more needed, and no data dir is configured for eviction", ErrBudget, e.resident, need)
		}
		if victim := e.lruVictimLocked(exclude); victim != nil {
			e.beginEvictLocked(victim)
			continue
		}
		if e.transitions == 0 {
			return fmt.Errorf("%w: %d bytes resident, %d more needed, and nothing is left to evict", ErrBudget, e.resident, need)
		}
		e.admitCond.Wait()
	}
	return nil
}

// lruVictimLocked returns the least-recently-used resident dataset other
// than exclude, or nil if none. Datasets mid-transition are not
// candidates. Caller holds e.mu.
func (e *Engine) lruVictimLocked(exclude *Dataset) *Dataset {
	var victim *Dataset
	for _, d := range e.datasets {
		if d == exclude {
			continue
		}
		d.mu.Lock()
		resident := d.res == resResident
		d.mu.Unlock()
		if !resident {
			continue
		}
		if victim == nil || d.lastUse < victim.lastUse {
			victim = d
		}
	}
	return victim
}

// saveState checkpoints st for this dataset unless an equal-or-newer
// checkpoint is already on disk. Writers serialize on saveMu and disk
// state only moves forward, so a slow save of an older sealed state
// (e.g. a background Persist racing an eviction) can never regress the
// file. The caller must guarantee st is not concurrently mutated (hold
// d.mu, or pass a sealed state).
func (d *Dataset) saveState(dir string, st *tableState) error {
	d.saveMu.Lock()
	defer d.saveMu.Unlock()
	if d.dropped {
		return nil // Drop deleted the file; writing would resurrect the dataset
	}
	if d.diskHas && st.n <= d.diskN {
		return nil
	}
	if err := store.Save(filepath.Join(dir, fileForName(d.name)), d.checkpointOf(st)); err != nil {
		return err
	}
	d.diskN = st.n
	d.diskHas = true
	return nil
}

// beginEvictLocked starts evicting a resident dataset: it flips the
// dataset's latch to evicting, seals the head, and releases the bytes
// from the accounting immediately — the admitting goroutine proceeds
// without waiting for disk. The checkpoint save and the table free
// complete on a background goroutine (finishEvict), outside every lock.
// Caller holds e.mu; the victim must be resident and is not the
// caller's own dataset.
func (e *Engine) beginEvictLocked(d *Dataset) {
	d.mu.Lock()
	st := d.head
	st.sealed = true // outstanding snapshots may still share these tables
	d.res = resEvicting
	d.mu.Unlock()
	e.resident -= tableBytes(d.params.U)
	e.transitions++
	go e.finishEvict(d, st, e.dataDir)
}

// finishEvict completes an eviction begun by beginEvictLocked: it
// checkpoints the sealed state (a no-op when an equal-or-newer
// checkpoint is already on disk) and only then frees the tables —
// invariant 7: tables are never freed before their contents are
// durable. On a save failure the dataset returns to residency, its
// bytes are re-charged (transiently overshooting the budget rather
// than losing data), and the failure is retained for Close to surface.
func (e *Engine) finishEvict(d *Dataset, st *tableState, dir string) {
	err := d.saveState(dir, st)
	e.mu.Lock()
	d.mu.Lock()
	if err != nil {
		d.res = resResident
		e.resident += tableBytes(d.params.U)
		e.recordBgErrLocked(fmt.Errorf("engine: evicting %q: %w", d.name, err))
	} else {
		d.head = nil
		d.res = resEvicted
	}
	e.transitions--
	d.resCond.Broadcast()
	e.admitCond.Broadcast()
	d.mu.Unlock()
	e.mu.Unlock()
}

// rehydrate loads an evicted dataset's checkpoint back into memory,
// subject to admission control. The transition is claimed (and its
// bytes reserved) under the engine lock, but the load and the O(u)
// field-image rebuild run with no lock held, so concurrent
// rehydrations of distinct datasets overlap. No-op if the dataset is
// already resident or mid-transition (the withState loop re-checks).
func (e *Engine) rehydrate(d *Dataset) error {
	e.mu.Lock()
	d.mu.Lock()
	if d.eng != e || d.res != resEvicted {
		// Raced with another rehydration, an eviction still settling, or
		// Drop; the caller re-evaluates through its latch wait.
		d.mu.Unlock()
		e.mu.Unlock()
		return nil
	}
	if e.dataDir == "" {
		d.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("engine: dataset %q is evicted but the engine has no data dir", d.name)
	}
	// Claim the transition before admission: a claimed dataset cannot be
	// claimed twice, and dropping d.mu here means admission (which may
	// wait) holds no dataset lock.
	d.res = resRehydrating
	d.mu.Unlock()
	need := tableBytes(d.params.U)
	if err := e.admitLocked(need, d); err != nil {
		d.mu.Lock()
		d.res = resEvicted
		d.resCond.Broadcast()
		d.mu.Unlock()
		e.mu.Unlock()
		return fmt.Errorf("engine: cannot rehydrate dataset %q: %w", d.name, err)
	}
	e.resident += need
	e.transitions++
	dir := e.dataDir
	e.mu.Unlock()

	// I/O and rebuild, outside every lock.
	ckpt, err := store.Load(filepath.Join(dir, fileForName(d.name)), e.f.Modulus())
	var st *tableState
	if err == nil {
		st, err = d.stateFromCheckpoint(ckpt)
	}
	if err == nil {
		d.saveMu.Lock()
		if !d.diskHas || st.n > d.diskN {
			d.diskN = st.n
			d.diskHas = true
		}
		d.saveMu.Unlock()
	}

	e.mu.Lock()
	d.mu.Lock()
	if err != nil {
		e.resident -= need
		d.res = resEvicted
	} else {
		d.head = st
		d.nMeta = st.n
		d.verMeta = st.version
		d.res = resResident
		e.touchLocked(d)
	}
	e.transitions--
	d.resCond.Broadcast()
	e.admitCond.Broadcast()
	d.mu.Unlock()
	e.mu.Unlock()
	if err != nil {
		return fmt.Errorf("engine: rehydrating dataset %q: %w", d.name, err)
	}
	return nil
}

// checkpointOf packages a sealed-or-stable table state for the codec.
// Caller must guarantee st is not concurrently mutated.
func (d *Dataset) checkpointOf(st *tableState) *store.Checkpoint {
	return &store.Checkpoint{
		Universe: d.origU,
		Modulus:  d.f.Modulus(),
		Total:    st.total,
		Updates:  st.n,
		Version:  st.version,
		SliceLo:  d.sliceLo,
		SliceHi:  d.sliceHi,
		Counts:   st.counts,
	}
}

// checkCheckpoint verifies a structurally valid checkpoint actually
// belongs to this dataset's geometry.
func (d *Dataset) checkCheckpoint(ckpt *store.Checkpoint) error {
	if ckpt.Universe != d.origU {
		return fmt.Errorf("checkpoint universe %d, dataset has %d", ckpt.Universe, d.origU)
	}
	if ckpt.SliceLo != d.sliceLo || ckpt.SliceHi != d.sliceHi {
		return fmt.Errorf("checkpoint slice [%d,%d), dataset has [%d,%d)", ckpt.SliceLo, ckpt.SliceHi, d.sliceLo, d.sliceHi)
	}
	if uint64(len(ckpt.Counts)) != d.params.U {
		return fmt.Errorf("checkpoint table length %d, dataset pads to %d", len(ckpt.Counts), d.params.U)
	}
	return nil
}

// shellForCheckpoint builds the table-less dataset shell matching a
// checkpoint's geometry: a slice shell when the checkpoint carries
// slice bounds, a whole-universe shell otherwise.
func shellForCheckpoint(f field.Field, ckpt *store.Checkpoint, workers int) (*Dataset, error) {
	if ckpt.Slice() {
		return newSliceShell(f, ckpt.Universe, ckpt.SliceLo, ckpt.SliceHi, workers)
	}
	return newDatasetShell(f, ckpt.Universe, workers)
}

// stateFromCheckpoint rebuilds live tables from a checkpoint: the counts
// are taken as-is, the field image is recomputed (it is a deterministic
// function of the counts, so an evict/rehydrate cycle is bit-exact).
func (d *Dataset) stateFromCheckpoint(ckpt *store.Checkpoint) (*tableState, error) {
	if err := d.checkCheckpoint(ckpt); err != nil {
		return nil, err
	}
	st := &tableState{
		counts:  ckpt.Counts,
		elems:   make([]field.Elem, len(ckpt.Counts)),
		total:   ckpt.Total,
		n:       ckpt.Updates,
		version: ckpt.Version,
	}
	f := d.f
	rebuild := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			st.elems[i] = f.FromInt64(st.counts[i])
		}
	}
	if nw := parallel.Workers(d.workers); nw > 1 && len(st.counts) >= minShardBatch {
		parallel.ForGrain(nw, len(st.counts), 1<<12, func(_, lo, hi int) { rebuild(lo, hi) })
	} else {
		rebuild(0, len(st.counts))
	}
	return st, nil
}

// quiesceLocked waits until no residency transition is in flight, so a
// caller can rely on every eviction save having hit the disk. Caller
// holds e.mu (the wait releases and reacquires it).
func (e *Engine) quiesceLocked() {
	for e.transitions > 0 {
		e.admitCond.Wait()
	}
}

// Persist checkpoints every dirty dataset to the data dir and returns
// the first errors encountered (joined). It first waits out in-flight
// transitions, so "Persist returned nil" means every batch ingested
// before the call is durably on disk — including ones inside an
// eviction that was still settling. The head is sealed before the
// write, so saving proceeds outside the locks while ingestion continues
// against a copy-on-write clone; the crash-loss window of a server that
// persists every t is therefore at most t of ingestion.
func (e *Engine) Persist() error {
	var errs []error
	for {
		e.mu.Lock()
		e.quiesceLocked()
		dir := e.dataDir
		all := make([]*Dataset, 0, len(e.datasets))
		for _, d := range e.datasets {
			all = append(all, d)
		}
		e.mu.Unlock()
		if dir == "" {
			return fmt.Errorf("engine: Persist needs a data dir (SetDataDir)")
		}
		sawEvicting := false
		for _, d := range all {
			// Peek at the disk watermark to skip sealing clean datasets (the
			// peek is advisory: saveState re-checks under its own lock).
			d.saveMu.Lock()
			diskN, diskHas := d.diskN, d.diskHas
			d.saveMu.Unlock()
			d.mu.Lock()
			if d.res == resEvicting {
				// An eviction began after our quiesce. Its save usually
				// makes the dataset durable, but it can fail (returning the
				// dataset to residency, dirty) — re-scan after it settles
				// rather than trusting it, so a nil from Persist really
				// means everything ingested before the call is on disk.
				sawEvicting = true
				d.mu.Unlock()
				continue
			}
			st := d.head
			if d.res != resResident || st == nil || (diskHas && st.n == diskN) {
				// Evicted/rehydrating datasets match their disk state, and
				// clean resident ones are on disk already.
				d.mu.Unlock()
				continue
			}
			st.sealed = true
			d.mu.Unlock()
			if err := d.saveState(dir, st); err != nil {
				errs = append(errs, fmt.Errorf("dataset %q: %w", d.name, err))
			}
		}
		if !sawEvicting {
			return errors.Join(errs...)
		}
	}
}

// Recover scans the data dir and registers every checkpointed dataset,
// validating each file fully (checksum, version, field). Datasets are
// loaded resident until the memory budget fills, then registered
// evicted — they rehydrate on first use. Names already registered are
// skipped, so Recover is idempotent and safe on a shared engine. It
// returns how many datasets were recovered; per-file failures never
// abort the scan — they are joined under ErrPartialRecovery so callers
// can warn and keep serving the healthy datasets.
func (e *Engine) Recover() (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dataDir == "" {
		return 0, fmt.Errorf("engine: Recover needs a data dir (SetDataDir)")
	}
	ents, err := os.ReadDir(e.dataDir)
	if err != nil {
		return 0, err
	}
	n := 0
	var errs []error
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), ckptExt) {
			continue
		}
		name, err := nameFromFile(ent.Name())
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if _, ok := e.datasets[name]; ok {
			continue
		}
		if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
			errs = append(errs, fmt.Errorf("engine: dataset limit of %d reached; %q not recovered", e.maxDatasets, name))
			continue
		}
		ckpt, err := store.Load(filepath.Join(e.dataDir, ent.Name()), e.f.Modulus())
		if err != nil {
			errs = append(errs, err)
			continue
		}
		// A shell only: tables are rebuilt below iff the dataset will
		// actually be resident — an over-budget fleet restarts without
		// paying O(u) per dataset it is not going to keep in memory.
		ds, err := shellForCheckpoint(e.f, ckpt, e.workers)
		if err != nil {
			errs = append(errs, fmt.Errorf("dataset %q: %w", name, err))
			continue
		}
		ds.name = name
		ds.eng = e
		if err := ds.checkCheckpoint(ckpt); err != nil {
			errs = append(errs, fmt.Errorf("dataset %q: %w", name, err))
			continue
		}
		size := tableBytes(ds.params.U)
		if e.budget <= 0 || e.resident+size <= e.budget {
			st, err := ds.stateFromCheckpoint(ckpt)
			if err != nil {
				errs = append(errs, fmt.Errorf("dataset %q: %w", name, err))
				continue
			}
			ds.head = st
			ds.res = resResident
			e.resident += size
		} // else: stays evicted (head nil) until first use
		ds.nMeta = ckpt.Updates
		ds.verMeta = ckpt.Version
		ds.diskN = ckpt.Updates
		ds.diskHas = true
		e.touchLocked(ds)
		e.datasets[name] = ds
		n++
	}
	if len(errs) > 0 {
		return n, fmt.Errorf("%w: %w", ErrPartialRecovery, errors.Join(errs...))
	}
	return n, nil
}

// removeCheckpointLocked deletes the dataset's checkpoint file, if any.
// Caller holds e.mu.
func (e *Engine) removeCheckpointLocked(name string) {
	if e.dataDir != "" {
		_ = os.Remove(filepath.Join(e.dataDir, fileForName(name)))
	}
}

// StartCheckpointer persists dirty datasets every interval on a
// background goroutine until Close, bounding crash loss to one interval
// of ingestion. Every background failure is retained (accumulated with
// errors.Join, so earlier distinct failures never vanish behind the
// latest one) and surfaced by Close.
func (e *Engine) StartCheckpointer(interval time.Duration) error {
	if interval <= 0 {
		return fmt.Errorf("engine: checkpoint interval must be positive, got %v", interval)
	}
	e.mu.Lock()
	if e.dataDir == "" {
		e.mu.Unlock()
		return fmt.Errorf("engine: StartCheckpointer needs a data dir (SetDataDir)")
	}
	if e.ckptStop != nil {
		e.mu.Unlock()
		return ErrCheckpointerRunning
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	e.ckptStop, e.ckptDone = stop, done
	e.mu.Unlock()
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				if err := e.Persist(); err != nil {
					e.mu.Lock()
					e.recordBgErrLocked(err)
					e.mu.Unlock()
				}
			case <-stop:
				return
			}
		}
	}()
	return nil
}

// Close stops the background checkpointer (if running) and, when a data
// dir is configured, persists all dirty datasets one final time. It
// returns every accumulated background persistence failure (checkpointer
// ticks and eviction saves, joined) together with the final persist's.
// The engine remains usable after Close; Close exists to make shutdown
// loss-free.
func (e *Engine) Close() error {
	e.mu.Lock()
	stop, done := e.ckptStop, e.ckptDone
	e.ckptStop, e.ckptDone = nil, nil
	dir := e.dataDir
	e.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	e.mu.Lock()
	bgErr := e.ckptErr
	if e.ckptErrN > maxRetainedBgErrs {
		bgErr = errors.Join(bgErr, fmt.Errorf("engine: %d further background persistence failures not retained", e.ckptErrN-maxRetainedBgErrs))
	}
	e.ckptErr = nil
	e.ckptErrN = 0
	e.mu.Unlock()
	if dir == "" {
		return bgErr
	}
	return errors.Join(bgErr, e.Persist())
}

// SnapshotFromCounts builds a standalone frozen snapshot whose state is
// exactly the given counts — no stream is replayed. It exists for the
// wire layer's dishonest-cloud hook: the cheat rewrites a clone of the
// maintained counts and proves from the result, so the server needs no
// raw-stream retention. Σδ is taken as Σ counts (the two are equal for
// any update stream producing these counts).
func SnapshotFromCounts(f field.Field, u uint64, workers int, counts []int64) (*Snapshot, error) {
	ds, err := NewDataset(f, u, workers)
	if err != nil {
		return nil, err
	}
	if uint64(len(counts)) > ds.params.U {
		return nil, fmt.Errorf("engine: %d counts exceed the padded universe %d", len(counts), ds.params.U)
	}
	st := ds.head
	copy(st.counts, counts)
	for i, c := range counts {
		st.elems[i] = f.FromInt64(c)
		st.total += c
	}
	st.sealed = true
	return &Snapshot{ds: ds, st: st}, nil
}
