// Checkpoint handoff: the entry points a shard router uses to move a
// dataset between engines without losing an acknowledged batch.
//
// The protocol is deliberately built from the persistence machinery that
// already exists (see persist.go) rather than a streaming copy:
//
//	source.Release(name)  → final checkpoint on disk, dataset detached
//	<move the .ckpt file> → store.DatasetFile names it
//	target.Adopt(name)    → registry entry on the target, same bytes
//
// Release seals and persists the dataset's final state, removes it from
// the registry, and poisons the handle: every later table use fails with
// ErrReleased (wrapped), a typed signal that the dataset has a new home.
// Because the checkpoint codec is deterministic and the field image is a
// pure function of the counts, transcripts and cached-proof bytes are
// bit-identical across the move — the same guarantee the evict/rehydrate
// cycle already makes, extended across processes.
package engine

import (
	"errors"
	"fmt"
	"path/filepath"

	"repro/internal/store"
)

// ErrReleased reports a table operation on a dataset that was released
// for handoff: its final state is on disk (or already adopted
// elsewhere) and this engine no longer owns it. Clients retrying
// through a router reach the dataset's new shard.
var ErrReleased = errors.New("engine: dataset released for handoff")

// Release detaches the named dataset for handoff: it waits out
// in-flight residency transitions, bars further ingestion and
// snapshots (ErrReleased), writes the final checkpoint, and removes the
// dataset from the registry — leaving the checkpoint file in the data
// dir for the new owner to adopt (unlike Drop, which deletes it). It
// returns the update count the checkpoint covers, which the adopter can
// compare against its own.
//
// Ordering guarantee: any IngestColumns that was acknowledged before
// Release returns is in the written checkpoint; any that races the
// release either lands in full before the final save or fails with
// ErrReleased in full (batches are atomic). No acked batch is lost.
//
// The released name is tombstoned: a later Open of it fails with
// ErrReleased instead of creating a fresh empty dataset — the guard
// against a client whose router still holds the stale route during a
// cross-process rebalance. Adopt (the name coming back) and Drop (the
// operator forgetting it) clear the tombstone.
func (e *Engine) Release(name string) (uint64, error) {
	e.mu.Lock()
	if e.dataDir == "" {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: Release needs a data dir (SetDataDir)")
	}
	ds, ok := e.datasets[name]
	if !ok {
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: unknown dataset %q", name)
	}
	for {
		ds.mu.Lock()
		if ds.res != resEvicting && ds.res != resRehydrating {
			break
		}
		// Same dance as Drop: a transition's completion needs e.mu, so
		// release it while waiting on the dataset's latch.
		e.mu.Unlock()
		ds.awaitStableLocked()
		ds.mu.Unlock()
		e.mu.Lock()
	}
	if e.datasets[name] != ds { // re-registered while we waited
		ds.mu.Unlock()
		e.mu.Unlock()
		return 0, fmt.Errorf("engine: dataset %q was replaced mid-release; retry", name)
	}
	// Poison the handle and capture the final state under the same d.mu
	// hold: every batch that completed before this instant is in st;
	// every use after it fails typed. There is no in-between.
	ds.detached = true
	st := ds.head // nil iff evicted, i.e. already durably on disk
	n := ds.nMeta
	wasResident := ds.res == resResident && st != nil
	if wasResident {
		st.sealed = true // outstanding snapshots may share these tables
	}
	delete(e.datasets, name)
	if e.releasedNames == nil {
		e.releasedNames = make(map[string]struct{})
	}
	e.releasedNames[name] = struct{}{}
	if wasResident {
		e.resident -= tableBytes(ds.params.U)
		e.admitCond.Broadcast()
	}
	ds.eng = nil
	dir := e.dataDir
	ds.mu.Unlock()
	e.mu.Unlock()

	if wasResident {
		// The final save runs outside every lock, like any checkpoint
		// write. An evicted dataset needs none: its tables were freed only
		// after a durable save (invariant 7).
		if err := ds.saveState(dir, st); err != nil {
			e.unreleaseDataset(name, ds, wasResident)
			return 0, fmt.Errorf("engine: releasing %q: %w", name, err)
		}
	}
	// Bar any still-in-flight background Persist writer from touching the
	// file we are about to give away. Our own save is already durable;
	// stale writers were refused by the diskN watermark regardless.
	ds.saveMu.Lock()
	ds.dropped = true
	ds.saveMu.Unlock()
	e.fireDropHooks(name)
	return n, nil
}

// unreleaseDataset rolls a failed Release back: the dataset returns to
// the registry (if its name was not taken meanwhile) and serves again.
func (e *Engine) unreleaseDataset(name string, ds *Dataset, wasResident bool) {
	e.mu.Lock()
	ds.mu.Lock()
	ds.detached = false
	delete(e.releasedNames, name)
	if _, taken := e.datasets[name]; !taken {
		ds.eng = e
		e.datasets[name] = ds
		if wasResident {
			e.resident += tableBytes(ds.params.U)
		}
		e.touchLocked(ds)
	}
	ds.mu.Unlock()
	e.mu.Unlock()
}

// Adopt registers a dataset from a checkpoint file already present in
// the data dir — the receiving half of a handoff, or the repair path
// after a shard loss (move the lost shard's files, adopt each). It is
// Recover for one named file: the checkpoint is fully validated, loaded
// resident if the memory budget allows and evicted otherwise, and the
// update count it covers is returned. Adopting a name that is already
// registered is an error — the router flips a route only after the
// source released, so a collision means two owners.
func (e *Engine) Adopt(name string) (uint64, error) {
	if err := checkName(name); err != nil {
		return 0, err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dataDir == "" {
		return 0, fmt.Errorf("engine: Adopt needs a data dir (SetDataDir)")
	}
	if _, ok := e.datasets[name]; ok {
		return 0, fmt.Errorf("engine: dataset %q is already registered; refusing to adopt a second owner", name)
	}
	if e.maxDatasets > 0 && len(e.datasets) >= e.maxDatasets {
		return 0, fmt.Errorf("engine: dataset limit of %d reached; %q not adopted", e.maxDatasets, name)
	}
	ckpt, err := store.Load(filepath.Join(e.dataDir, fileForName(name)), e.f.Modulus())
	if err != nil {
		return 0, fmt.Errorf("engine: adopting %q: %w", name, err)
	}
	ds, err := shellForCheckpoint(e.f, ckpt, e.workers)
	if err != nil {
		return 0, fmt.Errorf("engine: adopting %q: %w", name, err)
	}
	ds.name = name
	ds.eng = e
	if err := ds.checkCheckpoint(ckpt); err != nil {
		return 0, fmt.Errorf("engine: adopting %q: %w", name, err)
	}
	size := tableBytes(ds.params.U)
	if e.budget <= 0 || e.resident+size <= e.budget {
		st, err := ds.stateFromCheckpoint(ckpt)
		if err != nil {
			return 0, fmt.Errorf("engine: adopting %q: %w", name, err)
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
	delete(e.releasedNames, name)
	return ckpt.Updates, nil
}
