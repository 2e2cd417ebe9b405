// Rebalancing: moving a dataset between shards by checkpoint handoff,
// and the shard-loss repair path that adopts a dead shard's checkpoint
// files wholesale.
//
// The move protocol, in order, with what each step guarantees:
//
//  1. Freeze: new OPENs of the dataset block at the router until the
//     move settles, so no connection can attach to the source after its
//     release.
//  2. Handoff (admin frame → engine.Release on the source): the source
//     persists the final checkpoint, detaches the dataset, and fails
//     every later use of stale attachments with a typed "released for
//     handoff" error — an in-flight ingest batch either lands in full
//     before the final save or fails in full; no acked batch is lost.
//  3. Move: the checkpoint file travels between the shards' data dirs
//     (rename, with a copy fallback across filesystems).
//  4. Adopt (admin frame → engine.Adopt on the target): the target
//     validates and registers the checkpoint; its update count must
//     equal the handoff's.
//  5. Flip: the router pins dataset → target in the routing table (and
//     persists it when TablePath is set), then unfreezes.
//
// A client whose connection died at step 2 reconnects, re-opens (now
// routed to the target), and re-sends its unacknowledged batches —
// ingest acks are per batch, so the client knows exactly which ones.
package shard

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
)

// adminTimeout bounds each admin call a rebalance makes to a shard.
const adminTimeout = 30 * time.Second

// Rebalance moves a dataset to the named target shard by checkpoint
// handoff and flips its route. New OPENs of the dataset are frozen for
// the duration; existing attachments to the source fail typed on next
// use and re-route on reconnect. The dataset must currently exist on
// its placed shard.
func (r *Router) Rebalance(dataset, target string) error {
	tgt, src, err := r.freezeFor(dataset, target)
	if err != nil {
		return err
	}
	defer r.unfreeze(dataset)
	if src.Name == tgt.Name {
		// Already home: just pin the route so a shard-set change cannot
		// move it by rehash.
		return r.flipRoute(dataset, tgt.Name)
	}
	if err := handoff(dataset, fmt.Sprintf("%q", dataset), src, tgt); err != nil {
		return err
	}
	return r.flipRoute(dataset, tgt.Name)
}

// handoff moves the dataset's checkpoint from src to tgt: Handoff on the
// source, the file move, Adopt on the target, and the check that the
// target adopted every update the source released (steps 2–4 above).
// what names the moved data in errors: the dataset, or one of its slices.
func handoff(dataset, what string, src, tgt ShardInfo) error {
	if src.DataDir == "" || tgt.DataDir == "" {
		return fmt.Errorf("shard: rebalance needs data dirs on both %q and %q", src.Name, tgt.Name)
	}
	released, err := adminCall(src.Addr, func(c *wire.Client) (uint64, error) { return c.Handoff(dataset) })
	if err != nil {
		return fmt.Errorf("shard: handoff of %s from %q: %w", what, src.Name, err)
	}
	file := store.DatasetFile(dataset)
	if err := moveFile(filepath.Join(src.DataDir, file), filepath.Join(tgt.DataDir, file)); err != nil {
		return fmt.Errorf("shard: moving checkpoint of %s: %w", what, err)
	}
	adopted, err := adminCall(tgt.Addr, func(c *wire.Client) (uint64, error) { return c.Adopt(dataset) })
	if err != nil {
		return fmt.Errorf("shard: adopt of %s on %q: %w", what, tgt.Name, err)
	}
	if adopted != released {
		return fmt.Errorf("shard: handoff of %s released %d updates but %q adopted %d — checkpoint mismatch",
			what, released, tgt.Name, adopted)
	}
	return nil
}

// Evacuate is the shard-loss path: the named shard's process is gone
// but its data dir is still reachable. Every checkpoint file it holds
// is moved to the target shard's data dir, adopted there, and routed.
// It returns the datasets recovered. Nothing is handed off — the dead
// shard cannot release — so Evacuate must only run once the lost shard
// is actually down: a live source would keep serving stale data.
func (r *Router) Evacuate(lost, target string) ([]string, error) {
	r.mu.Lock()
	lostS, ok1 := r.table.Shard(lost)
	tgt, ok2 := r.table.Shard(target)
	r.mu.Unlock()
	if !ok1 {
		return nil, fmt.Errorf("shard: unknown shard %q", lost)
	}
	if !ok2 {
		return nil, fmt.Errorf("shard: unknown shard %q", target)
	}
	if lost == target {
		return nil, fmt.Errorf("shard: cannot evacuate %q onto itself", lost)
	}
	if lostS.DataDir == "" || tgt.DataDir == "" {
		return nil, fmt.Errorf("shard: evacuation needs data dirs on both %q and %q", lost, target)
	}
	ents, err := os.ReadDir(lostS.DataDir)
	if err != nil {
		return nil, fmt.Errorf("shard: reading lost shard's data dir: %w", err)
	}
	var moved []string
	var errs []error
	for _, ent := range ents {
		if ent.IsDir() || !strings.HasSuffix(ent.Name(), store.CkptExt) {
			continue
		}
		name, err := store.DatasetName(ent.Name())
		if err != nil {
			errs = append(errs, err)
			continue
		}
		if err := func() error {
			r.freeze(name)
			defer r.unfreeze(name)
			if err := moveFile(filepath.Join(lostS.DataDir, ent.Name()), filepath.Join(tgt.DataDir, ent.Name())); err != nil {
				return err
			}
			if _, err := adminCall(tgt.Addr, func(c *wire.Client) (uint64, error) { return c.Adopt(name) }); err != nil {
				return err
			}
			return r.flipRoute(name, target)
		}(); err != nil {
			errs = append(errs, fmt.Errorf("dataset %q: %w", name, err))
			continue
		}
		moved = append(moved, name)
	}
	return moved, errors.Join(errs...)
}

// freezeFor resolves the move's endpoints and freezes the dataset's
// placement in one step, so the source it returns is exactly the shard
// every pre-freeze OPEN attached to.
func (r *Router) freezeFor(dataset, target string) (tgt, src ShardInfo, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	tgt, ok := r.table.Shard(target)
	if !ok {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: unknown target shard %q", target)
	}
	src, err = r.table.Place(dataset)
	if err != nil {
		return ShardInfo{}, ShardInfo{}, err
	}
	if _, busy := r.migrating[dataset]; busy {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: dataset %q is already migrating", dataset)
	}
	r.migrating[dataset] = make(chan struct{})
	return tgt, src, nil
}

func (r *Router) freeze(dataset string) {
	r.mu.Lock()
	if _, busy := r.migrating[dataset]; !busy {
		r.migrating[dataset] = make(chan struct{})
	}
	r.mu.Unlock()
}

func (r *Router) unfreeze(dataset string) {
	r.mu.Lock()
	if ch, ok := r.migrating[dataset]; ok {
		close(ch)
		delete(r.migrating, dataset)
	}
	r.mu.Unlock()
}

// flipRoute pins dataset → shard in the table and persists it when the
// router has a TablePath.
func (r *Router) flipRoute(dataset, shardName string) error {
	return r.editTable(func(t *Table) error {
		if t.Routes == nil {
			t.Routes = make(map[string]string)
		}
		t.Routes[dataset] = shardName
		return nil
	})
}

// editTable applies edit to the live table under r.mu, then saves a
// snapshot of the edited table to TablePath, when set, outside r.mu so
// routing never waits on the disk. r.tableSave spans the edit and its
// save: saves land in the order of the edits, so an older snapshot never
// overwrites a newer one.
func (r *Router) editTable(edit func(*Table) error) error {
	r.tableSave.Lock()
	defer r.tableSave.Unlock()
	r.mu.Lock()
	if err := edit(r.table); err != nil {
		r.mu.Unlock()
		return err
	}
	tbl, path := r.table.clone(), r.TablePath
	r.mu.Unlock()
	if path == "" {
		return nil
	}
	return tbl.Save(path)
}

// RebalanceSlice moves one slice of a split dataset to the named target
// shard by the same checkpoint handoff as Rebalance, then flips the
// slice's owner in the split spec. New OPENs and scatter re-attachments
// of the dataset are frozen for the duration; the proxy's onSlice
// retry makes an in-flight ingest survive the move with no acked batch
// lost. The target must not already own another slice of the dataset —
// slice checkpoints are named by dataset alone, so two slices in one
// data dir would collide.
func (r *Router) RebalanceSlice(dataset string, slice int, target string) error {
	tgt, src, err := r.freezeForSlice(dataset, slice, target)
	if err != nil {
		return err
	}
	defer r.unfreeze(dataset)
	if src.Name == tgt.Name {
		return nil // already home; split owners are always explicit, nothing to pin
	}
	if err := handoff(dataset, fmt.Sprintf("%q slice %d", dataset, slice), src, tgt); err != nil {
		return err
	}
	return r.flipSliceOwner(dataset, slice, tgt.Name)
}

// freezeForSlice validates a slice move and freezes the dataset's
// placement in one step.
func (r *Router) freezeForSlice(dataset string, slice int, target string) (tgt, src ShardInfo, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	sp, ok := r.table.Splits[dataset]
	if !ok {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: dataset %q is not split; use Rebalance", dataset)
	}
	if slice < 0 || slice >= sp.Slices {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: dataset %q has slices 0..%d, not %d", dataset, sp.Slices-1, slice)
	}
	tgt, ok = r.table.Shard(target)
	if !ok {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: unknown target shard %q", target)
	}
	src, ok = r.table.Shard(sp.Owners[slice])
	if !ok {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: slice %d of %q owned by unknown shard %q", slice, dataset, sp.Owners[slice])
	}
	for k, name := range sp.Owners {
		if k != slice && name == target {
			return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: shard %q already owns slice %d of %q", target, k, dataset)
		}
	}
	if _, busy := r.migrating[dataset]; busy {
		return ShardInfo{}, ShardInfo{}, fmt.Errorf("shard: dataset %q is already migrating", dataset)
	}
	r.migrating[dataset] = make(chan struct{})
	return tgt, src, nil
}

// flipSliceOwner records the slice's new home in the split spec and
// persists the table when the router has a TablePath.
func (r *Router) flipSliceOwner(dataset string, slice int, shardName string) error {
	return r.editTable(func(t *Table) error {
		sp, ok := t.Splits[dataset]
		if !ok || slice < 0 || slice >= len(sp.Owners) {
			return fmt.Errorf("shard: dataset %q slice %d vanished from the split spec mid-move", dataset, slice)
		}
		sp.Owners[slice] = shardName
		return nil
	})
}

// adminCall dials a shard, runs one admin call, and hangs up.
func adminCall(addr string, fn func(*wire.Client) (uint64, error)) (uint64, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	c.Timeout = adminTimeout
	return fn(c)
}

// moveFile renames src onto dst, falling back to a copy when the data
// dirs live on different filesystems. The copy is a store.WriteAtomic,
// so the target engine can never adopt a half-written checkpoint, and
// the source goes only once the copy and its directory entry are on
// disk.
func moveFile(src, dst string) error {
	if err := os.Rename(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	if err := store.WriteAtomic(dst, in); err != nil {
		return err
	}
	return os.Remove(src)
}
