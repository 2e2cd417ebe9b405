// Package shard is the horizontal scaling layer of the prover service:
// a router that owns the client-facing listener and spreads named
// datasets across N independent engine processes ("shards"), speaking
// the v2 mux wire protocol transparently in both directions.
//
// Placement is per dataset, not per connection: an OPEN frame names a
// dataset, the router places it (consistent hashing over the shard set,
// overridable per dataset through the routing table), pins the
// connection's attachment to that shard, and from then on forwards
// conversation, PROOF, and ingest frames by channel id. A sip.Client or
// wire.Client pointed at the router works unchanged — typed refusals
// (budget frames, "not current" proof-version errors, unknown query
// kinds) pass through byte-for-byte.
//
// Rebalancing is checkpoint handoff, not state streaming: the source
// engine persists and releases the dataset (engine.Release), the router
// moves the checkpoint file between shard data dirs, the target adopts
// it (engine.Adopt), and the route flips. The checkpoint codec is
// deterministic and every prover reads the counts alone, so transcripts
// and cached-proof bytes are bit-identical across the move.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"sort"
)

// ShardInfo names one engine process: its registry name, the address
// its wire.Server listens on, and the data dir its checkpoints live in
// (the rebalancer moves .ckpt files between these dirs, so they must be
// reachable from wherever the rebalance runs).
type ShardInfo struct {
	Name    string
	Addr    string
	DataDir string
}

// Table is the routing state: the shard set plus explicit per-dataset
// placement overrides. Datasets without an override place by consistent
// hashing over the shard names, so adding a shard moves ~1/N of the
// unpinned datasets and a rebalance pins exactly the dataset it moved.
// The zero Routes map is valid (everything hashes).
type Table struct {
	Shards []ShardInfo
	// Routes maps dataset name → shard name, overriding the hash ring.
	// Rebalance writes the moved dataset's new home here, so a route,
	// once flipped, survives shard-set changes.
	Routes map[string]string `json:",omitempty"`
	// Splits maps dataset name → split-universe placement: the dataset
	// is too large for one engine, so each listed owner holds one
	// power-of-two slice of its padded universe and the router folds
	// their partial-prover messages into the single transcript a client
	// sees. A dataset is either routed or split, never both.
	Splits map[string]*SplitSpec `json:",omitempty"`
}

// SplitSpec places one split-universe dataset: slice k of Slices lives
// on shard Owners[k]. Slices must be a power of two (the sum-check
// folds the index space in half per round, so the slice boundary must
// sit on a fold boundary) and each owner must be a distinct registered
// shard — one slice per shard keeps the on-disk checkpoint name
// (derived from the dataset name alone) collision-free within a data
// dir.
type SplitSpec struct {
	Slices int
	Owners []string
}

// vnodesPerShard is the ring multiplicity: enough virtual nodes that
// the keyspace splits within a few percent of evenly for small N.
const vnodesPerShard = 150

// Shard returns the shard registered under name.
func (t *Table) Shard(name string) (ShardInfo, bool) {
	for _, s := range t.Shards {
		if s.Name == name {
			return s, true
		}
	}
	return ShardInfo{}, false
}

// Place resolves the shard serving a dataset: the explicit route if one
// is pinned, the consistent-hash owner otherwise.
func (t *Table) Place(dataset string) (ShardInfo, error) {
	if len(t.Shards) == 0 {
		return ShardInfo{}, fmt.Errorf("shard: table has no shards")
	}
	if _, split := t.Splits[dataset]; split {
		return ShardInfo{}, fmt.Errorf("shard: dataset %q is split across shards; it has no single placement", dataset)
	}
	if want, ok := t.Routes[dataset]; ok {
		s, ok := t.Shard(want)
		if !ok {
			return ShardInfo{}, fmt.Errorf("shard: dataset %q is routed to unknown shard %q", dataset, want)
		}
		return s, nil
	}
	ring := t.ring()
	h := hash64(dataset)
	i := sort.Search(len(ring), func(i int) bool { return ring[i].point >= h })
	if i == len(ring) {
		i = 0 // wrap: the successor of the largest point is the smallest
	}
	return t.Shards[ring[i].shard], nil
}

type ringEntry struct {
	point uint64
	shard int // index into Shards
}

// ring builds the sorted consistent-hash ring. Rebuilt per placement:
// placement happens once per OPEN frame, not per query, and N·vnodes is
// tiny; keeping the table a plain value keeps reload/serialize trivial.
func (t *Table) ring() []ringEntry {
	ring := make([]ringEntry, 0, len(t.Shards)*vnodesPerShard)
	for si, s := range t.Shards {
		for v := 0; v < vnodesPerShard; v++ {
			ring = append(ring, ringEntry{point: hash64(fmt.Sprintf("%s#%d", s.Name, v)), shard: si})
		}
	}
	sort.Slice(ring, func(i, j int) bool { return ring[i].point < ring[j].point })
	return ring
}

// hash64 is FNV-1a over the key, passed through a SplitMix64-style
// finalizer. FNV is stable across processes and Go versions — which a
// routing hash must be (a map-seeded hash would place datasets
// differently on every restart) — but on its own it avalanches the high
// bits poorly for keys differing only in trailing bytes: sequential
// dataset names ("ds-00", "ds-01", …) would hash within a span far
// smaller than one vnode arc and all land on the same shard. The
// finalizer spreads them across the ring.
func hash64(key string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	return mix64(h.Sum64())
}

// mix64 is the SplitMix64 output permutation (Steele et al.), a
// fixed bijection with full avalanche.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// validate rejects tables the router cannot serve from.
func (t *Table) validate() error {
	if len(t.Shards) == 0 {
		return fmt.Errorf("shard: table has no shards")
	}
	seen := make(map[string]struct{}, len(t.Shards))
	for _, s := range t.Shards {
		if s.Name == "" || s.Addr == "" {
			return fmt.Errorf("shard: every shard needs a name and an address (got %+v)", s)
		}
		if _, dup := seen[s.Name]; dup {
			return fmt.Errorf("shard: duplicate shard name %q", s.Name)
		}
		seen[s.Name] = struct{}{}
	}
	for ds, want := range t.Routes {
		if _, ok := t.Shard(want); !ok {
			return fmt.Errorf("shard: dataset %q is routed to unknown shard %q", ds, want)
		}
	}
	for ds, sp := range t.Splits {
		if sp == nil {
			return fmt.Errorf("shard: split dataset %q has no spec", ds)
		}
		if _, routed := t.Routes[ds]; routed {
			return fmt.Errorf("shard: dataset %q is both routed and split", ds)
		}
		if sp.Slices < 1 || sp.Slices&(sp.Slices-1) != 0 {
			return fmt.Errorf("shard: split dataset %q: slice count %d is not a power of two", ds, sp.Slices)
		}
		if len(sp.Owners) != sp.Slices {
			return fmt.Errorf("shard: split dataset %q: %d owners for %d slices", ds, len(sp.Owners), sp.Slices)
		}
		owners := make(map[string]struct{}, len(sp.Owners))
		for k, name := range sp.Owners {
			if _, ok := t.Shard(name); !ok {
				return fmt.Errorf("shard: split dataset %q: slice %d owned by unknown shard %q", ds, k, name)
			}
			if _, dup := owners[name]; dup {
				return fmt.Errorf("shard: split dataset %q: shard %q owns more than one slice", ds, name)
			}
			owners[name] = struct{}{}
		}
	}
	return nil
}

// clone deep-copies the table, so a snapshot handed out (or marshaled
// for Save) is immune to later in-place flips under the router's lock.
func (t *Table) clone() *Table {
	c := &Table{Shards: append([]ShardInfo(nil), t.Shards...)}
	if t.Routes != nil {
		c.Routes = make(map[string]string, len(t.Routes))
		for ds, s := range t.Routes {
			c.Routes[ds] = s
		}
	}
	if t.Splits != nil {
		c.Splits = make(map[string]*SplitSpec, len(t.Splits))
		for ds, sp := range t.Splits {
			c.Splits[ds] = &SplitSpec{Slices: sp.Slices, Owners: append([]string(nil), sp.Owners...)}
		}
	}
	return c
}

// LoadTable reads a routing table from its JSON file.
func LoadTable(path string) (*Table, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var t Table
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("shard: parsing table %s: %w", path, err)
	}
	if err := t.validate(); err != nil {
		return nil, fmt.Errorf("shard: table %s: %w", path, err)
	}
	return &t, nil
}

// Save writes the table back as JSON (atomically: temp file + rename),
// so a route flipped by a rebalance survives a router restart.
func (t *Table) Save(path string) error {
	b, err := json.MarshalIndent(t, "", "  ")
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, append(b, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
