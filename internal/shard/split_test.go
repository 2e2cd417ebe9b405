package shard

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire"
)

// seamKinds is the split-universe seam: the query kinds a split dataset
// can serve (engine.NewPartialProver's coverage).
func seamKinds() []struct {
	kind   wire.QueryKind
	params wire.QueryParams
} {
	return []struct {
		kind   wire.QueryKind
		params wire.QueryParams
	}{
		{wire.QuerySelfJoinSize, wire.QueryParams{}},
		{wire.QueryFk, wire.QueryParams{K: 3}},
		{wire.QueryRangeSum, wire.QueryParams{A: 17, B: 180}},
	}
}

// splitShards spins up `slices` shard servers (Workers and
// MaxConcurrentQueries as given) and a router splitting the named
// dataset across all of them, one slice each.
func splitShards(t *testing.T, workers, maxQueries, slices int, dataset string) (routerAddr string, r *Router, tbl *Table) {
	t.Helper()
	var shards []ShardInfo
	owners := make([]string, slices)
	for k := 0; k < slices; k++ {
		name := fmt.Sprintf("s%d", k+1)
		dir := t.TempDir()
		srv := &wire.Server{F: f61, Workers: workers, MaxConcurrentQueries: maxQueries, DataDir: dir}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr, DataDir: dir})
		owners[k] = name
	}
	tbl = &Table{Shards: shards, Splits: map[string]*SplitSpec{dataset: {Slices: slices, Owners: owners}}}
	addr, r, stop := startRouter(t, tbl)
	t.Cleanup(stop)
	return addr, r, tbl
}

// runSeam runs the seam kinds over one attached client — serially or
// all overlapped — and returns each kind's recorded transcript.
func runSeam(t *testing.T, c *wire.Client, u uint64, ups []stream.Update, seedBase uint64, overlap bool) [][]core.Msg {
	t.Helper()
	kinds := seamKinds()
	out := make([][]core.Msg, len(kinds))
	recs := make([]*recordingVerifier, len(kinds))
	handles := make([]*wire.QueryHandle, len(kinds))
	for k, q := range kinds {
		v, obs := newVerifier(t, u, q.kind, q.params, seedBase+uint64(k))
		for _, up := range ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
		recs[k] = &recordingVerifier{inner: v}
		if !overlap {
			if _, err := c.Query(q.kind, q.params, recs[k]); err != nil {
				t.Fatalf("kind %d: %v", q.kind, err)
			}
			out[k] = recs[k].msgs
			continue
		}
		h, err := c.QueryAsync(q.kind, q.params, recs[k])
		if err != nil {
			t.Fatalf("QueryAsync kind %d: %v", q.kind, err)
		}
		handles[k] = h
	}
	if overlap {
		for k, h := range handles {
			if _, err := h.Wait(); err != nil {
				t.Fatalf("kind %d rejected: %v", kinds[k].kind, err)
			}
			out[k] = recs[k].msgs
		}
	}
	return out
}

// TestSplitUniverseMatchesSingleEngine is the tentpole contract: a
// client pointed at a router splitting one dataset across S shards gets
// bit-identical transcripts — and bit-identical cached Fiat–Shamir
// proof bytes — to the same workload against one engine holding the
// whole dataset, for every seam kind, serial and overlapped, S ∈
// {1, 2, 4}, with and without worker parallelism on the shards.
func TestSplitUniverseMatchesSingleEngine(t *testing.T) {
	const u = 500 // pads to 512: S=4 slices of width 128
	ups := stream.UniformDeltas(u, 120, field.NewSplitMix64(8100))
	more := stream.UnitIncrements(u, 40, field.NewSplitMix64(8101))

	for _, workers := range []int{0, -1} {
		for _, slices := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("workers=%d/slices=%d", workers, slices), func(t *testing.T) {
				baseAddr, stopBase := startShard(t, &wire.Server{F: f61, Workers: workers})
				defer stopBase()
				routerAddr, r, _ := splitShards(t, workers, 0, slices, "big")

				type run struct {
					serial, overlapped [][]core.Msg
					proofs             [][]byte
					count              uint64
				}
				drive := func(addr string, seedBase uint64) run {
					c := dialT(t, addr)
					if n, err := c.OpenDataset("big", u); err != nil || n != 0 {
						t.Fatalf("open: count %d, err %v", n, err)
					}
					if n, err := c.Ingest(ups); err != nil || n != uint64(len(ups)) {
						t.Fatalf("ingest: count %d, err %v", n, err)
					}
					// An empty batch must not skew the version on either path.
					if n, err := c.Ingest(nil); err != nil || n != uint64(len(ups)) {
						t.Fatalf("empty ingest: count %d, err %v", n, err)
					}
					serial := runSeam(t, c, u, ups, seedBase, false)
					count, err := c.Ingest(more)
					if err != nil {
						t.Fatal(err)
					}
					all := append(append([]stream.Update(nil), ups...), more...)
					overlapped := runSeam(t, c, u, all, seedBase+100, true)
					var proofs [][]byte
					for _, q := range seamKinds() {
						pf, err := c.FetchProof(q.kind, q.params, 0)
						if err != nil {
							t.Fatalf("proof kind %d: %v", q.kind, err)
						}
						// Fetch again: the second serve must come out identical
						// (and, on the router, from its split-proof cache).
						pf2, err := c.FetchProof(q.kind, q.params, 0)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(pf.Encode(), pf2.Encode()) {
							t.Fatalf("kind %d: repeated proof fetch returned different bytes", q.kind)
						}
						proofs = append(proofs, pf.Encode())
					}
					return run{serial: serial, overlapped: overlapped, proofs: proofs, count: count}
				}

				base := drive(baseAddr, 80_000)
				routed := drive(routerAddr, 80_000)
				if base.count != routed.count {
					t.Fatalf("update counts diverge: %d vs %d", base.count, routed.count)
				}
				for k := range base.serial {
					if err := sameTranscript(base.serial[k], routed.serial[k]); err != nil {
						t.Errorf("kind %d serial: %v", seamKinds()[k].kind, err)
					}
					if err := sameTranscript(base.overlapped[k], routed.overlapped[k]); err != nil {
						t.Errorf("kind %d overlapped: %v", seamKinds()[k].kind, err)
					}
					if !bytes.Equal(base.proofs[k], routed.proofs[k]) {
						t.Errorf("kind %d: split proof bytes differ from the single-engine proof", seamKinds()[k].kind)
					}
				}
				if st := r.proofCacheRef().Stats(); st.Hits == 0 || st.Misses == 0 {
					t.Errorf("router split-proof cache unused: %+v", st)
				}
			})
		}
	}
}

// TestSplitRefusals pins the split path's error discipline: serial
// queries and slice opens are connection-fatal protocol refusals,
// non-seam kinds and nested partials fail per-channel (the connection
// survives), version pins and protocol-refused queries use a single
// server's exact text, and admin moves of a split dataset point at
// RebalanceSlice.
func TestSplitRefusals(t *testing.T) {
	const u = 200
	routerAddr, _, _ := splitShards(t, 0, 0, 2, "big")
	baseAddr, stopBase := startShard(t, &wire.Server{F: f61})
	defer stopBase()

	c, base := dialT(t, routerAddr), dialT(t, baseAddr) // the split; one engine, same data
	ups := stream.UniformDeltas(u, 30, field.NewSplitMix64(8300))
	for _, cl := range []*wire.Client{c, base} {
		if _, err := cl.OpenDataset("big", u); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Ingest(ups); err != nil {
			t.Fatal(err)
		}
	}

	// Non-seam kind: per-channel refusal with the engine's typed text;
	// the connection keeps serving.
	v0, _ := newVerifier(t, u, wire.QueryF0, wire.QueryParams{}, 8301)
	if _, err := c.Query(wire.QueryF0, wire.QueryParams{}, v0); err == nil ||
		!strings.Contains(err.Error(), "split-universe seam") {
		t.Fatalf("F0 on a split dataset = %v, want a seam refusal", err)
	}
	// Nested partial: per-channel refusal, connection still live.
	conv, err := c.PartialQuery(wire.QuerySelfJoinSize, wire.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conv.Msg(); err == nil || !strings.Contains(err.Error(), "nest") {
		t.Fatalf("partial on a split dataset = %v, want a nesting refusal", err)
	}
	_ = conv.Finish()
	// Seam proof with a stale version pin: the server's exact refusal.
	if _, err := c.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 99); err == nil ||
		!strings.Contains(err.Error(), "is not current") {
		t.Fatalf("stale version pin = %v, want the not-current refusal", err)
	}
	// Non-seam proof: per-channel seam refusal.
	if _, err := c.FetchProof(wire.QueryF0, wire.QueryParams{}, 0); err == nil ||
		!strings.Contains(err.Error(), "split-universe seam") {
		t.Fatalf("F0 proof = %v, want a seam refusal", err)
	}
	// A query the protocol itself refuses — constructor (Fk order) or
	// SetQuery (range) rejected parameters, an unknown kind — reads the
	// same through the split as from the single engine, conversation and
	// posted proof alike.
	for _, q := range []struct {
		kind   wire.QueryKind
		params wire.QueryParams
	}{
		{wire.QueryFk, wire.QueryParams{K: 0}}, {wire.QueryFk, wire.QueryParams{K: -3}},
		{wire.QueryRangeSum, wire.QueryParams{A: 9, B: 3}}, {wire.QueryRangeSum, wire.QueryParams{A: 0, B: 256}},
		{99, wire.QueryParams{}}, {0, wire.QueryParams{}},
	} {
		_, wantQ := base.Query(q.kind, q.params, v0)
		_, gotQ := c.Query(q.kind, q.params, v0)
		_, wantP := base.FetchProof(q.kind, q.params, 0)
		_, gotP := c.FetchProof(q.kind, q.params, 0)
		for _, e := range [][2]error{{wantQ, gotQ}, {wantP, gotP}} {
			if e[0] == nil || e[1] == nil || e[0].Error() != e[1].Error() {
				t.Errorf("kind %d %+v: split router says %q, single engine %q", q.kind, q.params, e[1], e[0])
			}
		}
	}
	// The connection survived every refusal: a seam query works.
	v, obs := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 8302)
	for _, up := range ups {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v); err != nil {
		t.Fatalf("seam query after refusals: %v", err)
	}
	// Whole-dataset handoff of a split dataset: refused by name.
	if _, err := c.Handoff("big"); err == nil || !strings.Contains(err.Error(), "RebalanceSlice") {
		t.Fatalf("handoff of a split dataset = %v, want a RebalanceSlice pointer", err)
	}

	// OpenDatasetSlice is shard-facing; from a client it is fatal.
	c2 := dialT(t, routerAddr)
	if _, err := c2.OpenDatasetSlice("big", u, 0, 128); err == nil ||
		!strings.Contains(err.Error(), "open the dataset by name") {
		t.Fatalf("client open-slice through router = %v, want a refusal", err)
	}

	// A budget refusal at an owner (its cap of one concurrent query, hit
	// by a second overlapped query) reads byte for byte like a single
	// engine's, stays typed, and the connection keeps serving.
	cappedSplit, _, _ := splitShards(t, 0, 1, 2, "big")
	cappedBase, stopCapped := startShard(t, &wire.Server{F: f61, MaxConcurrentQueries: 1})
	defer stopCapped()
	observed := func(kind wire.QueryKind, params wire.QueryParams, seed uint64) core.VerifierSession {
		v, obs := newVerifier(t, u, kind, params, seed)
		for _, up := range ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
		return v
	}
	var budget [2]error
	for i, addr := range []string{cappedSplit, cappedBase} {
		cl := dialT(t, addr)
		if _, err := cl.OpenDataset("big", u); err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		sv := &stallVerifier{inner: observed(wire.QuerySelfJoinSize, wire.QueryParams{}, 8303), gate: make(chan struct{})}
		h, err := cl.QueryAsync(wire.QuerySelfJoinSize, wire.QueryParams{}, sv)
		if err != nil {
			t.Fatal(err)
		}
		_, budget[i] = cl.Query(wire.QueryFk, wire.QueryParams{K: 3}, observed(wire.QueryFk, wire.QueryParams{K: 3}, 8304))
		close(sv.gate)
		if _, err := h.Wait(); err != nil {
			t.Fatalf("stalled conversation: %v", err)
		}
		if _, err := cl.Query(wire.QueryRangeSum, wire.QueryParams{A: 17, B: 180}, observed(wire.QueryRangeSum, wire.QueryParams{A: 17, B: 180}, 8305)); err != nil {
			t.Fatalf("query after the budget refusal: %v", err)
		}
	}
	if !errors.Is(budget[0], wire.ErrBudget) || !errors.Is(budget[1], wire.ErrBudget) || budget[0].Error() != budget[1].Error() {
		t.Fatalf("over-cap query: split router says %v, single engine %v; want the same ErrBudget", budget[0], budget[1])
	}
}

// TestSplitSliceRebalanceMidIngest moves one slice between shards while
// the client streams batches through the router. The proxy's delivery
// retry re-attaches to the slice's new home, so no acked batch is lost
// and the post-move data answers queries identically to an engine that
// saw exactly the acked stream.
func TestSplitSliceRebalanceMidIngest(t *testing.T) {
	const u = 200 // pads to 256; 2 slices of width 128
	const batches = 12

	var shards []ShardInfo
	for _, name := range []string{"s1", "s2", "s3"} {
		dir := t.TempDir()
		srv := &wire.Server{F: f61, DataDir: dir}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr, DataDir: dir})
	}
	tbl := &Table{Shards: shards, Splits: map[string]*SplitSpec{
		"big": {Slices: 2, Owners: []string{"s1", "s2"}},
	}}
	routerAddr, r, stop := startRouter(t, tbl)
	defer stop()

	mk := func(i int) []stream.Update {
		return stream.UnitIncrements(u, 16, field.NewSplitMix64(uint64(8400+i)))
	}
	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("big", u); err != nil {
		t.Fatal(err)
	}

	rebalanced := make(chan error, 1)
	var acked []stream.Update
	var ackedCount uint64
	for i := 0; i < batches; i++ {
		if i == 3 {
			go func() { rebalanced <- r.RebalanceSlice("big", 1, "s3") }()
		}
		batch := mk(i)
		for attempt := 0; ; attempt++ {
			count, err := c.Ingest(batch)
			if err == nil {
				ackedCount = count
				break
			}
			if attempt > 10 {
				t.Fatalf("batch %d: %v after %d attempts", i, err, attempt)
			}
			c.Close()
			c = dialT(t, routerAddr)
			if _, err := c.OpenDataset("big", u); err != nil {
				t.Fatalf("re-open after slice rebalance: %v", err)
			}
		}
		acked = append(acked, batch...)
	}
	if err := <-rebalanced; err != nil {
		t.Fatalf("slice rebalance: %v", err)
	}
	if ackedCount != uint64(len(acked)) {
		t.Fatalf("server count %d != acked updates %d: an acked batch was lost or doubled", ackedCount, len(acked))
	}
	if got := r.Table().Splits["big"].Owners; got[0] != "s1" || got[1] != "s3" {
		t.Fatalf("owners after slice rebalance = %v, want [s1 s3]", got)
	}
	// The moved slice lives on s3 (direct slice open, bypassing the
	// router) and holds its share of the acked updates.
	var want1 uint64
	for _, up := range acked {
		if up.Index >= 128 {
			want1++
		}
	}
	cd := dialT(t, shardAddr(tbl, "s3"))
	if count, err := cd.OpenDatasetSlice("big", u, 128, 256); err != nil || count != want1 {
		t.Fatalf("slice on s3: count = %d, err = %v, want %d", count, err, want1)
	}
	// A verifier that observed exactly the acked stream accepts through
	// the router against the new owner set.
	v, obs := newVerifier(t, u, wire.QuerySelfJoinSize, wire.QueryParams{}, 8499)
	for _, up := range acked {
		if err := obs(up); err != nil {
			t.Fatal(err)
		}
	}
	c2 := dialT(t, routerAddr)
	if n, err := c2.OpenDataset("big", u); err != nil || n != ackedCount {
		t.Fatalf("re-open after move: count %d, err %v", n, err)
	}
	if _, err := c2.Query(wire.QuerySelfJoinSize, wire.QueryParams{}, v); err != nil {
		t.Fatalf("query after slice rebalance rejected: %v", err)
	}
}

// TestDialBackoffBudget: a dead backend fails typed within the retry
// budget, not after an unbounded attempts × timeout product.
func TestDialBackoffBudget(t *testing.T) {
	// A listener opened and immediately closed: a port that refuses.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	start := time.Now()
	_, err = dialBackoff(deadAddr, time.Second, 300*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("dial of a dead address succeeded")
	}
	if !errors.Is(err, ErrBackendUnavailable) {
		t.Fatalf("dial error %v is not ErrBackendUnavailable", err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("dead dial took %v, want within the ~300ms budget (plus scheduling slack)", elapsed)
	}

	// Through the router: a client opening a dataset routed to the dead
	// shard sees the typed failure promptly.
	tbl := &Table{
		Shards: []ShardInfo{{Name: "dead", Addr: deadAddr}},
		Routes: map[string]string{"ds": "dead"},
	}
	r, err := NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r.DialRetryBudget = 300 * time.Millisecond
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(rln) }()
	defer r.Close()

	c := dialT(t, rln.Addr().String())
	start = time.Now()
	_, err = c.OpenDataset("ds", 64)
	elapsed = time.Since(start)
	if err == nil || !strings.Contains(err.Error(), "backend unavailable") {
		t.Fatalf("open against a dead shard = %v, want a backend-unavailable refusal", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("dead-shard open took %v, want bounded by the dial retry budget", elapsed)
	}
}

// TestTableSwapRaces hammers SetTable, hot-reload, and OPEN placement
// around a live Rebalance under the race detector. The invariant: no
// OPEN ever lands on a stale route after the flip — which would observe
// a freshly recreated, EMPTY dataset on the released source.
func TestTableSwapRaces(t *testing.T) {
	const u = 128
	var shards []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		dir := t.TempDir()
		srv := &wire.Server{F: f61, DataDir: dir}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr, DataDir: dir})
	}
	path := t.TempDir() + "/table.json"
	tbl := &Table{Shards: shards, Routes: map[string]string{"hot": "s1"}}
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	r, err := NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r.TablePath = path
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()
	defer r.Close()
	routerAddr := ln.Addr().String()

	c := dialT(t, routerAddr)
	if _, err := c.OpenDataset("hot", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(stream.UnitIncrements(u, 64, field.NewSplitMix64(8600))); err != nil {
		t.Fatal(err)
	}
	c.Close()

	done := make(chan struct{})
	// Set once the migration starts: from then on the hammers stop
	// persisting snapshots (a snapshot taken before the flip and saved
	// or installed after it would revert the route — that is operator
	// garbage-in, not a router race, so the test does not model it). A
	// hammer holds swapMu's read lock from its check through its swap or
	// save, so once migrating is set under the write lock no pre-flip
	// snapshot is still in flight.
	var (
		swapMu    sync.RWMutex
		migrating bool
	)
	var wg sync.WaitGroup
	// OPEN hammer: every successful attach must see the ingested count.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			cc, err := wire.Dial(routerAddr)
			if err != nil {
				continue
			}
			cc.Timeout = 30 * time.Second
			count, err := cc.OpenDataset("hot", u)
			cc.Close()
			if err == nil && count == 0 {
				t.Error("OPEN attached to a stale route: dataset recreated empty on the released source")
				return
			}
		}
	}()
	// SetTable hammer: swap in fresh snapshots; mid-migration swaps must
	// be refused, never clobber the flip.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			swapMu.RLock()
			var err error
			if !migrating {
				snap := r.Table()
				err = r.SetTable(&snap)
			}
			swapMu.RUnlock()
			if err != nil && !errors.Is(err, ErrMigrationInFlight) {
				t.Errorf("SetTable: %v", err)
				return
			}
		}
	}()
	// Hot-reload hammer: persist fresh snapshots and force reloads.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			swapMu.RLock()
			var err error
			if !migrating {
				snap := r.Table()
				err = snap.Save(path)
			}
			swapMu.RUnlock()
			if err != nil {
				t.Errorf("save: %v", err)
				return
			}
			// The flip itself rewrites the file, so post-migration
			// reloads still do real work.
			r.maybeReloadTable()
		}
	}()

	time.Sleep(20 * time.Millisecond)
	swapMu.Lock()
	migrating = true
	swapMu.Unlock()
	if err := r.Rebalance("hot", "s2"); err != nil {
		t.Fatalf("rebalance under churn: %v", err)
	}
	// Let the hammers chew on the post-flip state before stopping.
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()

	if got := r.Table().Routes["hot"]; got != "s2" {
		t.Fatalf("route after rebalance = %q, want s2", got)
	}
	cc := dialT(t, routerAddr)
	if count, err := cc.OpenDataset("hot", u); err != nil || count != 64 {
		t.Fatalf("post-race open: count = %d, err = %v, want 64", count, err)
	}
}

// TestAggregatedStats: with AggregateStats set, one stats request fans
// out to every shard and merges — summed proof-cache counters, the
// per-shard breakdown, and the router's own split-proof cache under
// "router".
func TestAggregatedStats(t *testing.T) {
	const u = 200
	var shards []ShardInfo
	for _, name := range []string{"s1", "s2"} {
		srv := &wire.Server{F: f61}
		addr, stop := startShard(t, srv)
		t.Cleanup(stop)
		shards = append(shards, ShardInfo{Name: name, Addr: addr})
	}
	tbl := &Table{
		Shards: shards,
		Routes: map[string]string{"solo": "s1"},
		Splits: map[string]*SplitSpec{"big": {Slices: 2, Owners: []string{"s1", "s2"}}},
	}
	r, err := NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r.AggregateStats = true
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = r.Serve(ln) }()
	defer r.Close()
	routerAddr := ln.Addr().String()

	ups := stream.UniformDeltas(u, 30, field.NewSplitMix64(8700))
	// One whole-dataset proof (lands in s1's cache) and one split proof
	// (lands in the router's own cache).
	c1 := dialT(t, routerAddr)
	if _, err := c1.OpenDataset("solo", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0); err != nil {
		t.Fatal(err)
	}
	c2 := dialT(t, routerAddr)
	if _, err := c2.OpenDataset("big", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0); err != nil {
		t.Fatal(err)
	}

	st, err := c2.ServerStats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 3 {
		t.Fatalf("breakdown has %d entries (%v), want s1, s2, router", len(st.Shards), st.Shards)
	}
	for _, name := range []string{"s1", "s2", "router"} {
		if _, ok := st.Shards[name]; !ok {
			t.Fatalf("breakdown is missing %q: %v", name, st.Shards)
		}
	}
	if st.Shards["s1"].ProofCache.Misses != 1 {
		t.Errorf("s1 misses = %d, want 1 (the solo proof)", st.Shards["s1"].ProofCache.Misses)
	}
	if st.Shards["router"].ProofCache.Misses != 1 {
		t.Errorf("router misses = %d, want 1 (the split proof)", st.Shards["router"].ProofCache.Misses)
	}
	wantMisses := st.Shards["s1"].ProofCache.Misses + st.Shards["s2"].ProofCache.Misses + st.Shards["router"].ProofCache.Misses
	if st.ProofCache.Misses != wantMisses {
		t.Errorf("summed misses = %d, want %d", st.ProofCache.Misses, wantMisses)
	}
	// The direct method agrees with the wire reply.
	direct, err := r.AggregatedStats()
	if err != nil {
		t.Fatal(err)
	}
	if direct.ProofCache.Misses != st.ProofCache.Misses {
		t.Errorf("AggregatedStats misses = %d, wire reply said %d", direct.ProofCache.Misses, st.ProofCache.Misses)
	}
}

// TestSplitTableRoundTrip: split specs survive save/load, and validate
// rejects the malformed ones.
func TestSplitTableRoundTrip(t *testing.T) {
	shards := []ShardInfo{{Name: "a", Addr: "x:1"}, {Name: "b", Addr: "x:2"}, {Name: "c", Addr: "x:3"}}
	tbl := &Table{
		Shards: shards,
		Splits: map[string]*SplitSpec{"big": {Slices: 2, Owners: []string{"a", "b"}}},
	}
	path := t.TempDir() + "/table.json"
	if err := tbl.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTable(path)
	if err != nil {
		t.Fatal(err)
	}
	sp := got.Splits["big"]
	if sp == nil || sp.Slices != 2 || sp.Owners[0] != "a" || sp.Owners[1] != "b" {
		t.Fatalf("round trip mangled the split spec: %+v", sp)
	}
	if _, err := got.Place("big"); err == nil {
		t.Fatal("Place on a split dataset must error: it has no single home")
	}

	bad := []Table{
		{Shards: shards, Splits: map[string]*SplitSpec{"x": {Slices: 3, Owners: []string{"a", "b", "c"}}}},                            // not a power of two
		{Shards: shards, Splits: map[string]*SplitSpec{"x": {Slices: 2, Owners: []string{"a"}}}},                                      // owner count mismatch
		{Shards: shards, Splits: map[string]*SplitSpec{"x": {Slices: 2, Owners: []string{"a", "a"}}}},                                 // duplicate owner
		{Shards: shards, Splits: map[string]*SplitSpec{"x": {Slices: 2, Owners: []string{"a", "nope"}}}},                              // unknown owner
		{Shards: shards, Routes: map[string]string{"x": "a"}, Splits: map[string]*SplitSpec{"x": {Slices: 1, Owners: []string{"b"}}}}, // routed and split
	}
	for i := range bad {
		if err := bad[i].validate(); err == nil {
			t.Errorf("malformed table %d validated", i)
		}
	}

	// A deep clone is isolated from later mutation.
	cl := tbl.clone()
	tbl.Splits["big"].Owners[0] = "c"
	if cl.Splits["big"].Owners[0] != "a" {
		t.Fatal("clone shares owner storage with the original")
	}
}

// TestSetTableRefusedMidMigration: while any migration gate is open,
// SetTable is refused with the typed error (a swapped-in table could
// silently revert the flip the migration is about to make).
func TestSetTableRefusedMidMigration(t *testing.T) {
	tbl := &Table{Shards: []ShardInfo{{Name: "a", Addr: "x:1"}, {Name: "b", Addr: "x:2"}}}
	r, err := NewRouter(tbl)
	if err != nil {
		t.Fatal(err)
	}
	r.mu.Lock()
	gate := make(chan struct{})
	r.migrating["ds"] = gate
	r.mu.Unlock()

	snap := r.Table()
	if err := r.SetTable(&snap); !errors.Is(err, ErrMigrationInFlight) {
		t.Fatalf("SetTable during a migration = %v, want ErrMigrationInFlight", err)
	}
	r.mu.Lock()
	close(gate)
	delete(r.migrating, "ds")
	r.mu.Unlock()
	if err := r.SetTable(&snap); err != nil {
		t.Fatalf("SetTable after the migration settled: %v", err)
	}
}
