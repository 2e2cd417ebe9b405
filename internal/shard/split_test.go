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

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/wire"
	"repro/internal/wire/frames"
)

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
	v0 := conformance.Verifier(t, u, conformance.Case{Kind: wire.QueryF0}, field.NewSplitMix64(8301), nil)
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
	// A kind with no posted proof: refused before a frame is written
	// (TestProofRefusedParamsCacheNothing sends the frame anyway).
	if _, err := c.FetchProof(wire.QueryF0, wire.QueryParams{}, 0); !errors.Is(err, wire.ErrNotPosted) {
		t.Fatalf("F0 proof = %v, want ErrNotPosted", err)
	}
	// A query the protocol itself refuses — constructor (Fk order) or
	// SetQuery (range) rejected parameters, an unknown kind — reads the
	// same through the split as from the single engine.
	for _, q := range []struct {
		kind   wire.QueryKind
		params wire.QueryParams
	}{
		{wire.QueryFk, wire.QueryParams{K: 0}}, {wire.QueryFk, wire.QueryParams{K: -3}},
		{wire.QueryRangeSum, wire.QueryParams{A: 9, B: 3}}, {wire.QueryRangeSum, wire.QueryParams{A: 0, B: 256}},
		{99, wire.QueryParams{}}, {0, wire.QueryParams{}},
	} {
		_, want := base.Query(q.kind, q.params, v0)
		_, got := c.Query(q.kind, q.params, v0)
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Errorf("kind %d %+v: split router says %q, single engine %q", q.kind, q.params, got, want)
		}
	}
	// The connection survived every refusal: a seam query works.
	v := conformance.Verifier(t, u, conformance.Cases[0], field.NewSplitMix64(8302), ups)
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
	seam := conformance.Filter(conformance.Case.Seam)
	ask := func(cl *wire.Client, k int, seed uint64) error {
		_, err := cl.Query(seam[k].Kind, seam[k].Params, conformance.Verifier(t, u, seam[k], field.NewSplitMix64(seed), ups))
		return err
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
		sv := &stallVerifier{inner: conformance.Verifier(t, u, seam[0], field.NewSplitMix64(8303), ups), gate: make(chan struct{})}
		h, err := cl.QueryAsync(seam[0].Kind, seam[0].Params, sv)
		if err != nil {
			t.Fatal(err)
		}
		budget[i] = ask(cl, 1, 8304)
		close(sv.gate)
		if _, err := h.Wait(); err != nil {
			t.Fatalf("stalled conversation: %v", err)
		}
		if err := ask(cl, 2, 8305); err != nil {
			t.Fatalf("query after the budget refusal: %v", err)
		}
	}
	if !errors.Is(budget[0], wire.ErrBudget) || !errors.Is(budget[1], wire.ErrBudget) || budget[0].Error() != budget[1].Error() {
		t.Fatalf("over-cap query: split router says %v, single engine %v; want the same ErrBudget", budget[0], budget[1])
	}
}

// TestSplitRefusesOverflow: a split dataset (S = 2, slices [0,128) and
// [128,256)) accepts and refuses the batches a single engine does, in
// its words, and a refused batch reaches no slice. Σδ is the global one:
// a batch that wraps slice 0's part of it is accepted, and one that takes
// the global Σδ outside int64 is refused although each part fits. A
// count overflow in slice 1, behind a harmless update in slice 0, leaves
// slice 0 as it was. After every refusal each slice holds the accepted
// updates only, and the split's posted SELF-JOIN SIZE proof, pinned at
// the accepted version, is byte-equal to the single engine's.
func TestSplitRefusesOverflow(t *testing.T) {
	const u = 200
	const big = int64(1) << 62
	routerAddr, _, tbl := splitShards(t, 0, 0, 2, "big")
	baseAddr, stopBase := startShard(t, &wire.Server{F: f61})
	defer stopBase()
	open := func(addr string) *wire.Client {
		c := dialT(t, addr)
		if _, err := c.OpenDataset("big", u); err != nil {
			t.Fatal(err)
		}
		return c
	}
	split, base := open(routerAddr), open(baseAddr)
	var version uint64
	var held [2]uint64 // accepted updates per slice
	ingest := func(batch []stream.Update, refusal string) {
		t.Helper()
		_, want := base.Ingest(batch)
		_, got := split.Ingest(batch)
		if refusal == "" {
			if want != nil || got != nil {
				t.Fatalf("batch %v: single engine %v, split %v; want both accepted", batch, want, got)
			}
			version++
			for _, up := range batch {
				held[up.Index/128]++
			}
		} else {
			if want == nil || got == nil || got.Error() != want.Error() || !strings.Contains(got.Error(), refusal) {
				t.Fatalf("batch %v: single engine %v, split %v; want the same refusal naming %q", batch, want, got, refusal)
			}
			split.Close()
			base.Close()
			split, base = open(routerAddr), open(baseAddr)
		}
		for k, owner := range []string{"s1", "s2"} {
			c := dialT(t, shardAddr(tbl, owner))
			n, err := c.OpenDatasetSlice("big", u, uint64(k)*128, uint64(k+1)*128)
			c.Close()
			if err != nil || n != held[k] {
				t.Fatalf("after batch %v: slice %d holds %d updates (%v), want %d", batch, k, n, err, held[k])
			}
		}
		want1, err := base.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, version)
		if err != nil {
			t.Fatal(err)
		}
		got1, err := split.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, version)
		if err != nil {
			t.Fatalf("after batch %v: split proof at version %d: %v", batch, version, err)
		}
		if !bytes.Equal(got1.Encode(), want1.Encode()) {
			t.Fatalf("after batch %v: the split's posted proof differs from the single engine's", batch)
		}
	}
	ingest([]stream.Update{{Index: 150, Delta: -big}, {Index: 5, Delta: big}, {Index: 6, Delta: big - 1}}, "")
	ingest([]stream.Update{{Index: 7, Delta: 1}}, "") // slice 0's Σδ wraps; the global Σδ is 2^62
	ingest([]stream.Update{{Index: 8, Delta: big}, {Index: 151, Delta: big}}, "int64 total Σδ")
	ingest([]stream.Update{{Index: 9, Delta: 1}, {Index: 150, Delta: -big}, {Index: 150, Delta: -big}}, "count at index 150")
	ingest([]stream.Update{{Index: 9, Delta: 1}, {Index: 150, Delta: -big}}, "")
}

// TestSplitCollapse pins the collapsed split conversation. On a sparse
// S = 2 dataset each owner's opening ships its live pairs and the router
// proves every later round alone from their union: no owner is sent a
// challenge, and every seam kind's interactive transcript and the posted
// SELF-JOIN SIZE proof's bytes equal a single engine's. On a dense one —
// more live pairs than sumcheck.MaxSparseLive of each slice — the owners
// fold through the head rounds as before, byte-equal too.
func TestSplitCollapse(t *testing.T) {
	const u = 1 << 12 // slices of 2048 entries: sparse at up to 256 live pairs each
	for _, c := range []struct {
		name      string
		n         int // unit increments at uniform indices
		collapsed bool
	}{
		{"sparse", 60, true},
		{"dense", 3000, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			var shards []ShardInfo
			var relays []*tamperRelay
			for _, name := range []string{"s1", "s2"} {
				addr, stop := startShard(t, &wire.Server{F: f61})
				t.Cleanup(stop)
				relay := newTamperRelay(t, addr)
				relays = append(relays, relay)
				shards = append(shards, ShardInfo{Name: name, Addr: relay.addr()})
			}
			routerAddr, _, stop := startRouter(t, &Table{Shards: shards,
				Splits: map[string]*SplitSpec{"ds": {Slices: 2, Owners: []string{"s1", "s2"}}}})
			t.Cleanup(stop)
			baseAddr, stopBase := startShard(t, &wire.Server{F: f61})
			t.Cleanup(stopBase)

			ups := stream.UnitIncrements(u, c.n, field.NewSplitMix64(48))
			split, base := dialT(t, routerAddr), dialT(t, baseAddr)
			for _, cl := range []*wire.Client{split, base} {
				cl.FieldModulus = f61.Modulus()
				if _, err := cl.OpenDataset("ds", u); err != nil {
					t.Fatal(err)
				}
				if _, err := cl.Ingest(ups); err != nil {
					t.Fatal(err)
				}
			}
			const seed = 48_100
			for _, cs := range conformance.Filter(conformance.Case.Seam) {
				var msgs [2][]core.Msg
				for i, cl := range []*wire.Client{split, base} {
					rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, cs, field.NewSplitMix64(seed), ups)}
					if _, err := cl.Query(cs.Kind, cs.Params, rec); err != nil {
						t.Fatalf("%v: %v", cs, err)
					}
					msgs[i] = rec.Msgs
				}
				if err := conformance.Same(msgs[1], msgs[0]); err != nil {
					t.Fatalf("%v: the split transcript differs from the single engine's: %v", cs, err)
				}
			}
			want, err := base.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := split.FetchProof(wire.QuerySelfJoinSize, wire.QueryParams{}, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Encode(), want.Encode()) {
				t.Fatal("the split's posted proof differs from the single engine's")
			}
			for k, relay := range relays {
				if n := relay.challengeFrames.Load(); (n == 0) != c.collapsed {
					t.Fatalf("slice %d's owner was sent %d challenges; collapsed %v", k, n, c.collapsed)
				}
			}
		})
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
	// Every seam query, verified over exactly the acked stream, is
	// accepted through the router against the new owner set, with the
	// reference's transcript.
	c2 := dialT(t, routerAddr)
	if n, err := c2.OpenDataset("big", u); err != nil || n != ackedCount {
		t.Fatalf("re-open after move: count %d, err %v", n, err)
	}
	for _, c := range conformance.Filter(conformance.Case.Seam) {
		rec := &conformance.Recorder{Inner: conformance.Verifier(t, u, c, field.NewSplitMix64(8499), acked)}
		if _, err := c2.Query(c.Kind, c.Params, rec); err != nil {
			t.Fatalf("%v after slice rebalance rejected: %v", c, err)
		}
		if err := conformance.Same(conformance.Reference(t, u, c, 8499, acked), rec.Msgs); err != nil {
			t.Fatalf("%v after slice rebalance: %v", c, err)
		}
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
	_, err = dialBackoff(deadAddr, 300*time.Millisecond)
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

// TestAggregatedStats: one stats request through the router fans out
// to every shard and merges — summed proof-cache counters, the
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

// TestSplitChallengeFlood: a client that keeps sending challenges on a
// split conversation past its last prover message gets what a single
// engine gives it — a typed per-channel error — and can neither wedge
// its proxy connection nor hang Router.Close. (The router used to park
// the surplus challenges in a queue nobody read once the conversation
// was over, blocking its read loop for good.)
func TestSplitChallengeFlood(t *testing.T) {
	const u = 200
	routerAddr, r, _ := splitShards(t, 0, 0, 2, "big")
	conn, err := net.Dial("tcp", routerAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if err := frames.WriteFrame(conn, frames.Open, frames.EncodeOpen("big", u)); err != nil {
		t.Fatal(err)
	}
	if typ, _, err := frames.ReadFrame(conn); err != nil || typ != frames.OK {
		t.Fatalf("open through the router: frame 0x%02x, err %v", typ, err)
	}
	// challenges pipelines n challenges on channel 1 in one write.
	challenges := func(n int) []byte {
		var b bytes.Buffer
		for i := 0; i < n; i++ {
			ch := frames.EncodeMsg(core.Msg{Elems: []field.Elem{field.Elem(i + 2)}})
			_ = frames.WriteFrame(&b, frames.ChallengeCh, frames.EncodeChannel(1, ch))
		}
		return b.Bytes()
	}
	// The query, then one challenge more than its log u = 8 rounds take
	// (the opening plus 7 answers): the surplus is refused typed, and the
	// connection lives on.
	if err := frames.WriteFrame(conn, frames.QueryCh, frames.EncodeChannel(1,
		frames.EncodeQuery(wire.QuerySelfJoinSize, wire.QueryParams{}))); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(challenges(8)); err != nil {
		t.Fatal(err)
	}
	for answers := 0; ; answers++ {
		typ, payload, err := frames.ReadFrame(conn)
		if err != nil {
			t.Fatalf("the surplus challenge was never refused: %v", err)
		}
		if typ == frames.ProverCh {
			continue
		}
		if id, _, _ := frames.DecodeChannel(payload); typ != frames.ErrorCh || id != 1 || answers != 8 {
			t.Fatalf("got frame 0x%02x on channel %d after %d answers, want a per-channel error on channel 1 after 8",
				typ, id, answers)
		}
		break
	}
	// The rest of a 40-frame flood: the failed channel's tombstone
	// absorbs one, the next is a protocol violation. The router may drop
	// the connection mid-write (and its final frames with it: a close
	// with unread input resets), so only Close is checked.
	_, _ = conn.Write(challenges(32))
	closed := make(chan error, 1)
	go func() { closed <- r.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Router.Close hung on the flooded connection")
	}
}
