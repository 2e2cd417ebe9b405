package main

import (
	"bytes"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/circuit"
	"repro/internal/engine"
	"repro/internal/fs"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wire"
)

// sizes fixes every workload's input dimensions. They are constants of
// the benchmark, not derived from the host; the tiny preset exists for
// the smoke test only.
type sizes struct {
	f2LogU, f2N                       int // f2_large
	mixLogU, mixLight                 int // mixed_small_routed: sum-check and hash-tree kinds
	mixGKRLogU, mixFreqLogU           int // ... GKR and F0/Fmax universes
	fanLogU, fanN, fanBump, fanHits   int // proof_fanout
	splitLogU, splitN                 int // split_proof
	evictLogU, evictSets, evictBatch  int // ingest_evict
	kernelLog, probeLogU, probeF2LogU int // probes, see probes.go
}

var fullSizes = sizes{
	f2LogU: 20, f2N: 1 << 15,
	mixLogU: 14, mixLight: 1024, mixGKRLogU: 4, mixFreqLogU: 8,
	fanLogU: 18, fanN: 1 << 10, fanBump: 64, fanHits: 15,
	splitLogU: 21, splitN: 1 << 12,
	evictLogU: 18, evictSets: 6, evictBatch: 1 << 15,
	kernelLog: 20, probeLogU: 18, probeF2LogU: 20,
}

var tinySizes = sizes{
	f2LogU: 10, f2N: 256,
	mixLogU: 10, mixLight: 64, mixGKRLogU: 4, mixFreqLogU: 8,
	fanLogU: 10, fanN: 128, fanBump: 8, fanHits: 15,
	splitLogU: 10, splitN: 128,
	evictLogU: 10, evictSets: 6, evictBatch: 256,
	kernelLog: 10, probeLogU: 10, probeF2LogU: 10,
}

// workload is one traffic mix. setUp builds servers, data and clients,
// runs its tamper probe and one warm-up cycle; cycle runs one whole
// pass of the fixed op schedule on a lane.
type workload interface {
	setUp(e *env, sz sizes, seed uint64) error
	lanes() int
	warmCycles() int
	cycle(lane int, a *laneAcc, lt *laneTrace)
}

var workloadOrder = []string{"f2_large", "mixed_small_routed", "proof_fanout", "split_proof", "ingest_evict"}

func newWorkload(name string) (workload, error) {
	switch name {
	case "f2_large":
		return &f2Large{}, nil
	case "mixed_small_routed":
		return &mixedRouted{}, nil
	case "proof_fanout":
		return &proofFanout{}, nil
	case "split_proof":
		return &splitProof{}, nil
	case "ingest_evict":
		return &ingestEvict{}, nil
	}
	return nil, fmt.Errorf("bench: unknown workload %q (have %v)", name, workloadOrder)
}

var f2Query = query{label: "f2", kind: wire.QuerySelfJoinSize}

// withWant returns q with its reference answer computed from counts.
func withWant(e *env, q query, counts []int64) (query, error) {
	want, err := referenceOf(e.f, q, counts)
	q.want = want
	return q, err
}

// ---------------------------------------------------------------------
// f2_large: one resident dataset, interactive SELF-JOIN-SIZE, one
// client straight to one engine. The prover's O(u) sum-check kernels do
// almost all the work — the paper's Figure 2(a)/(b) row.

type f2Large struct {
	e    *env
	d    *dataset
	q    query
	cl   *wire.Client
	twin twinSnap
	seed uint64
	n    uint64
}

func (w *f2Large) warmCycles() int { return 40 }

func (w *f2Large) lanes() int { return 1 }

func (w *f2Large) setUp(e *env, sz sizes, seed uint64) error {
	w.e, w.seed = e, seed
	u := uint64(1) << sz.f2LogU
	w.d = newDataset("f2", u, randomStream(u, sz.f2N, rngFor(seed, "f2_large/stream")))
	var err error
	if w.q, err = withWant(e, f2Query, w.d.counts); err != nil {
		return err
	}
	eng, addr, err := e.engineServer(2, nil)
	if err != nil {
		return err
	}
	if w.cl, err = e.attach(addr, w.d); err != nil {
		return err
	}
	w.twin = snapOf(eng, w.d.name)
	snap, err := w.twin()
	if err != nil {
		return err
	}
	return tamperConversation(e, w.d, w.q, snap)
}

func (w *f2Large) cycle(_ int, a *laneAcc, lt *laneTrace) {
	w.n++
	converse(w.e, w.cl, w.d, w.d.ups, w.q, rngFor(w.seed, fmt.Sprintf("f2_large/verifier/%d", w.n)), true, w.twin, a, lt)
}

// ---------------------------------------------------------------------
// mixed_small_routed: every query kind at small u through the router.
// Two lanes, each a closed loop over its own four datasets on its own
// engine; provers are sub-millisecond, so framing, round trips, router
// forwarding and prover set-up dominate. This is the bypass workload
// for a kernel change and the exercise workload for a wire or router
// change.

type mixedRouted struct {
	e    *env
	seed uint64
	lane [2]mixedLane
}

type mixedLane struct {
	steps []mixedStep
	n     uint64
}

type mixedStep struct {
	d    *dataset
	cl   *wire.Client
	q    query
	twin twinSnap
}

func (w *mixedRouted) warmCycles() int { return 25 }

func (w *mixedRouted) lanes() int { return len(w.lane) }

// mixedQueries is a lane's fixed 13-op cycle, one op per query kind.
// set picks which of the lane's datasets the op runs on: 0 and 1 are the
// two sum-check/hash-tree datasets, 2 the GKR dataset, 3 the small
// dataset of the kinds whose prover is superlinear or high-degree (Fk,
// F0, Fmax), sized so that no kind takes a quarter of the cycle. The
// circuit kind runs the F2 family on lane 0 and COUNT on lane 1.
func mixedQueries(u, light uint64, lane int) []struct {
	set int
	q   query
} {
	bucket := u / light
	family := []string{circuit.FamilyF2, circuit.FamilyCount}[lane%2]
	return []struct {
		set int
		q   query
	}{
		{0, f2Query},
		{3, query{label: "fk", kind: wire.QueryFk, params: wire.QueryParams{K: 3}}},
		{0, query{label: "rangesum", kind: wire.QueryRangeSum, params: wire.QueryParams{A: u/8 + 3, B: u/2 + 5}}},
		{1, query{label: "rangequery", kind: wire.QueryRangeQuery, params: wire.QueryParams{A: u / 4, B: u/4 + 8*bucket - 1}}},
		{0, query{label: "index", kind: wire.QueryIndex, params: wire.QueryParams{A: 5 * bucket}}},
		{1, query{label: "dictionary", kind: wire.QueryDictionary, params: wire.QueryParams{A: 9*bucket + (9*7)%(bucket-1)}}},
		{0, query{label: "predecessor", kind: wire.QueryPredecessor, params: wire.QueryParams{A: u/3 + 1}}},
		{1, query{label: "successor", kind: wire.QuerySuccessor, params: wire.QueryParams{A: 2*u/3 + 1}}},
		{0, query{label: "klargest", kind: wire.QueryKLargest, params: wire.QueryParams{K: 5}}},
		{1, query{label: "heavyhitters", kind: wire.QueryHeavyHitters, params: wire.QueryParams{Phi: 0.2}}},
		{3, query{label: "f0", kind: wire.QueryF0, params: wire.QueryParams{Phi: 0.07}}},
		{3, query{label: "fmax", kind: wire.QueryFmax, params: wire.QueryParams{Phi: 0.07}}},
		{2, query{label: "circuit", kind: wire.QueryCircuit, params: wire.QueryParams{Circuit: family}}},
	}
}

// mixedData generates one lane's four datasets. The heavy values sit
// above the light total (light·(lightMax+1)/2), so the thresholds of
// φ = 0.2 on the big datasets (⌈0.2·25.5·light⌉) and φ = 0.07 on the
// small one (⌈0.07·182⌉ = 13 > 12) fall between the two.
func mixedData(sz sizes, seed uint64, lane int) [4]*dataset {
	u := uint64(1) << sz.mixLogU
	light := sz.mixLight
	heavy := []int64{int64(light) * 6, int64(light) * 7, int64(light) * 8}
	var out [4]*dataset
	for i := 0; i < 2; i++ {
		name := fmt.Sprintf("mix%d-sum%d", lane, i)
		out[i] = newDataset(name, u, plantedStream(u, light, 8, heavy, rngFor(seed, "mixed/"+name)))
	}
	gu := uint64(1) << sz.mixGKRLogU
	name := fmt.Sprintf("mix%d-gkr", lane)
	out[2] = newDataset(name, gu, randomStream(gu, int(gu), rngFor(seed, "mixed/"+name)))
	fu := uint64(1) << sz.mixFreqLogU
	name = fmt.Sprintf("mix%d-freq", lane)
	out[3] = newDataset(name, fu, plantedStream(fu, 8, 2, []int64{80, 90}, rngFor(seed, "mixed/"+name)))
	return out
}

func (w *mixedRouted) setUp(e *env, sz sizes, seed uint64) error {
	w.e, w.seed = e, seed
	tbl := &shard.Table{Routes: map[string]string{}}
	var engines [2]*engine.Engine
	for l := range engines {
		eng, addr, err := e.engineServer(1, nil)
		if err != nil {
			return err
		}
		engines[l] = eng
		tbl.Shards = append(tbl.Shards, shard.ShardInfo{Name: fmt.Sprintf("s%d", l), Addr: addr})
	}
	data := [2][4]*dataset{mixedData(sz, seed, 0), mixedData(sz, seed, 1)}
	for l, sets := range data {
		for _, d := range sets {
			tbl.Routes[d.name] = fmt.Sprintf("s%d", l)
		}
	}
	addr, err := e.route(tbl)
	if err != nil {
		return err
	}
	u, light := uint64(1)<<sz.mixLogU, uint64(sz.mixLight)
	for l, sets := range data {
		var cls [4]*wire.Client
		for i, d := range sets {
			if cls[i], err = e.attach(addr, d); err != nil {
				return err
			}
		}
		w.lane[l] = mixedLane{}
		for _, mq := range mixedQueries(u, light, l) {
			d := sets[mq.set]
			q, err := withWant(e, mq.q, d.counts)
			if err != nil {
				return err
			}
			twin := snapOf(engines[l], d.name)
			w.lane[l].steps = append(w.lane[l].steps, mixedStep{d: d, cl: cls[mq.set], q: q, twin: twin})
			if l == 0 {
				snap, err := twin()
				if err != nil {
					return err
				}
				if err := tamperConversation(e, d, q, snap); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (w *mixedRouted) cycle(lane int, a *laneAcc, lt *laneTrace) {
	ln := &w.lane[lane]
	for i, s := range ln.steps {
		ln.n++
		rng := rngFor(w.seed, fmt.Sprintf("mixed/verifier/%d/%d/%d", lane, i, ln.n))
		converse(w.e, s.cl, s.d, s.d.ups, s.q, rng, true, s.twin, a, lt)
	}
}

// ---------------------------------------------------------------------
// proof_fanout: the same prover used non-interactively. One cycle is a
// small ingest batch (a version bump), one FetchProof that misses, then
// fanHits FetchProofs that hit, each verified offline. Proof
// generation, Fiat–Shamir hashing and the proof cache do the work.

type proofFanout struct {
	e      *env
	hits   int
	d      *dataset
	st     *bumped
	cl     *wire.Client
	srv    *wire.Server
	twin   twinSnap
	cycles int
}

func (w *proofFanout) warmCycles() int { return 100 }

func (w *proofFanout) lanes() int { return 1 }

func (w *proofFanout) setUp(e *env, sz sizes, seed uint64) error {
	w.e, w.hits, w.cycles = e, sz.fanHits, 0
	u := uint64(1) << sz.fanLogU
	w.d = newDataset("fanout", u, randomStream(u, sz.fanN, rngFor(seed, "proof_fanout/stream")))
	var err error
	if w.st, err = newBumped(e, w.d, randomStream(u, sz.fanBump, rngFor(seed, "proof_fanout/bump"))); err != nil {
		return err
	}
	eng, addr, err := e.engineServer(1, func(s *wire.Server) { w.srv = s })
	if err != nil {
		return err
	}
	if w.cl, err = e.attach(addr, w.d); err != nil {
		return err
	}
	w.twin = snapOf(eng, w.d.name)
	pf, err := w.cl.FetchProof(f2Query.kind, f2Query.params, 0)
	if err != nil {
		return err
	}
	return tamperProof(e, w.d, w.st.view[0], w.st.q[0], pf)
}

func (w *proofFanout) cycle(_ int, a *laneAcc, lt *laneTrace) {
	w.cycles++
	state := w.cycles % 2
	before := w.srv.Stats().ProofCache
	if _, ok := ingest(w.cl, w.st.to[state], false, a, lt); !ok {
		return
	}
	q, view := w.st.q[state], w.st.view[state]
	pf, fetch, _, ok := fetchVerify(w.e, w.cl, w.d, view, q, 0, a, lt)
	if !ok {
		return
	}
	a.missLat = append(a.missLat, ms(fetch))
	if lt != nil {
		if err := w.twinMiss(pf, q, view, lt); err != nil {
			a.fail(fmt.Errorf("proof_fanout twin: %w", err))
			return
		}
	}
	for i := 0; i < w.hits; i++ {
		_, fetch, verify, ok := fetchVerify(w.e, w.cl, w.d, view, q, pf.Version, a, lt)
		if !ok {
			return
		}
		a.lat = append(a.lat, ms(fetch+verify))
	}
	// The cache's own accounting must agree: one prover run per version,
	// every other fetch served from the cache, nothing coalesced.
	after := w.srv.Stats().ProofCache
	if hits, misses, co := after.Hits-before.Hits, after.Misses-before.Misses, after.Coalesced-before.Coalesced; hits != uint64(w.hits) || misses != 1 || co != 0 {
		a.fail(fmt.Errorf("proof_fanout: a cycle cost the cache %d hits, %d misses, %d coalesced; want %d, 1, 0", hits, misses, co, w.hits))
	}
}

// twinMiss reruns a miss in-process: the engine's whole proof
// generation, then the same prover driven round by round (set-up plus
// the conversation), so the price of verifier replay and hashing is the
// difference. The regenerated proof must be the bytes the server sent.
func (w *proofFanout) twinMiss(served *fs.Proof, q query, view []stream.Update, lt *laneTrace) error {
	troot := lt.root("twin", q.label)
	defer lt.end(troot)
	snap, err := w.twin()
	if err != nil {
		return err
	}
	id := lt.begin(troot, "engine.generate_proof")
	again, err := snap.GenerateProof(q.kind, q.params)
	lt.end(id)
	if err != nil {
		return err
	}
	id = lt.begin(troot, "fs.encode")
	enc := again.Encode()
	lt.end(id)
	if !bytes.Equal(enc, served.Encode()) {
		return errors.New("regenerated proof differs from the served one")
	}
	v, err := observed(w.e.f, w.d.u, q, again.Binding.RNG(), view)
	if err != nil {
		return err
	}
	challenges, err := recordedChallenges(again, v)
	if err != nil {
		return err
	}
	id = lt.begin(troot, "engine.new_prover")
	p, err := snap.NewProver(q.kind, q.params)
	lt.end(id)
	if err != nil {
		return err
	}
	return replayProver(lt, troot, p, challenges)
}

// ---------------------------------------------------------------------
// split_proof: one dataset split S = 2 across two engines behind the
// router. Every op ingests one update and fetches a proof that must
// miss; the proof's bytes must equal what a single engine holding the
// whole dataset generates. This prices the split seam against the
// direct path, and is the only workload where slice-parallel proving
// can show on two cores.

type splitProof struct {
	e      *env
	d      *dataset
	st     *bumped
	split  *wire.Client // through the router, S = 2
	direct *wire.Client // the single-engine twin
	cycles int
}

func (w *splitProof) warmCycles() int { return 8 }

func (w *splitProof) lanes() int { return 1 }

func (w *splitProof) setUp(e *env, sz sizes, seed uint64) error {
	w.e, w.cycles = e, 0
	u := uint64(1) << sz.splitLogU
	w.d = newDataset("split", u, randomStream(u, sz.splitN, rngFor(seed, "split_proof/stream")))
	var err error
	if w.st, err = newBumped(e, w.d, randomStream(u, 1, rngFor(seed, "split_proof/bump"))); err != nil {
		return err
	}
	raddr, err := e.splitRouter(w.d.name, 2)
	if err != nil {
		return err
	}
	if w.split, err = e.attach(raddr, w.d); err != nil {
		return err
	}
	_, daddr, err := e.engineServer(1, nil)
	if err != nil {
		return err
	}
	if w.direct, err = e.attach(daddr, w.d); err != nil {
		return err
	}
	pf, err := w.split.FetchProof(f2Query.kind, f2Query.params, 0)
	if err != nil {
		return err
	}
	if _, err := w.direct.FetchProof(f2Query.kind, f2Query.params, 0); err != nil {
		return err
	}
	return tamperProof(e, w.d, w.st.view[0], w.st.q[0], pf)
}

func (w *splitProof) cycle(_ int, a *laneAcc, lt *laneTrace) {
	w.cycles++
	state := w.cycles % 2
	for _, cl := range []*wire.Client{w.split, w.direct} {
		if _, ok := ingest(cl, w.st.to[state], false, a, lt); !ok {
			return
		}
	}
	q, view := w.st.q[state], w.st.view[state]
	pf, fetch, _, ok := fetchVerify(w.e, w.split, w.d, view, q, 0, a, lt)
	if !ok {
		return
	}
	// The direct twin answers the same request; it is part of the
	// correctness gate, so it runs in untraced windows too.
	a.attempted++
	lt.nextOp()
	troot := lt.root("twin", q.label)
	id := lt.begin(troot, "wire.fetch_proof")
	t0 := time.Now()
	twin, err := w.direct.FetchProof(q.kind, q.params, 0)
	dt := time.Since(t0)
	lt.end(id)
	lt.end(troot)
	switch {
	case err != nil:
		a.fail(fmt.Errorf("split_proof direct twin: %w", err))
	case proofDigest(twin) != proofDigest(pf):
		a.fail(fmt.Errorf("split_proof: split proof sha256 %x differs from the direct twin's %x", proofDigest(pf), proofDigest(twin)))
	default:
		a.lat = append(a.lat, ms(fetch))
		a.missLat = append(a.missLat, ms(fetch))
		a.directLat = append(a.directLat, ms(dt))
	}
}

// ---------------------------------------------------------------------
// ingest_evict: the write side. evictSets datasets share an engine
// whose memory budget holds two and a half of them, so round-robin
// ingest batches force evict → checkpoint → rehydrate; one F2 query
// follows every fourth batch on average. Each dataset alternates a
// batch with its negation, so its state (and the stream a fresh
// verifier must observe) is periodic.

type ingestEvict struct {
	e      *env
	eng    *engine.Engine
	sets   []*dataset
	cls    []*wire.Client
	batch  [][2][]stream.Update // per dataset: +B, −B
	q      []query              // F2 with B applied
	seed   uint64
	cycles int
	n      uint64
	dir    string
	twins  []*engine.Dataset // in-memory copies the traced run re-applies each batch to
}

func (w *ingestEvict) warmCycles() int { return 3 }

func (w *ingestEvict) lanes() int { return 1 }

func (w *ingestEvict) setUp(e *env, sz sizes, seed uint64) error {
	w.e, w.seed, w.cycles = e, seed, 0
	w.sets, w.cls, w.batch, w.q, w.twins = nil, nil, nil, nil, nil
	u := uint64(1) << sz.evictLogU
	cost, err := engine.TableCost(u)
	if err != nil {
		return err
	}
	dir, err := e.scratch()
	if err != nil {
		return err
	}
	w.dir = dir
	eng, addr, err := e.engineServer(2, func(s *wire.Server) {
		s.MemBudget = 2*cost + cost/2
		s.DataDir = dir
	})
	if err != nil {
		return err
	}
	w.eng = eng
	// The engine outlives its server's Close (it was injected); closing
	// it waits out background evictions before the directory goes away.
	e.onClose(func() { _ = eng.Close() })
	for i := 0; i < sz.evictSets; i++ {
		name := fmt.Sprintf("evict%d", i)
		b := randomStream(u, sz.evictBatch, rngFor(seed, "ingest_evict/"+name))
		d := newDataset(name, u, nil)
		cl, err := e.attach(addr, d)
		if err != nil {
			return err
		}
		q, err := withWant(e, f2Query, newDataset("", u, b).counts)
		if err != nil {
			return err
		}
		w.sets, w.cls = append(w.sets, d), append(w.cls, cl)
		w.batch = append(w.batch, [2][]stream.Update{b, negate(b)})
		w.q = append(w.q, q)
	}
	// Tamper probe on the first dataset with its batch applied, then
	// cancelled, so the window starts from empty datasets.
	probe := newDataset(w.sets[0].name, u, w.batch[0][0])
	snap, err := engine.SnapshotFromCounts(e.f, u, 1, probe.counts)
	if err != nil {
		return err
	}
	return tamperConversation(e, probe, w.q[0], snap)
}

// cycle is two rounds over the datasets: +B on each, then −B on each,
// with an F2 query after every other +B batch — one query per four
// batches.
func (w *ingestEvict) cycle(_ int, a *laneAcc, lt *laneTrace) {
	w.cycles++
	for sign := 0; sign < 2; sign++ {
		for i, cl := range w.cls {
			if lt != nil {
				if ds, ok := w.eng.Get(w.sets[i].name); ok && !ds.Resident() {
					a.cold++
				}
			}
			dt, ok := ingest(cl, w.batch[i][sign], true, a, lt)
			if !ok {
				return
			}
			a.lat = append(a.lat, ms(dt))
			if lt != nil {
				if err := w.twinIngest(i, w.batch[i][sign], lt); err != nil {
					a.fail(fmt.Errorf("ingest_evict twin: %w", err))
					return
				}
			}
			if sign == 0 && i%2 == 1 {
				w.n++
				rng := rngFor(w.seed, fmt.Sprintf("ingest_evict/verifier/%d", w.n))
				converse(w.e, cl, w.sets[i], w.batch[i][0], w.q[i], rng, false, snapOf(w.eng, w.sets[i].name), a, lt)
			}
		}
	}
}

// twinIngest redoes in-process what the server did before acknowledging
// one batch on a non-resident dataset: the rehydrate (checkpoint load,
// field-image rebuild) and the ingest itself. The checkpoint it writes
// stands in for the one the server's background eviction wrote; its
// save is off the ack's path and is not a span (store.save_ms prices
// it). Twins start empty at a cycle boundary, like the live datasets.
func (w *ingestEvict) twinIngest(i int, batch []stream.Update, lt *laneTrace) error {
	u := w.sets[i].u
	if w.twins == nil {
		for range w.sets {
			ds, err := engine.NewDataset(w.e.f, u, 2)
			if err != nil {
				return err
			}
			w.twins = append(w.twins, ds)
		}
	}
	troot := lt.root("twin", "ingest")
	defer lt.end(troot)
	id := lt.begin(troot, "engine.ingest")
	err := w.twins[i].Ingest(batch)
	lt.end(id)
	if err != nil {
		return err
	}
	// The checkpoint comes from the reference counts: snapshotting the
	// twin would make its next ingest copy the tables, which the server's
	// freshly rehydrated dataset never does.
	w.sets[i].apply(batch)
	path := filepath.Join(w.dir, fmt.Sprintf("twin%d.ckpt", i))
	if err := store.Save(path, &store.Checkpoint{
		Universe: u, Modulus: w.e.f.Modulus(), Version: 1, Counts: w.sets[i].counts,
	}); err != nil {
		return err
	}
	id = lt.begin(troot, "store.load")
	ckpt, err := store.Load(path, w.e.f.Modulus())
	lt.end(id)
	if err != nil {
		return err
	}
	id = lt.begin(troot, "engine.rebuild")
	_, err = engine.SnapshotFromCounts(w.e.f, u, 2, ckpt.Counts)
	lt.end(id)
	return err
}
