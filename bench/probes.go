package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/proofcache"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/wire"
)

// The probes are the per-layer numbers that do not depend on which
// workload ran: each calls one layer's public functions at a fixed size,
// several times, and reports the median. A traced run of any workload
// runs the whole battery after its window, once the workload's servers
// are gone, so every per-layer metric is measured in every traced run.

const probeReps = 7

// medianNs runs fn reps times and returns the median duration in ns.
func medianNs(reps int, fn func() error) (float64, error) {
	xs := make([]float64, reps)
	for i := range xs {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		xs[i] = float64(time.Since(t0))
	}
	return median(xs), nil
}

// timedRun is core.Run with a stopwatch on each side of every round.
type runTimes struct {
	open, rounds, roundMax, verify float64 // ns
	st                             core.Stats
}

func timedRun(p core.ProverSession, v core.VerifierSession) (runTimes, error) {
	var rt runTimes
	t0 := time.Now()
	msg, err := p.Open()
	rt.open = float64(time.Since(t0))
	if err != nil {
		return rt, err
	}
	for {
		rt.st.Rounds++
		rt.st.WordsToVerifier += msg.Words()
		t0 = time.Now()
		var ch core.Msg
		var done bool
		if rt.st.Rounds == 1 {
			ch, done, err = v.Begin(msg)
		} else {
			ch, done, err = v.Step(msg)
		}
		rt.verify += float64(time.Since(t0))
		if err != nil || done {
			return rt, err
		}
		rt.st.WordsToProver += ch.Words()
		t0 = time.Now()
		msg, err = p.Step(ch)
		d := float64(time.Since(t0))
		rt.rounds += d
		rt.roundMax = max(rt.roundMax, d)
		if err != nil {
			return rt, err
		}
	}
}

func runProbes(sz sizes, seed uint64) (metrics, error) {
	m := metrics{}
	f := field.Mersenne()
	for _, probe := range []func(metrics, field.Field, sizes, uint64) error{
		probeKernels, probeObserve, probeF2Prover, probeKinds, probeEngineStoreFS,
		probeProofCache, probeWireShard, probeSplit,
	} {
		if err := probe(m, f, sz, seed); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// field: the two batch kernels the sum-check prover spends its time in.
func probeKernels(m metrics, f field.Field, sz sizes, seed uint64) error {
	n := 1 << sz.kernelLog
	rng := rngFor(seed, "probe/kernels")
	a, b, dst := f.RandVec(rng, n), f.RandVec(rng, n), make([]field.Elem, n)
	r := f.Rand(rng)
	ns, _ := medianNs(probeReps, func() error { f.MulSlices(dst, a, b); return nil })
	m.set("field.mul_ns_per_elem", ns/float64(n), "ns", probeReps)
	ns, _ = medianNs(probeReps, func() error { f.FoldPairsSumSq(dst[:n/2], a, r); return nil })
	m.set("field.fold_pairs_sum_sq_ns_per_elem", ns/float64(n), "ns", probeReps)
	return nil
}

// lde, hashtree: the verifier's streaming pass, per update.
func probeObserve(m metrics, f field.Field, sz sizes, seed uint64) error {
	u := uint64(1) << sz.probeF2LogU
	ups := randomStream(u, min(1<<16, int(u)), rngFor(seed, "probe/observe"))
	for _, c := range []struct {
		name string
		q    query
	}{
		{"lde.observe_ns_per_update", f2Query},
		{"hashtree.observe_ns_per_update", query{kind: wire.QueryRangeQuery, params: wire.QueryParams{A: 1, B: 2}}},
	} {
		ns, err := medianNs(probeReps, func() error {
			_, err := observed(f, u, c.q, rngFor(seed, c.name), ups)
			return err
		})
		if err != nil {
			return err
		}
		m.set(c.name, ns/float64(len(ups)), "ns", probeReps)
	}
	return nil
}

// core: the F2 prover at f2_large's size, round by round, with the
// server's two workers and single-threaded.
func probeF2Prover(m metrics, f field.Field, sz sizes, seed uint64) error {
	u := uint64(1) << sz.probeF2LogU
	ups := randomStream(u, min(1<<12, int(u)), rngFor(seed, "probe/f2"))
	total := map[int]float64{}
	for _, workers := range []int{2, 1} {
		ds, err := engine.NewDataset(f, u, workers)
		if err != nil {
			return err
		}
		if err := ds.Ingest(ups); err != nil {
			return err
		}
		var open, rounds, rmax, verify, sum []float64
		var st core.Stats
		for rep := 0; rep < probeReps; rep++ {
			v, err := observed(f, u, f2Query, rngFor(seed, fmt.Sprint("probe/f2/v", rep)), ups)
			if err != nil {
				return err
			}
			p, err := ds.Snapshot().NewProver(f2Query.kind, f2Query.params)
			if err != nil {
				return err
			}
			rt, err := timedRun(p, v)
			if err != nil {
				return err
			}
			open, rounds, rmax = append(open, rt.open), append(rounds, rt.rounds), append(rmax, rt.roundMax)
			verify, sum, st = append(verify, rt.verify), append(sum, rt.open+rt.rounds), rt.st
		}
		total[workers] = median(sum)
		if workers == 2 {
			m.set("core.prover_open_ms", median(open)/1e6, "ms", probeReps)
			m.set("core.prover_rounds_ms", median(rounds)/1e6, "ms", probeReps)
			m.set("core.prover_round_max_ms", median(rmax)/1e6, "ms", probeReps)
			m.set("core.verifier_check_us", median(verify)/1e3, "us", probeReps)
			m.set("core.words_to_verifier", float64(st.WordsToVerifier), "count", 1)
			m.set("core.words_to_prover", float64(st.WordsToProver), "count", 1)
		}
	}
	m.set("core.prover_ms_workers1", total[1]/1e6, "ms", probeReps)
	m.set("core.parallel_speedup", total[1]/total[2], "ratio", probeReps) // base = workers1
	return nil
}

// core: set-up plus conversation of every query kind at the mixed
// workload's sizes, single-threaded, in-process.
func probeKinds(m metrics, f field.Field, sz sizes, seed uint64) error {
	sets := mixedData(sz, seed, 0)
	var live [4]*engine.Dataset
	for i, d := range sets {
		ds, err := engine.NewDataset(f, d.u, 1)
		if err != nil {
			return err
		}
		if err := ds.Ingest(d.ups); err != nil {
			return err
		}
		live[i] = ds
	}
	for _, mq := range mixedQueries(uint64(1)<<sz.mixLogU, uint64(sz.mixLight), 0) {
		d := sets[mq.set]
		var xs []float64
		for rep := 0; rep < probeReps; rep++ {
			v, err := observed(f, d.u, mq.q, rngFor(seed, fmt.Sprint("probe/kind/", mq.q.label, rep)), d.ups)
			if err != nil {
				return err
			}
			t0 := time.Now()
			p, err := live[mq.set].Snapshot().NewProver(mq.q.kind, mq.q.params)
			if err == nil {
				_, err = core.Run(p, v)
			}
			if err != nil {
				return fmt.Errorf("probe %s: %w", mq.q.label, err)
			}
			xs = append(xs, float64(time.Since(t0)))
		}
		m.set("core.prover_ms."+mq.q.label, median(xs)/1e6, "ms", probeReps)
	}
	return nil
}

// engine, store, fs: snapshot, prover set-up, proof generation and its
// overhead over the bare conversation, ingest, the checkpoint codec and
// the two steps of a rehydrate, all at the proof workloads' universe.
func probeEngineStoreFS(m metrics, f field.Field, sz sizes, seed uint64) error {
	u := uint64(1) << sz.probeLogU
	ups := randomStream(u, min(1<<10, int(u)), rngFor(seed, "probe/engine"))
	ds, err := engine.NewDataset(f, u, 1)
	if err != nil {
		return err
	}
	if err := ds.Ingest(ups); err != nil {
		return err
	}
	const snaps = 1000
	t0 := time.Now()
	for i := 0; i < snaps; i++ {
		_ = ds.Snapshot()
	}
	m.set("engine.snapshot_us", float64(time.Since(t0))/snaps/1e3, "us", snaps)
	snap := ds.Snapshot()
	newProver, err := medianNs(probeReps, func() error {
		_, err := snap.NewProver(f2Query.kind, f2Query.params)
		return err
	})
	if err != nil {
		return err
	}
	m.set("engine.new_prover_ms", newProver/1e6, "ms", probeReps)

	var pf *fs.Proof
	generate, err := medianNs(probeReps, func() (err error) {
		pf, err = snap.GenerateProof(f2Query.kind, f2Query.params)
		return err
	})
	if err != nil {
		return err
	}
	m.set("engine.generate_proof_ms", generate/1e6, "ms", probeReps)
	var conv []float64
	for rep := 0; rep < probeReps; rep++ {
		v, err := observed(f, u, f2Query, pf.Binding.RNG(), ups)
		if err != nil {
			return err
		}
		t0 := time.Now()
		p, err := snap.NewProver(f2Query.kind, f2Query.params)
		if err == nil {
			_, err = core.Run(p, v)
		}
		if err != nil {
			return err
		}
		conv = append(conv, float64(time.Since(t0)))
	}
	m.set("fs.prove_overhead_ms", (generate-median(conv))/1e6, "ms", probeReps)

	var enc []byte
	ns, _ := medianNs(probeReps, func() error { enc = pf.Encode(); return nil })
	m.set("fs.encode_us", ns/1e3, "us", probeReps)
	m.set("fs.proof_bytes", float64(len(enc)), "bytes", 1)
	if ns, err = medianNs(probeReps, func() error { _, err := fs.DecodeProof(enc); return err }); err != nil {
		return err
	}
	m.set("fs.decode_us", ns/1e3, "us", probeReps)
	var verify []float64
	for rep := 0; rep < probeReps; rep++ {
		v, err := observed(f, u, f2Query, pf.Binding.RNG(), ups)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if err := pf.Binding.Verify(pf, v); err != nil {
			return err
		}
		verify = append(verify, float64(time.Since(t0)))
	}
	m.set("fs.verify_us", median(verify)/1e3, "us", probeReps)

	batch := randomStream(u, min(1<<15, int(u)), rngFor(seed, "probe/ingest"))
	both := [2][]stream.Update{batch, negate(batch)}
	rep := 0
	if ns, err = medianNs(probeReps, func() error { rep++; return ds.Ingest(both[rep%2]) }); err != nil {
		return err
	}
	m.set("engine.ingest_ns_per_update", ns/float64(len(batch)), "ns", probeReps)

	e := newEnv()
	defer e.close()
	dir, err := e.scratch()
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.ckpt")
	ckpt := &store.Checkpoint{Universe: u, Modulus: f.Modulus(), Updates: uint64(len(ups)), Version: 1, Counts: snap.Counts()}
	if ns, err = medianNs(probeReps, func() error { return store.Save(path, ckpt) }); err != nil {
		return err
	}
	m.set("store.save_ms", ns/1e6, "ms", probeReps)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	m.set("store.checkpoint_bytes", float64(info.Size()), "bytes", 1)
	m.set("store.bytes_per_entry", float64(info.Size())/float64(len(ckpt.Counts)), "bytes", 1)
	var loaded *store.Checkpoint
	load, err := medianNs(probeReps, func() (err error) { loaded, err = store.Load(path, f.Modulus()); return err })
	if err != nil {
		return err
	}
	m.set("store.load_ms", load/1e6, "ms", probeReps)
	rebuild, err := medianNs(probeReps, func() error {
		_, err := engine.SnapshotFromCounts(f, u, 1, loaded.Counts)
		return err
	})
	if err != nil {
		return err
	}
	// A rehydrate is a checkpoint load plus the field-image rebuild.
	m.set("engine.rehydrate_ms", (load+rebuild)/1e6, "ms", probeReps)
	return nil
}

func probeProofCache(m metrics, _ field.Field, _ sizes, _ uint64) error {
	c := proofcache.New(1 << 20)
	key := proofcache.Key{Dataset: "probe", Version: 1, Query: "q"}
	val := make([]byte, 1024)
	compute := func() ([]byte, error) { return val, nil }
	if _, err := c.Get(key, compute); err != nil {
		return err
	}
	const gets = 20000
	t0 := time.Now()
	for i := 0; i < gets; i++ {
		if _, err := c.Get(key, compute); err != nil {
			return err
		}
	}
	m.set("proofcache.get_hit_us", float64(time.Since(t0))/gets/1e3, "us", gets)
	return nil
}

// wire, shard: the same small F2 conversation run in-process, over the
// wire to its engine, and through a router in front of that engine; an
// ingest batch over the wire against the engine call it wraps; and k
// conversations serial against overlapped on one connection.
func probeWireShard(m metrics, f field.Field, sz sizes, seed uint64) error {
	e := newEnv()
	defer e.close()
	d := mixedData(sz, seed, 0)[0]
	d.name = "probe-wire"
	eng, addr, err := e.engineServer(1, nil)
	if err != nil {
		return err
	}
	raddr, err := e.route(&shard.Table{
		Shards: []shard.ShardInfo{{Name: "s0", Addr: addr}},
		Routes: map[string]string{d.name: "s0"},
	})
	if err != nil {
		return err
	}
	direct, err := e.attach(addr, d)
	if err != nil {
		return err
	}
	routed, err := e.dial(raddr)
	if err != nil {
		return err
	}
	if _, err := routed.OpenDataset(d.name, d.u); err != nil {
		return err
	}
	twin := snapOf(eng, d.name)
	const reps = 40
	var local, wired, hopped []float64
	var st core.Stats
	for rep := 0; rep < reps; rep++ {
		for i, arm := range []*wire.Client{nil, direct, routed} {
			v, err := observed(f, d.u, f2Query, rngFor(seed, fmt.Sprint("probe/wire/", rep, i)), d.ups)
			if err != nil {
				return err
			}
			t0 := time.Now()
			if arm == nil {
				snap, err := twin()
				if err != nil {
					return err
				}
				p, err := snap.NewProver(f2Query.kind, f2Query.params)
				if err == nil {
					_, err = core.Run(p, v)
				}
				if err != nil {
					return err
				}
				local = append(local, float64(time.Since(t0)))
				continue
			}
			if st, err = arm.Query(f2Query.kind, f2Query.params, v); err != nil {
				return err
			}
			if arm == direct {
				wired = append(wired, float64(time.Since(t0)))
			} else {
				hopped = append(hopped, float64(time.Since(t0)))
			}
		}
	}
	overhead := median(wired) - median(local)
	m.set("wire.query_overhead_ms", overhead/1e6, "ms", reps)
	m.set("wire.round_trip_us", overhead/float64(st.Rounds)/1e3, "us", reps)
	forward := median(hopped) - median(wired)
	m.set("shard.forward_overhead_ms", forward/1e6, "ms", reps)
	m.set("shard.hop_us_per_round", forward/float64(st.Rounds)/1e3, "us", reps)

	batch := randomStream(d.u, min(4096, int(d.u)), rngFor(seed, "probe/wire/ingest"))
	both := [2][]stream.Update{batch, negate(batch)}
	local2, err := engine.NewDataset(f, d.u, 1)
	if err != nil {
		return err
	}
	rep := 0
	ack, err := medianNs(reps, func() error { rep++; _, err := direct.Ingest(both[rep%2]); return err })
	if err != nil {
		return err
	}
	bare, err := medianNs(reps, func() error { rep++; return local2.Ingest(both[rep%2]) })
	if err != nil {
		return err
	}
	m.set("wire.ingest_ack_ms", ack/1e6, "ms", reps)
	m.set("wire.ingest_overhead_ns_per_update", (ack-bare)/float64(len(batch)), "ns", reps)

	// k F2 conversations on one connection, serial then overlapped.
	const k = 4
	var serial, overlapped []float64
	for rep := 0; rep < probeReps; rep++ {
		vs := make([]engine.StreamVerifier, 2*k)
		for i := range vs {
			if vs[i], err = observed(f, d.u, f2Query, rngFor(seed, fmt.Sprint("probe/mux/", rep, i)), d.ups); err != nil {
				return err
			}
		}
		t0 := time.Now()
		for _, v := range vs[:k] {
			if _, err := direct.Query(f2Query.kind, f2Query.params, v); err != nil {
				return err
			}
		}
		serial = append(serial, float64(time.Since(t0)))
		t0 = time.Now()
		var hs []*wire.QueryHandle
		for _, v := range vs[k:] {
			h, err := direct.QueryAsync(f2Query.kind, f2Query.params, v)
			if err != nil {
				return err
			}
			hs = append(hs, h)
		}
		for _, h := range hs {
			if _, err := h.Wait(); err != nil {
				return err
			}
		}
		overlapped = append(overlapped, float64(time.Since(t0)))
	}
	m.set("wire.mux_overlap", median(serial)/median(overlapped), "ratio", probeReps) // base = k overlapped
	return nil
}

// shard: one F2 proof miss on a single engine, and through the
// split-universe router at S = 1 and S = 2.
func probeSplit(m metrics, f field.Field, sz sizes, seed uint64) error {
	u := uint64(1) << sz.probeF2LogU
	d := newDataset("probe-split", u, randomStream(u, min(1<<12, int(u)), rngFor(seed, "probe/split")))
	bump := []stream.Update{{Index: 1, Delta: 1}}
	both := [2][]stream.Update{bump, negate(bump)}
	miss := map[int]float64{}
	for _, S := range []int{0, 1, 2} {
		err := func() error {
			e := newEnv()
			defer e.close()
			var addr string
			var err error
			if S == 0 {
				_, addr, err = e.engineServer(1, nil)
			} else {
				addr, err = e.splitRouter(d.name, S)
			}
			if err != nil {
				return err
			}
			cl, err := e.attach(addr, d)
			if err != nil {
				return err
			}
			if _, err := cl.FetchProof(f2Query.kind, f2Query.params, 0); err != nil {
				return err
			}
			var xs []float64
			for rep := 0; rep < probeReps; rep++ {
				if _, err := cl.Ingest(both[rep%2]); err != nil {
					return err
				}
				t0 := time.Now()
				if _, err := cl.FetchProof(f2Query.kind, f2Query.params, 0); err != nil {
					return err
				}
				xs = append(xs, float64(time.Since(t0)))
			}
			miss[S] = median(xs)
			return nil
		}()
		if err != nil {
			return fmt.Errorf("probe split S=%d: %w", S, err)
		}
	}
	m.set("shard.split_miss_ms_s1", miss[1]/1e6, "ms", probeReps)
	m.set("shard.split_miss_ms_s2", miss[2]/1e6, "ms", probeReps)
	m.set("shard.split_speedup_s2", miss[1]/miss[2], "ratio", probeReps) // base = S1
	m.set("shard.split_vs_direct", miss[2]/miss[0], "ratio", probeReps)  // base = direct
	return nil
}
