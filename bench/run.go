package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64 // measured window
	traced   bool
	sz       sizes
	setUps   int    // set-up is repeated this many times; setup_s is the median
	spans    string // span file a traced run writes ("" = none)
}

// runResult is everything one run measured. e2e holds the end-to-end
// metrics of an untraced run, layer the per-layer metrics of a traced
// one, extra the workload-specific rows that are printed and stored but
// are not part of the contract (they do not exist on every workload).
type runResult struct {
	cfg               runConfig
	attempted, failed int
	firstErr          error
	e2e, layer, extra metrics
}

type metric struct {
	Value   float64
	Unit    string
	Samples int
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string, samples int) {
	if !metricNameRE.MatchString(name) {
		panic("bench: bad metric name " + name) // a typo in this package, not an input
	}
	m[name] = metric{Value: v, Unit: unit, Samples: samples}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank quantile of xs (which it sorts).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// tracedShare is the part of a traced run's window that is traced; the
// rest runs untraced first, to price the tracing itself.
const tracedShare = 0.7

// setUp builds the workload and warms it up: a fixed number of cycles
// per lane (about half a second's worth on the baseline), counted in
// set-up time, so a slower system pays for it there.
func setUp(cfg runConfig) (workload, *env, time.Duration, error) {
	t0 := time.Now()
	w, err := newWorkload(cfg.workload)
	if err != nil {
		return nil, nil, 0, err
	}
	e := newEnv()
	if err := w.setUp(e, cfg.sz, cfg.seed); err != nil {
		e.close()
		return nil, nil, 0, fmt.Errorf("%s set-up: %w", cfg.workload, err)
	}
	var warm windowResult
	if warm.run(w, 0, w.warmCycles(), false); warm.failed() > 0 {
		e.close()
		return nil, nil, 0, fmt.Errorf("%s warm-up: %w", cfg.workload, warm.firstErr())
	}
	return w, e, time.Since(t0), nil
}

// runWorkload is one run. An untraced run sets the workload up
// cfg.setUps times and measures an equal share of the window in each,
// pooling the samples: setup_s is the median over the set-ups, and no
// single placement of the tables in memory decides the timings. A
// traced run uses one set-up and ends with the probe battery.
func runWorkload(cfg runConfig) (*runResult, error) {
	res := &runResult{cfg: cfg, e2e: metrics{}, layer: metrics{}, extra: metrics{}}
	dur := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.traced {
		return res, res.runTraced(dur)
	}
	var win windowResult
	var setUpS []float64
	for i := 0; i < cfg.setUps; i++ {
		w, e, took, err := setUp(cfg)
		if err != nil {
			return nil, err
		}
		win.run(w, dur/time.Duration(cfg.setUps), 1, false)
		e.close()
		runtime.GC()
		setUpS = append(setUpS, took.Seconds())
	}
	res.book(&win)
	res.endToEnd(&win, setUpS)
	return res, nil
}

func (r *runResult) runTraced(dur time.Duration) error {
	cfg := r.cfg
	w, e, _, err := setUp(cfg)
	if err != nil {
		return err
	}
	defer e.close()
	var plain, win windowResult
	plain.run(w, time.Duration(float64(dur)*(1-tracedShare)), 1, false)
	before, bytesIn, bytesOut := e.cacheStats(), e.bytesIn.Load(), e.bytesOut.Load()
	win.run(w, time.Duration(float64(dur)*tracedShare), 1, true)
	cache := e.cacheStats().minus(before)
	r.book(&plain)
	r.book(&win)
	r.perLayer(&win, &plain, cache, e.bytesIn.Load()-bytesIn, e.bytesOut.Load()-bytesOut, e.residentBytes())
	if cfg.spans != "" {
		if err := writeSpans(cfg.spans, cfg.workload, cfg.seed, win.traces); err != nil {
			return err
		}
	}
	e.close()
	runtime.GC()
	probes, err := runProbes(cfg.sz, cfg.seed)
	if err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	for name, v := range probes {
		r.layer[name] = v
	}
	return nil
}

// book adds a window's op counts to the run's.
func (r *runResult) book(win *windowResult) {
	r.attempted += win.sum(func(a *laneAcc) int { return a.attempted })
	r.failed += win.failed()
	if r.firstErr == nil {
		r.firstErr = win.firstErr()
	}
}

// windowResult is what the lanes measured; run accumulates into it, so
// one value can pool several windows.
type windowResult struct {
	lanes   []*laneAcc
	elapsed time.Duration
	traces  []*laneTrace
}

func (w *windowResult) sum(f func(*laneAcc) int) int {
	n := 0
	for _, a := range w.lanes {
		n += f(a)
	}
	return n
}

func (w *windowResult) failed() int   { return w.sum(func(a *laneAcc) int { return a.failed }) }
func (w *windowResult) verified() int { return w.sum(func(a *laneAcc) int { return a.verified }) }

func (w *windowResult) firstErr() error {
	for _, a := range w.lanes {
		if a.firstErr != nil {
			return a.firstErr
		}
	}
	return nil
}

// series concatenates one latency series over the lanes.
func (w *windowResult) series(f func(*laneAcc) []float64) []float64 {
	var out []float64
	for _, a := range w.lanes {
		out = append(out, f(a)...)
	}
	return out
}

func opLat(a *laneAcc) []float64 { return a.lat }

// perOp is a count per verified op: each lane's mean over its own whole
// cycles, averaged over the lanes. Lanes finish different numbers of
// cycles from run to run, so only this form repeats exactly.
func (w *windowResult) perOp(f func(*laneAcc) int64) float64 {
	var s float64
	for _, a := range w.lanes {
		s += float64(f(a)) / float64(max(a.verified, 1))
	}
	return s / float64(len(w.lanes))
}

// run drives every lane closed-loop for dur and at least cycles cycles:
// a lane starts its next cycle only while the window is open, and
// always finishes the cycle it started, so sums cover whole cycles.
func (out *windowResult) run(w workload, dur time.Duration, cycles int, traced bool) {
	if out.lanes == nil {
		out.lanes = make([]*laneAcc, w.lanes())
		for lane := range out.lanes {
			out.lanes[lane] = &laneAcc{}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for lane, a := range out.lanes {
		var lt *laneTrace
		if traced {
			lt = &laneTrace{t0: start, lane: lane}
			out.traces = append(out.traces, lt)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			failed := a.failed
			for done := 1; ; done++ {
				w.cycle(lane, a, lt)
				if a.failed > failed || (done >= cycles && time.Since(start) >= dur) {
					return
				}
			}
		}()
	}
	wg.Wait()
	out.elapsed += time.Since(start)
}

// endToEnd fills the contract's end-to-end metrics from the pooled
// windows of an untraced run.
func (r *runResult) endToEnd(win *windowResult, setUpS []float64) {
	secs := win.elapsed.Seconds()
	verified, lat := win.verified(), win.series(opLat)
	observed := win.sum(func(a *laneAcc) int { return int(a.observed) })
	m := r.e2e
	m.set("setup_s", median(setUpS), "s", len(setUpS))
	m.set("verified_ops_per_s", float64(verified)/secs, "1/s", verified)
	m.set("op_ms_p50", quantile(lat, 0.5), "ms", len(lat))
	m.set("verifier_update_ns", float64(win.sum(func(a *laneAcc) int { return int(a.observeNs) }))/float64(max(observed, 1)), "ns", observed)
	m.set("comm_words_per_op", win.perOp(func(a *laneAcc) int64 { return a.words }), "count", verified)
	m.set("rounds_per_op", win.perOp(func(a *laneAcc) int64 { return a.rounds }), "count", verified)
	space := 0
	for _, a := range win.lanes {
		space = max(space, a.space)
	}
	m.set("verifier_space_words", float64(space), "count", verified)
	m.set("peak_rss_mb", peakRSSMB(), "MB", 1)

	x := r.extra
	x.set("error_rate", float64(r.failed)/float64(max(r.attempted, 1)), "ratio", r.attempted)
	x.set("op_ms_p90", quantile(lat, 0.9), "ms", len(lat))
	if miss := win.series(func(a *laneAcc) []float64 { return a.missLat }); len(miss) > 0 {
		x.set("miss_ms_p50", quantile(miss, 0.5), "ms", len(miss))
	}
	if direct := win.series(func(a *laneAcc) []float64 { return a.directLat }); len(direct) > 0 {
		x.set("direct_ms_p50", quantile(direct, 0.5), "ms", len(direct))
	}
	if n := win.sum(func(a *laneAcc) int { return int(a.ingested) }); n > 0 {
		x.set("ingest_updates_per_s", float64(n)/secs, "1/s", n)
	}
}

// perLayer fills the workload-derived per-layer metrics from a traced
// window: counts taken around it, and each layer's share of op time
// from the spans. A live op's time is split using its twin: the twin's
// prover and engine spans say how much of the live op's wire.wait was
// the remote prover rather than the transport.
func (r *runResult) perLayer(win, plain *windowResult, c cacheCounts, bytesIn, bytesOut, resident int64) {
	m := r.layer
	verified, lat := win.verified(), win.series(opLat)
	ops := float64(max(verified, 1))
	m.set("proofcache.hits", float64(c.hits), "count", 1)
	m.set("proofcache.misses", float64(c.misses), "count", 1)
	m.set("proofcache.coalesced", float64(c.coalesced), "count", 1)
	m.set("proofcache.hit_ratio", float64(c.hits)/float64(max(c.hits+c.misses, 1)), "ratio", int(c.hits+c.misses))
	m.set("wire.bytes_out_per_op", float64(bytesOut)/ops, "bytes", verified)
	m.set("wire.bytes_in_per_op", float64(bytesIn)/ops, "bytes", verified)
	m.set("engine.nonresident_ops", float64(win.sum(func(a *laneAcc) int { return a.cold })), "count", verified)
	m.set("engine.resident_bytes", float64(resident), "bytes", 1)
	base := quantile(plain.series(opLat), 0.5)
	m.set("bench.trace_overhead_pct", 100*(quantile(lat, 0.5)-base)/base, "%", len(lat))
	m.set("bench.op_ms_p90", quantile(lat, 0.9), "ms", len(lat))

	live, twin := map[string]int64{}, map[string]int64{}
	var root int64
	for _, lt := range win.traces {
		l, t, ns := selfTimes(lt.spans)
		for k, v := range l {
			live[k] += v
		}
		for k, v := range t {
			twin[k] += v
		}
		root += ns
	}
	pct := func(ns float64) float64 { return 100 * max(ns, 0) / float64(max(root, 1)) }
	observe := float64(live["verifier.observe"])
	verifier := observe + float64(live["verifier.step"]+live["fs.verify"])
	// Server-side time comes from the twins. A twin cannot have taken
	// longer than the live op waited on the wire, so where contention made
	// it slower, the twin's spans are scaled down to fit.
	prover := float64(twin["prover.open"] + twin["prover.step"])
	eng := float64(twin["engine.snapshot"] + twin["engine.new_prover"] + twin["engine.ingest"] + twin["engine.rebuild"])
	// What proof generation costs beyond the bare prover: the engine's
	// verifier replay and the transcript hashing.
	fsNs := float64(twin["fs.encode"])
	if g := twin["engine.generate_proof"]; g > 0 {
		fsNs += max(float64(g-twin["engine.new_prover"])-prover, 0)
	}
	sto := float64(twin["store.load"])
	waited := float64(live["wire.wait"] + live["wire.query"] + live["wire.ingest"] + live["wire.fetch_proof"])
	if server := prover + eng + fsNs + sto; server > waited {
		k := waited / server
		prover, eng, fsNs, sto = prover*k, eng*k, fsNs*k, sto*k
	}
	n := len(lat)
	m.set("share.prover_pct", pct(prover), "%", n)
	m.set("share.verifier_pct", pct(verifier), "%", n)
	m.set("share.kernel_prover_pct", pct(prover+observe), "%", n)
	m.set("share.engine_pct", pct(eng), "%", n)
	m.set("share.fs_pct", pct(fsNs), "%", n)
	m.set("share.store_pct", pct(sto), "%", n)
	m.set("share.root_self_pct", pct(float64(live["op"])), "%", n)
	m.set("share.transport_pct", pct(waited-prover-eng-fsNs-sto), "%", n)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}
