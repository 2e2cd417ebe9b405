// Package harness runs the paper's experiments (§5) and the ablations
// called out in DESIGN.md, producing the data series behind every figure:
//
//	Fig 2(a): verifier stream-processing time vs n (F2, one- vs multi-round)
//	Fig 2(b): prover proof time vs u              (F2, one- vs multi-round)
//	Fig 2(c): verifier space and communication    (F2, one- vs multi-round)
//	Fig 3(a): SUB-VECTOR prover & verifier time vs u
//	Fig 3(b): SUB-VECTOR space and communication
//	in-text : tamper-rejection suite, proof-check time, IPv6 extrapolation
//	ablation: ℓ/d branching-factor trade-off (§3.1 footnote 1)
//	ablation: native F2 vs GKR over the F2 circuit (§3 Remarks)
//	§6.2    : frequency-based functions (F0)
//
// Timing methodology: the verifier's stream pass, the prover's proof
// generation, and the verifier's checking are timed separately by
// decorating the protocol sessions; workload generation is excluded.
// Hardware differs from the paper's 2011 Opteron, so EXPERIMENTS.md
// compares shapes and ratios, not absolute seconds.
package harness

import (
	"fmt"
	"math/bits"
	"time"

	"repro/internal/ccm"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/gkr"
	"repro/internal/lde"
	"repro/internal/stream"
)

// timedProver accumulates the wall time spent inside the prover session.
type timedProver struct {
	inner   core.ProverSession
	elapsed time.Duration
}

func (tp *timedProver) Open() (core.Msg, error) {
	t0 := time.Now()
	m, err := tp.inner.Open()
	tp.elapsed += time.Since(t0)
	return m, err
}

func (tp *timedProver) Step(ch core.Msg) (core.Msg, error) {
	t0 := time.Now()
	m, err := tp.inner.Step(ch)
	tp.elapsed += time.Since(t0)
	return m, err
}

// timedVerifier accumulates the wall time spent inside the verifier
// session (the proof-checking cost the paper reports as "essentially
// negligible").
type timedVerifier struct {
	inner   core.VerifierSession
	elapsed time.Duration
}

func (tv *timedVerifier) Begin(m core.Msg) (core.Msg, bool, error) {
	t0 := time.Now()
	ch, done, err := tv.inner.Begin(m)
	tv.elapsed += time.Since(t0)
	return ch, done, err
}

func (tv *timedVerifier) Step(m core.Msg) (core.Msg, bool, error) {
	t0 := time.Now()
	ch, done, err := tv.inner.Step(m)
	tv.elapsed += time.Since(t0)
	return ch, done, err
}

// F2Row is one data point of Figure 2.
type F2Row struct {
	Protocol      string // "multi-round" or "one-round"
	U             uint64 // universe size (= n in the paper's setup)
	N             uint64 // stream length
	StreamTime    time.Duration
	UpdatesPerSec float64
	ProveTime     time.Duration
	CheckTime     time.Duration
	SpaceBytes    int
	CommBytes     int
	Accepted      bool
}

// F2MultiRound runs the §3 protocol on the paper's workload (u = n,
// per-item counts uniform in [0, maxDelta]). workers is the prover's
// parallel fan-out (0 serial, n < 0 all cores); the transcript and the
// row's space/communication columns are identical for every value.
func F2MultiRound(f field.Field, u uint64, maxDelta int64, seed uint64, workers int) (F2Row, error) {
	proto, err := core.NewSelfJoinSize(f, u)
	if err != nil {
		return F2Row{}, err
	}
	gen := field.NewSplitMix64(seed)
	ups := stream.UniformDeltas(proto.Params.U, maxDelta, gen)
	v := proto.NewVerifier(field.NewSplitMix64(seed + 1))

	t0 := time.Now()
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			return F2Row{}, err
		}
	}
	streamTime := time.Since(t0)
	p, err := engine.NewReplayProver(f, proto.Params.U, engine.QuerySelfJoinSize, engine.QueryParams{}, ups, workers)
	if err != nil {
		return F2Row{}, err
	}

	tp := &timedProver{inner: p}
	tv := &timedVerifier{inner: v}
	stats, err := core.Run(tp, tv)
	row := F2Row{
		Protocol:      "multi-round",
		U:             proto.Params.U,
		N:             uint64(len(ups)),
		StreamTime:    streamTime,
		UpdatesPerSec: rate(len(ups), streamTime),
		ProveTime:     tp.elapsed,
		CheckTime:     tv.elapsed,
		SpaceBytes:    8 * v.SpaceWords(),
		CommBytes:     stats.CommBytes(),
		Accepted:      err == nil,
	}
	return row, err
}

// F2OneRound runs the CCM baseline on the same workload. workers is the
// prover's parallel fan-out over the proof's evaluation points.
func F2OneRound(f field.Field, u uint64, maxDelta int64, seed uint64, workers int) (F2Row, error) {
	proto, err := ccm.New(f, u)
	if err != nil {
		return F2Row{}, err
	}
	proto.Workers = workers
	gen := field.NewSplitMix64(seed)
	ups := stream.UniformDeltas(proto.U, maxDelta, gen)
	v := proto.NewVerifier(field.NewSplitMix64(seed + 1))
	p := proto.NewProver() // ccm: the one-round baseline still observes the stream

	t0 := time.Now()
	for _, up := range ups {
		if err := v.Observe(up.Index, up.Delta); err != nil {
			return F2Row{}, err
		}
	}
	streamTime := time.Since(t0)
	for _, up := range ups {
		if err := p.Observe(up.Index, up.Delta); err != nil {
			return F2Row{}, err
		}
	}

	t1 := time.Now()
	proof := p.Prove()
	proveTime := time.Since(t1)
	t2 := time.Now()
	_, err = v.Verify(proof)
	checkTime := time.Since(t2)

	row := F2Row{
		Protocol:      "one-round",
		U:             proto.U,
		N:             uint64(len(ups)),
		StreamTime:    streamTime,
		UpdatesPerSec: rate(len(ups), streamTime),
		ProveTime:     proveTime,
		CheckTime:     checkTime,
		SpaceBytes:    8 * v.SpaceWords(),
		CommBytes:     8 * len(proof),
		Accepted:      err == nil,
	}
	return row, err
}

// SubVectorRow is one data point of Figure 3.
type SubVectorRow struct {
	U          uint64
	N          uint64
	Span       uint64 // qR - qL + 1 (the paper uses 1000)
	K          int    // nonzero entries reported
	StreamTime time.Duration
	ProveTime  time.Duration
	CheckTime  time.Duration
	SpaceBytes int
	CommBytes  int
	Accepted   bool
}

// SubVectorRun runs the §4 protocol with a centered query of the given
// span on the paper's workload. workers is the prover's parallel fan-out.
func SubVectorRun(f field.Field, u uint64, span uint64, maxDelta int64, seed uint64, workers int) (SubVectorRow, error) {
	proto, err := core.NewSubVector(f, u)
	if err != nil {
		return SubVectorRow{}, err
	}
	if span > proto.Params.U {
		span = proto.Params.U
	}
	gen := field.NewSplitMix64(seed)
	ups := stream.UniformDeltas(proto.Params.U, maxDelta, gen)
	v := proto.NewVerifier(field.NewSplitMix64(seed + 1))

	t0 := time.Now()
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			return SubVectorRow{}, err
		}
	}
	streamTime := time.Since(t0)
	qL := (proto.Params.U - span) / 2
	qR := qL + span - 1
	if err := v.SetQuery(qL, qR); err != nil {
		return SubVectorRow{}, err
	}
	p, err := engine.NewReplayProver(f, proto.Params.U, engine.QueryRangeQuery, engine.QueryParams{A: qL, B: qR}, ups, workers)
	if err != nil {
		return SubVectorRow{}, err
	}

	tp := &timedProver{inner: p}
	tv := &timedVerifier{inner: v}
	stats, err := core.Run(tp, tv)
	row := SubVectorRow{
		U:          proto.Params.U,
		N:          uint64(len(ups)),
		Span:       span,
		StreamTime: streamTime,
		ProveTime:  tp.elapsed,
		CheckTime:  tv.elapsed,
		SpaceBytes: 8 * v.SpaceWords(),
		CommBytes:  stats.CommBytes(),
		Accepted:   err == nil,
	}
	if err == nil {
		entries, rerr := v.Result()
		if rerr != nil {
			return row, rerr
		}
		row.K = len(entries)
	}
	return row, err
}

func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}

// ---------------------------------------------------------------------
// Tamper suite (§5 in-text: "In all cases, the protocols caught the
// error, and rejected the proof.")

// TamperOutcome records one adversarial run.
type TamperOutcome struct {
	Query    string
	Mode     string
	Rejected bool
}

// TamperSuite runs every core query against a battery of dishonest
// provers and reports, in a fixed order, whether each was rejected. A
// complete reproduction has Rejected == true on every row.
func TamperSuite(f field.Field, u uint64, seed uint64) ([]TamperOutcome, error) {
	gen := field.NewSplitMix64(seed)
	ups := stream.UniformDeltas(u, 100, gen)
	zipf, err := stream.Zipf(u, int(4*u), 1.2, gen)
	if err != nil {
		return nil, err
	}
	flip := func(round int) core.Tamperer {
		return func(r int, m core.Msg) core.Msg {
			if r == round && len(m.Elems) > 0 {
				m.Elems[0]++
			}
			return m
		}
	}
	dropEntry := func(r int, m core.Msg) core.Msg {
		if r == 0 && len(m.Ints) > 0 {
			m.Ints = m.Ints[1:]
			m.Elems = m.Elems[1:]
		}
		return m
	}
	inflate := func(r int, m core.Msg) core.Msg {
		if r == 0 && len(m.Ints) >= 2 {
			m.Ints[1] += 3
		}
		return m
	}
	d := bits.Len64(u - 1) // rounds of F0's heavy-hitters phase

	f2, sub := engine.QueryParams{}, engine.QueryParams{A: 10, B: 60}
	attacks := []struct {
		query  string
		kind   engine.QueryKind
		params engine.QueryParams
		ups    []stream.Update
		vseed  uint64 // the verifier draws from seed + vseed
		mode   string
		tamper core.Tamperer // nil: the prover misses the stream's last update instead
	}{
		{"SELF-JOIN SIZE", engine.QuerySelfJoinSize, f2, ups, 2, "flip opening", flip(0)},
		{"SELF-JOIN SIZE", engine.QuerySelfJoinSize, f2, ups, 2, "flip round 3", flip(3)},
		{"SELF-JOIN SIZE", engine.QuerySelfJoinSize, f2, ups, 2, "drop update", nil},
		// Round 1 carries the level-1 sibling of ancestor 10>>1 = 5 (odd),
		// so a flip there always fires for the query [10, 60].
		{"SUB-VECTOR", engine.QueryRangeQuery, sub, ups, 3, "flip answer value", flip(0)},
		{"SUB-VECTOR", engine.QueryRangeQuery, sub, ups, 3, "flip sibling hash", flip(1)},
		{"SUB-VECTOR", engine.QueryRangeQuery, sub, ups, 3, "drop first entry", dropEntry},
		{"HEAVY HITTERS", engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.05}, zipf, 4, "inflate count", inflate},
		{"RANGE-SUM", engine.QueryRangeSum, engine.QueryParams{A: 0, B: u / 2}, ups, 5, "flip claim", flip(0)},
		// The first sum-check message comes after the d-round HH phase.
		{"F0", engine.QueryF0, engine.QueryParams{}, zipf, 6, "flip sum-check", flip(d + 1)},
	}
	out := make([]TamperOutcome, 0, len(attacks))
	for _, a := range attacks {
		v, err := engine.NewStreamVerifier(f, u, a.kind, a.params, field.NewSplitMix64(seed+a.vseed))
		if err != nil {
			return nil, err
		}
		for _, up := range a.ups {
			if err := v.Observe(up); err != nil {
				return nil, err
			}
		}
		seen := a.ups
		if a.tamper == nil {
			seen = seen[:len(seen)-1]
		}
		p, err := engine.NewReplayProver(f, u, a.kind, a.params, seen, 0)
		if err != nil {
			return nil, err
		}
		if a.tamper != nil {
			p = &core.TamperedProver{P: p, T: a.tamper}
		}
		_, err = core.Run(p, v)
		out = append(out, TamperOutcome{Query: a.query, Mode: a.mode, Rejected: err != nil})
	}
	return out, nil
}

// ---------------------------------------------------------------------
// Frequency-based functions (§6.2)

// F0Row is one data point of the frequency-based experiment.
type F0Row struct {
	U         uint64
	F0        uint64
	CommWords int
	ProveTime time.Duration
	CheckTime time.Duration
	Accepted  bool
}

// F0Run verifies the distinct count of a Zipf stream at the default
// φ = u^{-1/2} and reports the (log u, √u·log u) costs of Theorem 6.
// workers is the prover's parallel fan-out.
func F0Run(f field.Field, u uint64, seed uint64, workers int) (F0Row, error) {
	proto, err := core.NewF0(f, u, 0)
	if err != nil {
		return F0Row{}, err
	}
	gen := field.NewSplitMix64(seed)
	ups, err := stream.Zipf(proto.TreeParams.U, int(4*proto.TreeParams.U), 1.2, gen)
	if err != nil {
		return F0Row{}, err
	}
	v := proto.NewVerifier(field.NewSplitMix64(seed + 1))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			return F0Row{}, err
		}
	}
	p, err := engine.NewReplayProver(f, proto.TreeParams.U, engine.QueryF0, engine.QueryParams{}, ups, workers)
	if err != nil {
		return F0Row{}, err
	}
	tp := &timedProver{inner: p}
	tv := &timedVerifier{inner: v}
	stats, err := core.Run(tp, tv)
	row := F0Row{
		U:         proto.TreeParams.U,
		CommWords: stats.CommWords(),
		ProveTime: tp.elapsed,
		CheckTime: tv.elapsed,
		Accepted:  err == nil,
	}
	if err != nil {
		return row, err
	}
	res, err := v.Result()
	if err != nil {
		return row, err
	}
	row.F0 = uint64(res)
	return row, nil
}

// ---------------------------------------------------------------------
// Branching-factor ablation (§3.1 footnote 1)

// BranchingRow is one point of the ℓ/d trade-off sweep.
type BranchingRow struct {
	Ell, D     int
	CommWords  int
	Rounds     int
	SpaceBytes int
	StreamTime time.Duration
	ProveTime  time.Duration
	Accepted   bool
}

// BranchingSweep runs F2 over u with each branching factor; u must be a
// power of every ℓ given.
func BranchingSweep(f field.Field, u uint64, ells []int, seed uint64) ([]BranchingRow, error) {
	var out []BranchingRow
	for _, ell := range ells {
		params, err := exactParams(u, ell)
		if err != nil {
			return nil, err
		}
		proto, err := core.NewFkWithParams(f, params, 2)
		if err != nil {
			return nil, err
		}
		gen := field.NewSplitMix64(seed)
		ups := stream.UniformDeltas(params.U, 100, gen)
		v := proto.NewVerifier(field.NewSplitMix64(seed + 1))
		t0 := time.Now()
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				return nil, err
			}
		}
		streamTime := time.Since(t0)
		// A custom ℓ has no kind-table row: aggregate the table by hand.
		counts, err := stream.Apply(ups, params.U)
		if err != nil {
			return nil, err
		}
		table := make([]field.Elem, params.U)
		f.FromInt64Slice(table, counts)
		p, err := proto.NewProverFromTable(table)
		if err != nil {
			return nil, err
		}
		tp := &timedProver{inner: p}
		stats, err := core.Run(tp, v)
		out = append(out, BranchingRow{
			Ell: ell, D: params.D,
			CommWords:  stats.CommWords(),
			Rounds:     stats.Rounds,
			SpaceBytes: 8 * v.SpaceWords(),
			StreamTime: streamTime,
			ProveTime:  tp.elapsed,
			Accepted:   err == nil,
		})
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------
// GKR-vs-native ablation (§3 Remarks)

// CompareRow is one protocol's cost on the ablation's shared workload.
type CompareRow struct {
	Protocol  string // "native" or "gkr"
	CommWords int
	Rounds    int
	ProveTime time.Duration
	CheckTime time.Duration
	Accepted  bool
}

// CompareF2 runs the specialized (log u, log u) F2 protocol and the
// general Theorem-3 construction (GKR over the F2 circuit, which costs
// (log² u, log² u)) on the same uniform stream over a universe of size u
// (a power of two) and returns both cost rows. Both must accept and agree
// on the answer. The GKR prover is engine-backed: it borrows the
// dataset's maintained element table exactly as a server answering a
// CIRCUIT query would.
func CompareF2(f field.Field, u uint64, seed uint64) (native, gkrRow CompareRow, err error) {
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(seed))

	proto, err := core.NewSelfJoinSize(f, u)
	if err != nil {
		return native, gkrRow, err
	}
	v := proto.NewVerifier(field.NewSplitMix64(seed + 1))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			return native, gkrRow, err
		}
	}
	p, err := engine.NewReplayProver(f, u, engine.QuerySelfJoinSize, engine.QueryParams{}, ups, 0)
	if err != nil {
		return native, gkrRow, err
	}
	tp, tv := &timedProver{inner: p}, &timedVerifier{inner: v}
	stats, err := core.Run(tp, tv)
	if err != nil {
		return native, gkrRow, err
	}
	nativeResult, err := v.Result()
	if err != nil {
		return native, gkrRow, err
	}
	native = CompareRow{
		Protocol:  "native",
		CommWords: stats.CommWords(),
		Rounds:    stats.Rounds,
		ProveTime: tp.elapsed,
		CheckTime: tv.elapsed,
		Accepted:  true,
	}

	spec := circuit.Spec{Name: circuit.FamilyF2}
	ds, err := engine.NewDataset(f, u, 1)
	if err != nil {
		return native, gkrRow, err
	}
	if err := ds.Ingest(ups); err != nil {
		return native, gkrRow, err
	}
	gv, err := gkr.NewVerifierFor(f, spec, u, field.NewSplitMix64(seed+2))
	if err != nil {
		return native, gkrRow, err
	}
	for _, up := range ups {
		if err := gv.Observe(up); err != nil {
			return native, gkrRow, err
		}
	}
	gp, err := ds.Snapshot().NewProver(engine.QueryCircuit, engine.QueryParams{Circuit: spec.Name, A: spec.Arg})
	if err != nil {
		return native, gkrRow, err
	}
	tp, tv = &timedProver{inner: gp}, &timedVerifier{inner: gv}
	gstats, err := core.Run(tp, tv)
	if err != nil {
		return native, gkrRow, err
	}
	gkrResult, err := gv.Output()
	if err != nil {
		return native, gkrRow, err
	}
	if gkrResult != nativeResult {
		return native, gkrRow, fmt.Errorf("harness: protocols disagree on F2: native %d, gkr %d", nativeResult, gkrResult)
	}
	gkrRow = CompareRow{
		Protocol:  "gkr",
		CommWords: gstats.CommWords(),
		Rounds:    gstats.Rounds,
		ProveTime: tp.elapsed,
		CheckTime: tv.elapsed,
		Accepted:  true,
	}
	return native, gkrRow, nil
}

// ---------------------------------------------------------------------
// IPv6 extrapolation (§5 closing paragraph)

// IPv6Estimate reproduces the paper's closing calculation: 1TB of IPv6
// addresses (~6×10^10 values over a 128-bit domain) from a measured
// multi-round prover rate.
type IPv6Estimate struct {
	MeasuredU        uint64
	MeasuredRate     float64 // updates/second at log u = MeasuredLogU
	MeasuredLogU     int
	TargetN          float64
	TargetLogU       int
	EstimatedSeconds float64
}

// IPv6Extrapolate scales a measured prover rate to the paper's 1TB IPv6
// scenario: cost grows linearly in n and in log u.
func IPv6Extrapolate(measuredU uint64, measuredRate float64) IPv6Estimate {
	logU := 0
	for cap := uint64(1); cap < measuredU; cap <<= 1 {
		logU++
	}
	const targetN = 6e10
	const targetLogU = 128
	scale := float64(targetLogU) / float64(logU)
	return IPv6Estimate{
		MeasuredU:        measuredU,
		MeasuredRate:     measuredRate,
		MeasuredLogU:     logU,
		TargetN:          targetN,
		TargetLogU:       targetLogU,
		EstimatedSeconds: targetN * scale / measuredRate,
	}
}

// exactParams builds (ℓ, d) parameters with ℓ^d = u exactly, for the
// branching ablation where all decompositions must cover the same
// universe.
func exactParams(u uint64, ell int) (lde.Params, error) {
	size := uint64(1)
	d := 0
	for size < u {
		size *= uint64(ell)
		d++
	}
	if size != u {
		return lde.Params{}, fmt.Errorf("harness: %d is not a power of %d", u, ell)
	}
	return lde.NewParams(ell, d)
}
