package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
	"repro/internal/wire"
)

// laneAcc collects what one lane measured during a window. Sums are
// taken over whole cycles only, so per-op means of the count metrics
// repeat exactly from run to run.
type laneAcc struct {
	lat       []float64 // latency of the workload's primary op, ms
	missLat   []float64 // FetchProof latency when it ran the prover, ms
	directLat []float64 // split_proof: the same miss on the direct twin, ms
	attempted int       // every op issued, primary or not
	failed    int       // refused, errored, rejected, or answered wrongly
	verified  int       // accepted ops whose answer matched the reference
	words     int64     // core.Stats words both ways, over verified ops
	toV, toP  int64     // ... split by direction
	rounds    int64     // prover messages, over verified ops
	observeNs int64     // verifier stream-pass time
	observed  int64     // ... over this many updates
	space     int       // max SpaceWords over the verifiers used
	ingested  int64     // acknowledged updates
	cold      int       // ops that found their dataset non-resident (traced runs)
	firstErr  error
}

func (a *laneAcc) fail(err error) {
	a.failed++
	if a.firstErr == nil {
		a.firstErr = err
	}
}

// count books one verified conversation (live or recorded).
func (a *laneAcc) count(st core.Stats, v core.VerifierSession) {
	a.verified++
	a.words += int64(st.CommWords())
	a.toV += int64(st.WordsToVerifier)
	a.toP += int64(st.WordsToProver)
	a.rounds += int64(st.Rounds)
	if s, ok := v.(interface{ SpaceWords() int }); ok {
		a.space = max(a.space, s.SpaceWords())
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seedVerifier builds a fresh verifier for q and streams ups into it —
// the verifier's one pass over the data, timed per update.
func seedVerifier(f field.Field, u uint64, q query, rng field.RNG, ups []stream.Update,
	a *laneAcc, lt *laneTrace, root int) (engine.StreamVerifier, error) {
	id := lt.begin(root, "verifier.observe")
	defer lt.end(id)
	v, err := engine.NewStreamVerifier(f, u, q.kind, q.params, rng)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			return nil, err
		}
	}
	a.observeNs += int64(time.Since(t0))
	a.observed += int64(len(ups))
	return v, nil
}

// observed is seedVerifier outside any window: nothing timed or traced.
func observed(f field.Field, u uint64, q query, rng field.RNG, ups []stream.Update) (engine.StreamVerifier, error) {
	return seedVerifier(f, u, q, rng, ups, &laneAcc{}, nil, 0)
}

// twinSnap returns the server-side snapshot an op's twin proves from:
// the injected engine's own dataset, read in-process.
type twinSnap func() (*engine.Snapshot, error)

func snapOf(eng *engine.Engine, name string) twinSnap {
	return func() (*engine.Snapshot, error) {
		ds, ok := eng.Get(name)
		if !ok {
			return nil, fmt.Errorf("bench: twin dataset %q missing", name)
		}
		return ds.SnapshotErr()
	}
}

// converse is one interactive query op: seed a fresh verifier, run the
// conversation over the wire, check the answer against the reference.
// primary says whether its latency is the workload's op latency. In a
// traced run the twin replays the same challenges against a prover
// built in-process from the server's own snapshot, so the prover's
// share of each wire.wait gap is known.
func converse(e *env, cl *wire.Client, d *dataset, ups []stream.Update, q query, rng field.RNG,
	primary bool, twin twinSnap, a *laneAcc, lt *laneTrace) {
	a.attempted++
	lt.nextOp()
	root := lt.root("op", q.label)
	sv, err := seedVerifier(e.f, d.u, q, rng, ups, a, lt, root)
	if err != nil {
		lt.end(root)
		a.fail(err)
		return
	}
	var v core.VerifierSession = sv
	var tv *tracedVerifier
	qid := lt.begin(root, "wire.query")
	if lt != nil {
		tv = &tracedVerifier{v: sv, lt: lt, parent: qid, last: lt.now()}
		v = tv
	}
	t0 := time.Now()
	st, err := cl.Query(q.kind, q.params, v)
	lat := time.Since(t0)
	lt.end(qid)
	lt.end(root)
	if err == nil {
		err = checkAnswer(q, sv)
	}
	if err != nil {
		a.fail(fmt.Errorf("%s on %s: %w", q.label, d.name, err))
		return
	}
	a.count(st, sv)
	if primary {
		a.lat = append(a.lat, ms(lat))
	}
	if lt == nil {
		return
	}
	troot := lt.root("twin", q.label)
	defer lt.end(troot)
	id := lt.begin(troot, "engine.snapshot")
	snap, err := twin()
	lt.end(id)
	if err != nil {
		a.fail(err)
		return
	}
	id = lt.begin(troot, "engine.new_prover")
	p, err := snap.NewProver(q.kind, q.params)
	lt.end(id)
	if err == nil {
		err = replayProver(lt, troot, p, tv.challenges)
	}
	if err != nil {
		a.fail(fmt.Errorf("twin %s: %w", q.label, err))
	}
}

// verifyProof checks a fetched proof offline: a verifier seeded from
// the binding's transcript randomness, streamed the client's own view
// of the data, replays the recorded conversation. It returns the
// offline-verify time and the accepted verifier.
func verifyProof(e *env, d *dataset, ups []stream.Update, q query, pf *fs.Proof,
	a *laneAcc, lt *laneTrace, root int) (time.Duration, core.Stats, core.VerifierSession, error) {
	v, err := seedVerifier(e.f, d.u, q, pf.Binding.RNG(), ups, a, lt, root)
	if err != nil {
		return 0, core.Stats{}, nil, err
	}
	var st core.Stats
	for _, m := range pf.Messages {
		st.Rounds++
		st.WordsToVerifier += m.Words()
	}
	id := lt.begin(root, "fs.verify")
	t0 := time.Now()
	err = pf.Binding.Verify(pf, v)
	dt := time.Since(t0)
	lt.end(id)
	return dt, st, v, err
}

// fetchVerify is one non-interactive op: fetch the posted proof at
// version (0 = current), verify it offline. The returned latency is
// fetch + offline verify; the verifier's stream pass is outside it.
func fetchVerify(e *env, cl *wire.Client, d *dataset, ups []stream.Update, q query, version uint64,
	a *laneAcc, lt *laneTrace) (*fs.Proof, time.Duration, time.Duration, bool) {
	a.attempted++
	lt.nextOp()
	root := lt.root("op", q.label)
	id := lt.begin(root, "wire.fetch_proof")
	t0 := time.Now()
	pf, err := cl.FetchProof(q.kind, q.params, version)
	fetch := time.Since(t0)
	lt.end(id)
	if err != nil {
		lt.end(root)
		a.fail(fmt.Errorf("fetch proof on %s: %w", d.name, err))
		return nil, 0, 0, false
	}
	verify, st, v, err := verifyProof(e, d, ups, q, pf, a, lt, root)
	lt.end(root)
	if err == nil {
		err = checkAnswer(q, v)
	}
	if err != nil {
		a.fail(fmt.Errorf("offline verify on %s: %w", d.name, err))
		return nil, 0, 0, false
	}
	a.count(st, v)
	return pf, fetch, verify, true
}

// ingest is one acknowledged ingest batch. counted says whether its
// updates belong to the ingest-rate metric (version bumps do not).
func ingest(cl *wire.Client, ups []stream.Update, counted bool, a *laneAcc, lt *laneTrace) (time.Duration, bool) {
	a.attempted++
	lt.nextOp()
	root := lt.root("op", "ingest")
	id := lt.begin(root, "wire.ingest")
	t0 := time.Now()
	_, err := cl.Ingest(ups)
	dt := time.Since(t0)
	lt.end(id)
	lt.end(root)
	if err != nil {
		a.fail(fmt.Errorf("ingest: %w", err))
		return 0, false
	}
	if counted {
		a.ingested += int64(len(ups))
	}
	return dt, true
}

// bumped is the two states a dataset alternates between when every
// cycle ingests a small batch b and the next cycle cancels it: the
// batch to send to reach each state, the stream a fresh verifier must
// observe in it, and the F2 query with that state's answer. State 0 is
// the dataset as generated, state 1 has +b applied.
type bumped struct {
	to   [2][]stream.Update
	view [2][]stream.Update
	q    [2]query
}

func newBumped(e *env, d *dataset, b []stream.Update) (*bumped, error) {
	s := &bumped{
		to:   [2][]stream.Update{negate(b), b},
		view: [2][]stream.Update{d.ups, append(append([]stream.Update(nil), d.ups...), b...)},
	}
	for i, view := range s.view {
		var err error
		if s.q[i], err = withWant(e, f2Query, newDataset("", d.u, view).counts); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// recordedChallenges feeds a proof's recorded messages to v and returns
// the challenges v answers with — what the prover was driven by.
func recordedChallenges(pf *fs.Proof, v core.VerifierSession) ([]core.Msg, error) {
	var out []core.Msg
	ch, done, err := v.Begin(pf.Messages[0])
	for _, m := range pf.Messages[1:] {
		if err != nil || done {
			break
		}
		out = append(out, ch)
		ch, done, err = v.Step(m)
	}
	return out, err
}

// flipWord returns a copy of pf with one word of one prover message
// changed — the tamper probe for posted proofs.
func flipWord(f field.Field, pf *fs.Proof) (*fs.Proof, error) {
	bad, err := fs.DecodeProof(pf.Encode())
	if err != nil {
		return nil, err
	}
	for i := len(bad.Messages) - 1; i >= 0; i-- {
		if m := bad.Messages[i]; len(m.Elems) > 0 {
			m.Elems[0] = f.Add(m.Elems[0], 1)
			return bad, nil
		}
	}
	return nil, errors.New("bench: proof has no field words to flip")
}

// tamperConversation runs q in-process with one word of one prover
// message flipped; a sound verifier must reject it.
func tamperConversation(e *env, d *dataset, q query, snap *engine.Snapshot) error {
	v, err := observed(e.f, d.u, q, rngFor(1, "tamper/"+q.label), d.ups)
	if err != nil {
		return err
	}
	p, err := snap.NewProver(q.kind, q.params)
	if err != nil {
		return err
	}
	flipped := false
	tp := &core.TamperedProver{P: p, T: func(_ int, m core.Msg) core.Msg {
		if !flipped && len(m.Elems) > 0 {
			m.Elems[len(m.Elems)-1] = e.f.Add(m.Elems[len(m.Elems)-1], 1)
			flipped = true
		}
		return m
	}}
	if _, err := core.Run(tp, v); !errors.Is(err, core.ErrRejected) {
		return fmt.Errorf("bench: tamper probe on %s: a flipped prover word was not rejected (err = %v)", q.label, err)
	}
	return nil
}

// tamperProof fetches nothing: it flips a word of pf and requires the
// offline verifier to reject the result.
func tamperProof(e *env, d *dataset, ups []stream.Update, q query, pf *fs.Proof) error {
	bad, err := flipWord(e.f, pf)
	if err != nil {
		return err
	}
	v, err := observed(e.f, d.u, q, bad.Binding.RNG(), ups)
	if err != nil {
		return err
	}
	if err := bad.Binding.Verify(bad, v); !errors.Is(err, core.ErrRejected) {
		return fmt.Errorf("bench: tamper probe on %s: a proof with one flipped word was not rejected (err = %v)", d.name, err)
	}
	return nil
}

func proofDigest(pf *fs.Proof) [sha256.Size]byte { return sha256.Sum256(pf.Encode()) }
