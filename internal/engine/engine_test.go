package engine_test

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// recordingProver wraps a prover session and keeps a copy of every
// message it sends, so two conversations can be compared bit for bit.
type recordingProver struct {
	inner core.ProverSession
	msgs  []core.Msg
}

func (r *recordingProver) record(m core.Msg) core.Msg {
	r.msgs = append(r.msgs, core.Msg{
		Ints:  append([]uint64(nil), m.Ints...),
		Elems: append([]field.Elem(nil), m.Elems...),
	})
	return m
}

func (r *recordingProver) Open() (core.Msg, error) {
	m, err := r.inner.Open()
	if err != nil {
		return m, err
	}
	return r.record(m), nil
}

func (r *recordingProver) Step(ch core.Msg) (core.Msg, error) {
	m, err := r.inner.Step(ch)
	if err != nil {
		return m, err
	}
	return r.record(m), nil
}

func sameMsgs(a, b []core.Msg) error {
	if len(a) != len(b) {
		return fmt.Errorf("round counts differ: %d vs %d", len(a), len(b))
	}
	for r := range a {
		if len(a[r].Ints) != len(b[r].Ints) || len(a[r].Elems) != len(b[r].Elems) {
			return fmt.Errorf("round %d shapes differ", r)
		}
		for i := range a[r].Ints {
			if a[r].Ints[i] != b[r].Ints[i] {
				return fmt.Errorf("round %d int %d differs: %d vs %d", r, i, a[r].Ints[i], b[r].Ints[i])
			}
		}
		for i := range a[r].Elems {
			if a[r].Elems[i] != b[r].Elems[i] {
				return fmt.Errorf("round %d elem %d differs: %d vs %d", r, i, a[r].Elems[i], b[r].Elems[i])
			}
		}
	}
	return nil
}

// newVerifier builds the verifier session for one query kind, with its
// query already set where the protocol wants it pre-conversation.
func newVerifier(f field.Field, u uint64, kind engine.QueryKind, p engine.QueryParams, rng field.RNG) (core.VerifierSession, func(stream.Update) error, error) {
	v, err := engine.NewStreamVerifier(f, u, kind, p, rng)
	if err != nil {
		return nil, nil, err
	}
	return v, v.Observe, nil
}

type kindCase struct {
	kind   engine.QueryKind
	params engine.QueryParams
}

// circuitF2 is the GKR case the proof tests append to allKinds().
var circuitF2 = kindCase{engine.QueryCircuit, engine.QueryParams{Circuit: "F2"}}

func allKinds() []kindCase {
	return []kindCase{
		{engine.QuerySelfJoinSize, engine.QueryParams{}},
		{engine.QueryFk, engine.QueryParams{K: 3}},
		{engine.QueryRangeSum, engine.QueryParams{A: 3, B: 200}},
		{engine.QueryRangeQuery, engine.QueryParams{A: 3, B: 200}},
		{engine.QueryIndex, engine.QueryParams{A: 17}},
		{engine.QueryDictionary, engine.QueryParams{A: 17}},
		{engine.QueryPredecessor, engine.QueryParams{A: 99}},
		{engine.QuerySuccessor, engine.QueryParams{A: 99}},
		{engine.QueryKLargest, engine.QueryParams{K: 4}},
		{engine.QueryHeavyHitters, engine.QueryParams{Phi: 0.02}},
		{engine.QueryF0, engine.QueryParams{}},
		{engine.QueryFmax, engine.QueryParams{}},
	}
}

// TestSnapshotTranscriptsMatchReplay is the contract of the whole
// engine: for every query kind and worker count, a prover built from a
// dataset snapshot holds a conversation bit-identical to one built from
// the aggregated stream (engine.NewReplayProver, the reference), and
// both are accepted.
func TestSnapshotTranscriptsMatchReplay(t *testing.T) {
	const u = 500 // deliberately not a power of two: exercises padding
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(42))

	for _, workers := range []int{0, 2, -1} {
		ds, err := engine.NewDataset(f61, u, workers)
		if err != nil {
			t.Fatal(err)
		}
		// Ingest in uneven batches, including one per-update drip.
		if err := ds.Ingest(ups[:7]); err != nil {
			t.Fatal(err)
		}
		for _, up := range ups[7:10] {
			if err := ds.Ingest([]stream.Update{up}); err != nil {
				t.Fatal(err)
			}
		}
		if err := ds.Ingest(ups[10:]); err != nil {
			t.Fatal(err)
		}
		snap := ds.Snapshot()
		if snap.Updates() != uint64(len(ups)) {
			t.Fatalf("snapshot reflects %d updates, want %d", snap.Updates(), len(ups))
		}

		for _, c := range allKinds() {
			name := fmt.Sprintf("kind=%d/workers=%d", c.kind, workers)
			seed := uint64(7_000 + uint64(c.kind))

			run := func(p core.ProverSession) ([]core.Msg, error) {
				v, obs, err := newVerifier(f61, u, c.kind, c.params, field.NewSplitMix64(seed))
				if err != nil {
					return nil, err
				}
				for _, up := range ups {
					if err := obs(up); err != nil {
						return nil, err
					}
				}
				rec := &recordingProver{inner: p}
				if _, err := core.Run(rec, v); err != nil {
					return nil, err
				}
				return rec.msgs, nil
			}

			replay, err := engine.NewReplayProver(f61, u, c.kind, c.params, ups, workers)
			if err != nil {
				t.Fatalf("%s: replay prover: %v", name, err)
			}
			want, err := run(replay)
			if err != nil {
				t.Fatalf("%s: replay conversation: %v", name, err)
			}
			fromSnap, err := snap.NewProver(c.kind, c.params)
			if err != nil {
				t.Fatalf("%s: snapshot prover: %v", name, err)
			}
			got, err := run(fromSnap)
			if err != nil {
				t.Fatalf("%s: snapshot conversation: %v", name, err)
			}
			if err := sameMsgs(want, got); err != nil {
				t.Errorf("%s: transcripts differ: %v", name, err)
			}
		}
	}
}

// TestSnapshotIsolation: a snapshot's view is frozen; later ingestion is
// visible only to later snapshots, and provers from the old snapshot
// still verify against the old stream.
func TestSnapshotIsolation(t *testing.T) {
	const u = 256
	first := stream.UniformDeltas(u, 9, field.NewSplitMix64(5))
	extra := stream.UnitIncrements(u, 300, field.NewSplitMix64(6))

	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(first); err != nil {
		t.Fatal(err)
	}
	s1 := ds.Snapshot()
	c1 := s1.Counts()[17]
	if err := ds.Ingest(extra); err != nil {
		t.Fatal(err)
	}
	s2 := ds.Snapshot()

	if s1.Updates() != uint64(len(first)) {
		t.Fatalf("old snapshot grew: %d updates", s1.Updates())
	}
	if s1.Counts()[17] != c1 {
		t.Fatal("old snapshot's counts changed after ingest")
	}
	if s2.Updates() != uint64(len(first)+len(extra)) {
		t.Fatalf("new snapshot has %d updates, want %d", s2.Updates(), len(first)+len(extra))
	}

	// A prover from each snapshot verifies against the matching stream.
	for i, tc := range []struct {
		snap *engine.Snapshot
		ups  []stream.Update
	}{{s1, first}, {s2, append(append([]stream.Update(nil), first...), extra...)}} {
		v, obs, err := newVerifier(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, field.NewSplitMix64(900+uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range tc.ups {
			if err := obs(up); err != nil {
				t.Fatal(err)
			}
		}
		p, err := tc.snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := core.Run(p, v); err != nil {
			t.Fatalf("snapshot %d rejected: %v", i, err)
		}
	}
}

// TestEngineOpenAttach: Open is create-or-attach, with the universe
// pinned at creation.
func TestEngineOpenAttach(t *testing.T) {
	e := engine.New(f61, 0)
	a, err := e.Open("logs", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Open("logs", 1<<10)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("re-open returned a different dataset")
	}
	if _, err := e.Open("logs", 1<<11); err == nil {
		t.Fatal("universe mismatch accepted")
	}
	if _, err := e.Open("", 1<<10); err == nil {
		t.Fatal("empty name accepted")
	}
	if _, ok := e.Get("logs"); !ok {
		t.Fatal("Get missed an open dataset")
	}
	if names := e.Names(); len(names) != 1 || names[0] != "logs" {
		t.Fatalf("Names = %v", names)
	}
	e.Drop("logs")
	if _, ok := e.Get("logs"); ok {
		t.Fatal("Drop left the dataset registered")
	}
}

// TestDatasetNameBound: a name longer than a posted proof's one-byte
// length field can carry is refused wherever a name enters the engine
// (it used to be accepted and yield a proof DecodeProof rejects), and
// the longest legal name still round-trips through the proof codec.
func TestDatasetNameBound(t *testing.T) {
	e := engine.New(f61, 1)
	long := strings.Repeat("x", 256)
	if _, err := e.Open(long, 256); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Open of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.OpenSlice(long, 256, 0, 128); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("OpenSlice of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.Adopt(long); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Adopt of a 256-byte name: %v, want ErrDatasetName", err)
	}
	if _, err := e.Open("", 256); !errors.Is(err, engine.ErrDatasetName) {
		t.Fatalf("Open of the empty name: %v, want ErrDatasetName", err)
	}
	ds, err := e.Open(long[:255], 256)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(stream.UnitIncrements(256, 50, field.NewSplitMix64(3))); err != nil {
		t.Fatal(err)
	}
	pf, err := ds.Snapshot().GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fs.DecodeProof(pf.Encode())
	if err != nil {
		t.Fatalf("proof under a 255-byte name does not decode: %v", err)
	}
	if dec.Binding != pf.Binding {
		t.Fatal("proof under a 255-byte name did not round-trip")
	}
}

// TestIngestValidation: a batch with any out-of-range index is rejected
// atomically.
func TestIngestValidation(t *testing.T) {
	ds, err := engine.NewDataset(f61, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	err = ds.Ingest([]stream.Update{{Index: 1, Delta: 5}, {Index: 1 << 40, Delta: 1}})
	if err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if ds.Updates() != 0 || ds.Snapshot().Counts()[1] != 0 {
		t.Fatal("rejected batch partially applied")
	}
	if err := ds.IngestColumns([]uint64{1, 2}, []int64{1}); err == nil {
		t.Fatal("ragged columns accepted")
	}
}

// TestIngestRejectsPaddedIndices: the bounds check runs against the
// *requested* universe, not the power of two it pads to. At u = 500
// (padded to 512) an index in [500, 512) would land in padding that no
// protocol parameterized by 500 accounts for — it must be rejected,
// atomically, and the error must name the real universe. The replay
// reference refuses it in the same words.
func TestIngestRejectsPaddedIndices(t *testing.T) {
	const u = 500 // deliberately not a power of two
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest([]stream.Update{{Index: u - 1, Delta: 1}}); err != nil {
		t.Fatalf("last in-range index rejected: %v", err)
	}
	for _, bad := range []uint64{u, 511} { // both inside the padded table
		batch := []stream.Update{{Index: 3, Delta: 2}, {Index: bad, Delta: 1}}
		err := ds.Ingest(batch)
		if err == nil {
			t.Fatalf("index %d in the padded range [%d, 512) accepted", bad, u)
		}
		if !strings.Contains(err.Error(), "[0,500)") {
			t.Errorf("error should name the requested universe 500, got: %v", err)
		}
		_, rerr := engine.NewReplayProver(f61, u, engine.QuerySelfJoinSize, engine.QueryParams{}, batch, 0)
		if rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("NewReplayProver on index %d: %v, want Ingest's %q", bad, rerr, err)
		}
	}
	if ds.Updates() != 1 {
		t.Fatalf("rejected batches partially applied: %d updates", ds.Updates())
	}
	if got := ds.Snapshot().Counts()[3]; got != 0 {
		t.Fatalf("rejected batch leaked a delta: counts[3] = %d", got)
	}
}

// TestConcurrentIngestAndSnapshot hammers one dataset from many
// goroutines — half ingesting, half snapshotting and proving — and is
// meaningful mostly under -race: snapshots must never tear.
func TestConcurrentIngestAndSnapshot(t *testing.T) {
	const (
		u          = 1 << 8
		writers    = 4
		readers    = 4
		iterations = 20
	)
	ds, err := engine.NewDataset(f61, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := field.NewSplitMix64(uint64(100 + w))
			for i := 0; i < iterations; i++ {
				if err := ds.Ingest(stream.UnitIncrements(u, 64, rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iterations; i++ {
				snap := ds.Snapshot()
				// A frozen view must be internally consistent: counts,
				// elems, and total all describe the same epoch.
				var total int64
				for j, c := range snap.Counts() {
					total += c
					if f61.FromInt64(c) != snap.Elems()[j] {
						t.Error("snapshot tore: counts and elems disagree")
						return
					}
				}
				if total != snap.Total() {
					t.Errorf("snapshot tore: Σcounts=%d but Total=%d", total, snap.Total())
					return
				}
				if _, err := snap.NewProver(engine.QuerySelfJoinSize, engine.QueryParams{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
