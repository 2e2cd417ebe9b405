package engine_test

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// flatSession is the reference prover of TestHugeCounts: a sum-check
// prover over flat field tables, built with the sumcheck package alone,
// speaking the core session shape ([claim, g_1], then g_j per
// challenge).
type flatSession struct {
	cfg sumcheck.Config
	sc  *sumcheck.Prover
}

func newFlatSession(t *testing.T, u uint64, comb sumcheck.Combiner, tables ...[]field.Elem) *flatSession {
	t.Helper()
	params, err := lde.ParamsForUniverse(u, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := sumcheck.Config{Field: f61, Params: params, Combiner: comb}
	flat := make([]sumcheck.Chunked, len(tables))
	for k, tab := range tables {
		flat[k] = sumcheck.Flat(tab)
	}
	sc, err := sumcheck.NewProver(cfg, sumcheck.ScanLivePairs(2, 0, flat...), flat...)
	if err != nil {
		t.Fatal(err)
	}
	return &flatSession{cfg: cfg, sc: sc}
}

func (s *flatSession) Open() (core.Msg, error) {
	g, err := s.sc.RoundMessage()
	if err != nil {
		return core.Msg{}, err
	}
	claim, err := poly.SumPrefix(f61, g, 2)
	return core.Msg{Elems: append([]field.Elem{claim}, g...)}, err
}

func (s *flatSession) Step(c core.Msg) (core.Msg, error) {
	if err := s.sc.Fold(c.Elems[0]); err != nil {
		return core.Msg{}, err
	}
	g, err := s.sc.RoundMessage()
	return core.Msg{Elems: g}, err
}

// transcriptOf plays p against the fixed challenges and returns its
// messages: the opening and one reply per challenge.
func transcriptOf(t *testing.T, p core.ProverSession, challenges []field.Elem) []core.Msg {
	t.Helper()
	m, err := p.Open()
	if err != nil {
		t.Fatal(err)
	}
	out := []core.Msg{m}
	for _, r := range challenges {
		if m, err = p.Step(core.Msg{Elems: []field.Elem{r}}); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestHugeCounts: one chunk holds the counts p, −p, 2^62 and −2^62, which
// a prover may not read as they are, beside small counts; the other
// chunks hold small counts, on every entry (dense provers) or on a few
// (sparse provers). The posted SELF-JOIN SIZE proof bytes and the
// interactive F2, F3 and RANGE-SUM transcripts (the range covering that
// chunk) equal those of a reference prover over the flat field image of
// the counts (FromInt64Slice, sumcheck.Flat), which shares no engine
// code, before and after an evict/rehydrate cycle.
func TestHugeCounts(t *testing.T) {
	const u = 1 << 14 // four chunks
	for _, tc := range []struct {
		name string
		ups  []stream.Update
	}{
		{"dense", stream.UniformDeltas(u, 3, field.NewSplitMix64(4701))},
		{"sparse", stream.UnitIncrements(u, 300, field.NewSplitMix64(4703))},
	} {
		t.Run(tc.name, func(t *testing.T) { hugeCounts(t, u, tc.ups) })
	}
}

func hugeCounts(t *testing.T, u uint64, ups []stream.Update) {
	const huge = engine.ChunkEntries + 10
	p := int64(f61.Modulus())
	ups = append(slices.Clone(ups), stream.Update{Index: huge, Delta: p}, stream.Update{Index: huge + 1, Delta: -p},
		stream.Update{Index: huge + 6, Delta: 1 << 62}, stream.Update{Index: huge + 9, Delta: -1 << 62})
	counts := make([]int64, u)
	for _, up := range ups {
		counts[up.Index] += up.Delta
	}
	elems := make([]field.Elem, u)
	f61.FromInt64Slice(elems, counts)
	const qL, qR = engine.ChunkEntries - 100, 2*engine.ChunkEntries + 100
	indicator := make([]field.Elem, u)
	for i := qL; i <= qR; i++ {
		indicator[i] = 1
	}
	rng := field.NewSplitMix64(4702)
	challenges := f61.RandVec(rng, 13) // d − 1 at u = 2^14
	kinds := []struct {
		name   string
		kind   engine.QueryKind
		params engine.QueryParams
		ref    func() core.ProverSession
	}{
		{"F2", engine.QuerySelfJoinSize, engine.QueryParams{}, func() core.ProverSession {
			return newFlatSession(t, u, sumcheck.Power{K: 2}, elems)
		}},
		{"F3", engine.QueryFk, engine.QueryParams{K: 3}, func() core.ProverSession {
			return newFlatSession(t, u, sumcheck.Power{K: 3}, elems)
		}},
		{"RANGE-SUM", engine.QueryRangeSum, engine.QueryParams{A: qL, B: qR}, func() core.ProverSession {
			return newFlatSession(t, u, sumcheck.Product{}, elems, indicator)
		}},
	}

	cost, err := engine.TableCost(u)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(f61, 2)
	if err := e.SetDataDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { // before the data dir goes: an eviction saves in the background
		if err := e.Close(); err != nil {
			t.Error(err)
		}
	})
	ds, err := e.Open("huge", u)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		snap := ds.Snapshot()
		if !slices.Equal(snap.Counts(), counts) {
			t.Fatalf("%s: the dataset does not hold the stream's counts", when)
		}
		for _, k := range kinds {
			sp, err := snap.NewProver(k.kind, k.params)
			if err != nil {
				t.Fatal(err)
			}
			got, want := transcriptOf(t, sp, challenges), transcriptOf(t, k.ref(), challenges)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s: %s transcript\n%v\nwant the flat image's\n%v", when, k.name, got, want)
			}
		}
		pf, err := snap.GenerateProof(engine.QuerySelfJoinSize, engine.QueryParams{})
		if err != nil {
			t.Fatal(err)
		}
		ref, err := engine.RecordProof(f61, snap.ProofBinding(engine.QuerySelfJoinSize, engine.QueryParams{}), func() (core.ProverSession, error) {
			return kinds[0].ref(), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pf.Encode(), ref.Encode()) {
			t.Fatalf("%s: the posted SELF-JOIN SIZE proof differs from the flat image's", when)
		}
	}
	check("resident")
	if engine.ReducedChunks(ds) != 1 {
		t.Fatalf("%d chunks built a reduced copy, want the one holding huge counts", engine.ReducedChunks(ds))
	}
	e.SetBudget(cost)
	if _, err := e.Open("other", u); err != nil {
		t.Fatal(err)
	}
	if ds.Resident() {
		t.Fatal("huge is still resident under a one-dataset budget")
	}
	check("after an evict/rehydrate cycle")
}
