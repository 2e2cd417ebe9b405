package sip_test

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/stream"
	"repro/sip"
)

// datasetProver is the cloud side as a library user writes it: ingest
// the stream into a dataset, then prove one query from its snapshot.
func datasetProver(t *testing.T, f sip.Field, u uint64, workers int, ups []sip.Update, kind sip.QueryKind, params sip.QueryParams) sip.ProverSession {
	t.Helper()
	ds, err := sip.NewDataset(f, u, workers)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	p, err := ds.Snapshot().NewProver(kind, params)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// observedVerifier is the data owner's side: kind's verifier over
// [0, u) for params, fed the stream once.
func observedVerifier(t *testing.T, f sip.Field, u uint64, kind sip.QueryKind, params sip.QueryParams, rng sip.RNG, ups []sip.Update) sip.StreamVerifier {
	t.Helper()
	v, err := sip.NewQueryVerifier(f, u, kind, params, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	return v
}

// TestFacade runs each of the public one-call wrappers once against a
// plain computation of its answer: the Verify* conversations, the field
// and RNG constructors, and a posted proof round-tripped through
// DecodeProof and checked by VerifyProof, then refused once doctored.
func TestFacade(t *testing.T) {
	f := sip.Mersenne()
	zipf, err := stream.Zipf(1<<9, 5000, 1.3, sip.NewSeededRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	pairs, err := stream.DistinctKV(1<<12, 300, 1000, sip.NewSeededRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	uniform := stream.UniformDeltas(1<<10, 100, sip.NewSeededRNG(2))
	counts := func(ups []sip.Update, u uint64) []int64 { a, _ := stream.Apply(ups, u); return a }
	var matrix []sip.Update // a 4×4 matrix A, row-major
	for i, rng := 0, sip.NewSeededRNG(77); i < 16; i++ {
		matrix = append(matrix, sip.Update{Index: uint64(i), Delta: int64(rng.Uint64()%7) - 3})
	}
	rows := []struct {
		name string
		run  func(t *testing.T) (got, want any, err error)
	}{
		{"VerifySelfJoinSize", func(t *testing.T) (any, any, error) {
			got, stats, err := sip.VerifySelfJoinSize(f, 1<<10, uniform, sip.NewSeededRNG(1))
			var want sip.Elem
			for _, c := range counts(uniform, 1<<10) {
				want += sip.Elem(c * c)
			}
			if stats.CommBytes() > 1024 {
				t.Errorf("F2 communication %d bytes exceeds the paper's <1KB claim", stats.CommBytes())
			}
			return got, want, err
		}},
		{"VerifyRangeSum", func(t *testing.T) (any, any, error) {
			got, _, err := sip.VerifyRangeSum(f, 1<<12, stream.KVUpdates(pairs), 1000, 3000, sip.NewSeededRNG(4))
			var want int64
			for _, p := range pairs {
				if p.Key >= 1000 && p.Key <= 3000 {
					want += int64(p.Value)
				}
			}
			return got, want, err
		}},
		{"VerifyRangeQuery", func(t *testing.T) (any, any, error) {
			ups := []sip.Update{{Index: 10, Delta: 2}, {Index: 20, Delta: 1}, {Index: 200, Delta: 5}}
			got, _, err := sip.VerifyRangeQuery(f, 1<<8, ups, 5, 100, sip.NewSeededRNG(5))
			return got, []sip.Entry{{Index: 10, Value: 2}, {Index: 20, Value: 1}}, err
		}},
		{"VerifyHeavyHitters", func(t *testing.T) (any, any, error) {
			got, _, err := sip.VerifyHeavyHitters(f, 1<<9, zipf, 0.05, sip.NewSeededRNG(7))
			var want []sip.HeavyHitter
			for i, c := range counts(zipf, 1<<9) {
				if c >= 250 { // ⌈0.05 · 5000⌉
					want = append(want, sip.HeavyHitter{Index: uint64(i), Count: c})
				}
			}
			return got, want, err
		}},
		{"VerifyF0", func(t *testing.T) (any, any, error) {
			got, _, err := sip.VerifyF0(f, 1<<9, zipf, sip.NewSeededRNG(8))
			var want sip.Elem
			for _, c := range counts(zipf, 1<<9) {
				if c != 0 {
					want++
				}
			}
			return got, want, err
		}},
		{"VerifyCircuit", func(t *testing.T) (any, any, error) {
			got, _, err := sip.VerifyCircuit(f, 16, matrix, sip.CircuitSpec{Name: sip.CircuitMatMul, Arg: 4}, sip.NewSeededRNG(78))
			want := make([]sip.Elem, 16)
			for i := range want {
				for k := 0; k < 4; k++ {
					want[i] = f.Add(want[i], f.Mul(f.FromInt64(matrix[i/4*4+k].Delta), f.FromInt64(matrix[k*4+i%4].Delta)))
				}
			}
			return got, want, err
		}},
		{"VerifyCircuit/unknown", func(t *testing.T) (any, any, error) {
			_, _, err := sip.VerifyCircuit(f, 16, nil, sip.CircuitSpec{Name: "NOPE"}, sip.NewSeededRNG(1))
			return errors.Is(err, sip.ErrUnknownCircuit), true, nil
		}},
		{"fields and RNGs", func(t *testing.T) (any, any, error) {
			g, err := sip.FieldForUniverse(1000)
			_, composite := sip.NewField(15)
			sip.NewCryptoRNG().Uint64()
			return [3]bool{g.Modulus() >= 1000 && g.Modulus() <= 2000, composite != nil, f.Modulus() == 1<<61-1}, [3]bool{true, true, true}, err
		}},
		{"VerifyProof", func(t *testing.T) (any, any, error) {
			const u = 1 << 9
			ups := stream.UniformDeltas(u, 80, sip.NewSeededRNG(21))
			ds, err := sip.NewDataset(f, u, 0)
			if err != nil {
				return nil, nil, err
			}
			if err := ds.Ingest(ups); err != nil {
				return nil, nil, err
			}
			pf, err := ds.Snapshot().GenerateProof(sip.QuerySelfJoinSize, sip.QueryParams{})
			if err != nil {
				return nil, nil, err
			}
			if pf, err = sip.DecodeProof(pf.Encode()); err != nil {
				return nil, nil, err
			}
			verify := func() error {
				return sip.VerifyProof(pf, observedVerifier(t, f, u, sip.QuerySelfJoinSize, sip.QueryParams{}, pf.Binding.RNG(), ups))
			}
			honest := verify()
			pf.Messages[0].Elems[0]++
			return [2]bool{honest == nil, verify() != nil}, [2]bool{true, true}, nil
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			got, want, err := r.run(t)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("got %v, want %v", got, want)
			}
		})
	}
}

// TestDictionaryWorkflow exercises the motivating key-value store example
// end to end through the public API: puts are encoded as the
// QueryDictionary doc says, and each get is one ticket spent on its key.
func TestDictionaryWorkflow(t *testing.T) {
	const u = 1 << 10
	f := sip.Mersenne()
	puts := []sip.KVPair{{Key: 42, Value: 7}, {Key: 100, Value: 0}, {Key: 999, Value: 123}}
	var ups []sip.Update
	for _, kv := range puts {
		ups = append(ups, sip.Update{Index: kv.Key, Delta: int64(kv.Value) + 1})
	}
	for _, q := range []struct {
		key   uint64
		want  uint64
		found bool
	}{{42, 7, true}, {100, 0, true}, {999, 123, true}, {43, 0, false}} {
		tk, err := sip.NewTicket(f, u, []sip.QueryKind{sip.QueryDictionary}, sip.NewSeededRNG(9))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := tk.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		params := sip.QueryParams{A: q.key}
		v, err := tk.Spend(sip.QueryDictionary, params)
		if err != nil {
			t.Fatal(err)
		}
		p := datasetProver(t, f, u, 0, ups, sip.QueryDictionary, params)
		if _, err := sip.Run(p, v); err != nil {
			t.Fatalf("get(%d) rejected: %v", q.key, err)
		}
		ans, err := sip.AnswerOf(sip.QueryDictionary, v)
		if err != nil {
			t.Fatal(err)
		}
		if ans.At != q.want || ans.Found != q.found {
			t.Fatalf("get(%d) = (%d,%v), want (%d,%v)", q.key, ans.At, ans.Found, q.want, q.found)
		}
	}
}

// TestTamperThroughFacade: the robustness experiment is reachable through
// the public API, for a sum-check kind and for CIRCUIT.
func TestTamperThroughFacade(t *testing.T) {
	f := sip.Mersenne()
	const u = 256
	ups := stream.UniformDeltas(u, 10, sip.NewSeededRNG(10))
	for _, q := range []struct {
		kind   sip.QueryKind
		params sip.QueryParams
	}{{sip.QuerySelfJoinSize, sip.QueryParams{}}, {sip.QueryCircuit, sip.QueryParams{Circuit: sip.CircuitF2}}} {
		v := observedVerifier(t, f, u, q.kind, q.params, sip.NewSeededRNG(11), ups)
		tp := &sip.TamperedProver{P: datasetProver(t, f, u, 0, ups, q.kind, q.params), T: func(r int, m sip.Msg) sip.Msg {
			if r == 1 && len(m.Elems) > 0 {
				m.Elems[0] = f.Add(m.Elems[0], 1)
			}
			return m
		}}
		if _, err := sip.Run(tp, v); !errors.Is(err, sip.ErrRejected) {
			t.Fatalf("%v: tampered run not rejected: %v", q.kind, err)
		}
	}
}
