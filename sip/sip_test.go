package sip_test

import (
	"errors"
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

func TestVerifySelfJoinSize(t *testing.T) {
	const u = 1 << 10
	rng := sip.NewSeededRNG(1)
	ups := stream.UniformDeltas(u, 100, sip.NewSeededRNG(2))
	got, stats, err := sip.VerifySelfJoinSize(sip.Mersenne(), u, ups, rng)
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	a, _ := stream.Apply(ups, u)
	var want uint64
	for _, v := range a {
		want += uint64(v) * uint64(v)
	}
	if uint64(got) != want {
		t.Fatalf("F2 = %d, want %d", got, want)
	}
	if stats.CommBytes() > 1024 {
		t.Errorf("F2 communication %d bytes exceeds the paper's <1KB claim", stats.CommBytes())
	}
}

func TestVerifyRangeSum(t *testing.T) {
	const u = 1 << 12
	pairs, err := stream.DistinctKV(u, 300, 1000, sip.NewSeededRNG(3))
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.KVUpdates(pairs)
	got, _, err := sip.VerifyRangeSum(sip.Mersenne(), u, ups, 1000, 3000, sip.NewSeededRNG(4))
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	var want int64
	for _, p := range pairs {
		if p.Key >= 1000 && p.Key <= 3000 {
			want += int64(p.Value)
		}
	}
	if got != want {
		t.Fatalf("range sum = %d, want %d", got, want)
	}
}

func TestVerifyRangeQuery(t *testing.T) {
	const u = 1 << 8
	ups := []sip.Update{{Index: 10, Delta: 2}, {Index: 20, Delta: 1}, {Index: 200, Delta: 5}}
	entries, _, err := sip.VerifyRangeQuery(sip.Mersenne(), u, ups, 5, 100, sip.NewSeededRNG(5))
	if err != nil {
		t.Fatalf("rejected: %v", err)
	}
	if len(entries) != 2 || entries[0] != (sip.Entry{Index: 10, Value: 2}) || entries[1] != (sip.Entry{Index: 20, Value: 1}) {
		t.Fatalf("entries = %+v", entries)
	}
}

func TestVerifyHeavyHittersAndF0(t *testing.T) {
	const u = 1 << 9
	ups, err := stream.Zipf(u, 5000, 1.3, sip.NewSeededRNG(6))
	if err != nil {
		t.Fatal(err)
	}
	hh, _, err := sip.VerifyHeavyHitters(sip.Mersenne(), u, ups, 0.05, sip.NewSeededRNG(7))
	if err != nil {
		t.Fatalf("HH rejected: %v", err)
	}
	if len(hh) == 0 {
		t.Fatal("zipf(1.3) produced no heavy hitters at φ=0.05")
	}
	f0, _, err := sip.VerifyF0(sip.Mersenne(), u, ups, sip.NewSeededRNG(8))
	if err != nil {
		t.Fatalf("F0 rejected: %v", err)
	}
	a, _ := stream.Apply(ups, u)
	var want sip.Elem
	for _, c := range a {
		if c != 0 {
			want++
		}
	}
	if f0 != want {
		t.Fatalf("F0 = %d, want %d", f0, want)
	}
}

// TestDictionaryWorkflow exercises the motivating key-value store example
// end to end through the public API.
func TestDictionaryWorkflow(t *testing.T) {
	const u = 1 << 10
	proto, err := sip.NewDictionary(sip.Mersenne(), u)
	if err != nil {
		t.Fatal(err)
	}
	puts := []sip.KVPair{{Key: 42, Value: 7}, {Key: 100, Value: 0}, {Key: 999, Value: 123}}
	var ups []sip.Update
	for _, kv := range puts {
		up, err := proto.PutUpdate(kv.Key, kv.Value)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, up)
	}
	for _, q := range []struct {
		key   uint64
		want  uint64
		found bool
	}{{42, 7, true}, {100, 0, true}, {999, 123, true}, {43, 0, false}} {
		v := proto.NewVerifier(sip.NewSeededRNG(9))
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.SetQuery(q.key); err != nil {
			t.Fatal(err)
		}
		p := datasetProver(t, sip.Mersenne(), u, 0, ups, sip.QueryDictionary, sip.QueryParams{A: q.key})
		if _, err := sip.Run(p, v); err != nil {
			t.Fatalf("get(%d) rejected: %v", q.key, err)
		}
		val, found, err := v.Value()
		if err != nil {
			t.Fatal(err)
		}
		if val != q.want || found != q.found {
			t.Fatalf("get(%d) = (%d,%v), want (%d,%v)", q.key, val, found, q.want, q.found)
		}
	}
}

// TestTamperThroughFacade: the robustness experiment is reachable through
// the public API.
func TestTamperThroughFacade(t *testing.T) {
	const u = 256
	proto, err := sip.NewSelfJoinSize(sip.Mersenne(), u)
	if err != nil {
		t.Fatal(err)
	}
	ups := stream.UniformDeltas(u, 10, sip.NewSeededRNG(10))
	v := proto.NewVerifier(sip.NewSeededRNG(11))
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	p := datasetProver(t, sip.Mersenne(), u, 0, ups, sip.QuerySelfJoinSize, sip.QueryParams{})
	tp := &sip.TamperedProver{P: p, T: func(r int, m sip.Msg) sip.Msg {
		if r == 1 && len(m.Elems) > 0 {
			m.Elems[0]++
		}
		return m
	}}
	if _, err := sip.Run(tp, v); !errors.Is(err, sip.ErrRejected) {
		t.Fatalf("tampered run not rejected: %v", err)
	}
}

func TestFieldHelpers(t *testing.T) {
	f, err := sip.FieldForUniverse(1000)
	if err != nil {
		t.Fatal(err)
	}
	if f.Modulus() < 1000 || f.Modulus() > 2000 {
		t.Errorf("FieldForUniverse(1000) modulus %d outside [1000,2000]", f.Modulus())
	}
	if _, err := sip.NewField(15); err == nil {
		t.Error("composite modulus accepted")
	}
	if sip.Mersenne().Modulus() != (1<<61)-1 {
		t.Error("Mersenne modulus wrong")
	}
	// Both RNG kinds satisfy the interface and produce values.
	var rngs []sip.RNG = []sip.RNG{sip.NewSeededRNG(1), sip.NewCryptoRNG()}
	for _, r := range rngs {
		_ = r.Uint64()
	}
}

// TestVerifyProofFacade: generate a proof through the engine facade,
// round-trip it through the codec, and verify it offline with a
// verifier built from the binding's deterministic challenge stream.
func TestVerifyProofFacade(t *testing.T) {
	const u = 1 << 9
	f := sip.Mersenne()
	ups := stream.UniformDeltas(u, 80, sip.NewSeededRNG(21))
	ds, err := sip.NewDataset(f, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	pf, err := ds.Snapshot().GenerateProof(sip.QuerySelfJoinSize, sip.QueryParams{})
	if err != nil {
		t.Fatal(err)
	}
	pf, err = sip.DecodeProof(pf.Encode())
	if err != nil {
		t.Fatal(err)
	}
	v, err := sip.NewQueryVerifier(f, u, sip.QuerySelfJoinSize, sip.QueryParams{}, pf.Binding.RNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := sip.VerifyProof(pf, v); err != nil {
		t.Fatalf("offline verification rejected: %v", err)
	}
	// Tampering with a recorded message must fail.
	pf.Messages[0].Elems[0]++
	v2, err := sip.NewQueryVerifier(f, u, sip.QuerySelfJoinSize, sip.QueryParams{}, pf.Binding.RNG())
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := v2.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := sip.VerifyProof(pf, v2); err == nil {
		t.Fatal("tampered proof accepted")
	}
}
