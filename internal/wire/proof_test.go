package wire

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/fs"
	"repro/internal/stream"
)

// streamedVerifier builds the offline verifier for a fetched proof: the
// session from the proof's binding RNG, fed the client's own copy of
// the updates.
func streamedVerifier(t *testing.T, b fs.Binding, kind QueryKind, params QueryParams, ups []stream.Update) engine.StreamVerifier {
	t.Helper()
	return conformance.Verifier(t, b.Universe, conformance.Case{Kind: kind, Params: params}, b.RNG(), ups)
}

// TestProofFetchRoundTrip: QueryCached, which fetches the posted proof
// and verifies it offline against the client's own streamed
// fingerprint, reports the proof's cost: one round per recorded
// message. The round trip itself — offline acceptance, the same bytes
// from the cache on a second fetch — is conformance's posted column.
func TestProofFetchRoundTrip(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()

	const u = 1 << 10
	ups := stream.UniformDeltas(u, 200, field.NewSplitMix64(90))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	openFresh(t, c, u, ups)
	pf, stats, err := c.QueryCached(QuerySelfJoinSize, QueryParams{}, 0,
		func(b fs.Binding) (core.VerifierSession, error) {
			return streamedVerifier(t, b, QuerySelfJoinSize, QueryParams{}, ups), nil
		})
	if err != nil {
		t.Fatalf("QueryCached: %v", err)
	}
	if stats.Rounds != len(pf.Messages) || stats.WordsToVerifier == 0 {
		t.Fatalf("stats %+v for %d messages", stats, len(pf.Messages))
	}
}

// TestProofFetchInvalidation: ingest between two fetches rotates the
// version key — the second proof differs, verifies against the union of
// the updates, and a fetch pinned to the stale version is refused.
func TestProofFetchInvalidation(t *testing.T) {
	srv := &Server{F: f61}
	addr, stop := startServerOpts(t, srv)
	defer stop()

	const u = 512
	ups1 := stream.UnitIncrements(u, 100, field.NewSplitMix64(91))
	ups2 := stream.UnitIncrements(u, 60, field.NewSplitMix64(92))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDataset("inv", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups1); err != nil {
		t.Fatal(err)
	}
	pf1, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups2); err != nil {
		t.Fatal(err)
	}
	pf2, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf1.Version == pf2.Version {
		t.Fatalf("ingest did not rotate the proof version (%d)", pf1.Version)
	}
	if bytes.Equal(pf1.Encode(), pf2.Encode()) {
		t.Fatal("proofs at different versions are identical")
	}
	all := append(append([]stream.Update{}, ups1...), ups2...)
	v := streamedVerifier(t, pf2.Binding, QuerySelfJoinSize, QueryParams{}, all)
	if err := pf2.Binding.Verify(pf2, v); err != nil {
		t.Fatalf("post-ingest proof rejected: %v", err)
	}

	// A fetch pinned to the superseded version is refused, not silently
	// served stale.
	if _, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, pf1.Version); err == nil ||
		!strings.Contains(err.Error(), "not current") {
		t.Fatalf("stale pinned fetch: err = %v, want version refusal", err)
	}
}

// TestProofBitFlipSweep flips one bit in every byte of a wire-fetched
// proof; each mutant must fail decoding or offline verification. The
// query carries a nonzero Phi, which SELF-JOIN SIZE ignores but its
// binding commits to, so no byte of the descriptor is flip-degenerate
// (0.0 and -0.0 compare equal as floats).
func TestProofBitFlipSweep(t *testing.T) {
	srv := &Server{F: f61}
	addr, stop := startServerOpts(t, srv)
	defer stop()

	const u = 64
	ups := stream.UnitIncrements(u, 40, field.NewSplitMix64(93))
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDataset("flip", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	kind, params := QueryKind(QuerySelfJoinSize), QueryParams{Phi: 0.05}
	pf, err := c.FetchProof(kind, params, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc := pf.Encode()
	want := pf.Binding
	if err := want.Verify(pf, streamedVerifier(t, want, kind, params, ups)); err != nil {
		t.Fatalf("pristine proof rejected: %v", err)
	}
	for i := range enc {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), enc...)
			mut[i] ^= 1 << bit
			got, err := fs.DecodeProof(mut)
			if err != nil {
				continue // malformed: rejected at the codec
			}
			v := streamedVerifier(t, want, kind, params, ups)
			if err := want.Verify(got, v); err == nil {
				t.Fatalf("flipping bit %d of byte %d/%d went undetected", bit, i, len(enc))
			}
		}
	}
}

// TestProofFanoutCoalesce: k concurrent verifiers fetching one query
// cost the server one prover run — every other request is a cache hit
// (coalesced into the in-flight generation or served after it).
func TestProofFanoutCoalesce(t *testing.T) {
	srv := &Server{F: f61}
	addr, stop := startServerOpts(t, srv)
	defer stop()

	const u = 1 << 12
	const k = 8
	ups := stream.UniformDeltas(u, 500, field.NewSplitMix64(94))
	up, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := up.OpenDataset("fan", u); err != nil {
		t.Fatal(err)
	}
	if _, err := up.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	up.Close()

	var wg sync.WaitGroup
	errs := make([]error, k)
	proofs := make([]*fs.Proof, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			if _, err := c.OpenDataset("fan", u); err != nil {
				errs[i] = err
				return
			}
			proofs[i], errs[i] = c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("verifier %d: %v", i, err)
		}
	}
	first := proofs[0].Encode()
	for i, pf := range proofs {
		if !bytes.Equal(first, pf.Encode()) {
			t.Fatalf("verifier %d received different proof bytes", i)
		}
	}
	v := streamedVerifier(t, proofs[0].Binding, QuerySelfJoinSize, QueryParams{}, ups)
	if err := proofs[0].Binding.Verify(proofs[0], v); err != nil {
		t.Fatalf("fanout proof rejected: %v", err)
	}
	st := srv.Stats().ProofCache
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", st.Misses)
	}
	if st.Hits < k-1 {
		t.Fatalf("hits = %d, want ≥ %d", st.Hits, k-1)
	}
}

// TestCheckProofBinding sweeps the client-side binding validation: a
// fetched proof whose header disagrees with any client-pinned value —
// dataset, universe, query, pinned version, declared modulus — is
// rejected, so a malicious server gets no grinding bits from the fields
// that feed the challenge derivation.
func TestCheckProofBinding(t *testing.T) {
	kind, params := QueryKind(QueryRangeSum), QueryParams{A: 3, B: 9}
	good := fs.Binding{
		Modulus:  f61.Modulus(),
		Universe: 1024,
		Dataset:  "d",
		Version:  5,
		Query:    engine.FSQuery(kind, params),
	}
	check := func(b fs.Binding, modulus, version uint64) error {
		return checkProofBinding(&fs.Proof{Binding: b}, modulus, "d", 1024, version, kind, params)
	}
	if err := check(good, f61.Modulus(), 5); err != nil {
		t.Fatalf("fully pinned honest binding rejected: %v", err)
	}
	if err := check(good, 0, 0); err != nil {
		t.Fatalf("unpinned honest binding rejected: %v", err)
	}
	mutate := func(name string, f func(*fs.Binding)) {
		b := good
		f(&b)
		if err := check(b, f61.Modulus(), 5); err == nil {
			t.Errorf("%s: server-controlled binding accepted", name)
		}
	}
	mutate("dataset", func(b *fs.Binding) { b.Dataset = "other" })
	mutate("universe", func(b *fs.Binding) { b.Universe = 2048 })
	mutate("query kind", func(b *fs.Binding) { b.Query.Kind++ })
	mutate("query params", func(b *fs.Binding) { b.Query.B = 10 })
	mutate("pinned version", func(b *fs.Binding) { b.Version = 6 })
	mutate("pinned modulus", func(b *fs.Binding) { b.Modulus++ })
	// Unpinned fields are the server's to assert: version floats when the
	// caller passed 0, the modulus floats only when FieldModulus is 0.
	offVersion := good
	offVersion.Version = 9
	if err := check(offVersion, f61.Modulus(), 0); err != nil {
		t.Fatalf("unpinned version rejected: %v", err)
	}
	offModulus := good
	offModulus.Modulus++
	if err := check(offModulus, 0, 5); err != nil {
		t.Fatalf("undeclared modulus rejected: %v", err)
	}
	if err := check(offModulus, f61.Modulus(), 5); err == nil {
		t.Fatal("declared modulus not enforced")
	}
}

// TestProofFieldModulusPinned: end to end, a client that declares its
// field refuses a proof over any other — here by declaring a modulus the
// server does not use.
func TestProofFieldModulusPinned(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()
	const u = 64
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.FieldModulus = f61.Modulus() - 2 // disagree with the server's field
	if _, err := c.OpenDataset("pin", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(stream.UnitIncrements(u, 10, field.NewSplitMix64(95))); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0); err == nil ||
		!strings.Contains(err.Error(), "binding") {
		t.Fatalf("mismatched modulus: err = %v, want binding rejection", err)
	}
	c.FieldModulus = f61.Modulus()
	if _, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0); err != nil {
		t.Fatalf("matching modulus rejected: %v", err)
	}
}

// TestClientRequiresAttachment: every call that needs a dataset is
// refused client-side, before any frame, until OpenDataset has attached
// one — and the refusal costs nothing: the same connection then opens
// and serves normally.
func TestClientRequiresAttachment(t *testing.T) {
	addr, stop := startServerOpts(t, &Server{F: f61})
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	v := conformance.Verifier(t, 64, conformance.Cases[0], field.NewSplitMix64(1), nil)
	calls := map[string]func() error{
		"Ingest":       func() error { _, err := c.Ingest(nil); return err },
		"QueryAsync":   func() error { _, err := c.QueryAsync(QuerySelfJoinSize, QueryParams{}, v); return err },
		"PartialQuery": func() error { _, err := c.PartialQuery(QuerySelfJoinSize, QueryParams{}); return err },
		"FetchProof":   func() error { _, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0); return err },
	}
	for name, call := range calls {
		if err := call(); err == nil || !strings.Contains(err.Error(), "requires an attached dataset") {
			t.Errorf("%s before OpenDataset: err = %v, want the attachment refusal", name, err)
		}
	}
	openFresh(t, c, 64, nil)
	if _, err := c.Query(QuerySelfJoinSize, QueryParams{}, v); err != nil {
		t.Fatalf("query after the refused calls: %v", err)
	}
}

// TestProofCacheInvalidatedOnDrop: dropping a dataset purges its cached
// proofs. A recreated dataset restarts its version counter, so the
// cache key (name, version, query) collides with the old entries — a
// stale entry would serve the OLD dataset's proof for the NEW data.
// Regression test for the engine drop path never invalidating the
// cache (the hook wired by hookEngineLocked).
func TestProofCacheInvalidatedOnDrop(t *testing.T) {
	eng := engine.New(f61, 0)
	srv := &Server{F: f61, Engine: eng}
	addr, stop := startServerOpts(t, srv)
	defer stop()

	const u = 512
	ups1 := stream.UnitIncrements(u, 80, field.NewSplitMix64(950))
	ups2 := stream.UnitIncrements(u, 80, field.NewSplitMix64(951))

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.OpenDataset("regen", u); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ups1); err != nil {
		t.Fatal(err)
	}
	pf1, err := c.FetchProof(QuerySelfJoinSize, QueryParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}

	// Drop out-of-band (an operator, another tenant) and recreate the
	// name with different data, landing on the same version number.
	eng.Drop("regen")
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if count, err := c2.OpenDataset("regen", u); err != nil || count != 0 {
		t.Fatalf("recreate after drop: count = %d, err = %v", count, err)
	}
	if _, err := c2.Ingest(ups2); err != nil {
		t.Fatal(err)
	}
	pf2, err := c2.FetchProof(QuerySelfJoinSize, QueryParams{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pf1.Version != pf2.Version {
		t.Fatalf("versions %d vs %d: the key collision this test exists for is gone", pf1.Version, pf2.Version)
	}
	if bytes.Equal(pf1.Encode(), pf2.Encode()) {
		t.Fatal("cache served the dropped dataset's proof for the recreated dataset")
	}
	v := streamedVerifier(t, pf2.Binding, QuerySelfJoinSize, QueryParams{}, ups2)
	if err := pf2.Binding.Verify(pf2, v); err != nil {
		t.Fatalf("recreated dataset's proof rejected offline: %v", err)
	}
}
