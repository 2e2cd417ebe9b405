package sumcheck

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

// buildTable converts a replayed stream into a field-element table.
func buildTable(t *testing.T, f field.Field, ups []stream.Update, u uint64) []field.Elem {
	t.Helper()
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]field.Elem, u)
	for i, v := range a {
		out[i] = f.FromInt64(v)
	}
	return out
}

// refPowerSum computes Σ a_i^k over the integers, reduced into the field.
func refPowerSum(f field.Field, a []int64, k int) field.Elem {
	var total field.Elem
	for _, v := range a {
		total = f.Add(total, f.Pow(f.FromInt64(v), uint64(k)))
	}
	return total
}

// refTotal is the claim computed the long way: Σ_x C(f_1(x), …, f_T(x))
// over the tables' entries.
func refTotal(cfg Config, tables ...[]field.Elem) field.Elem {
	f := cfg.Field
	vals := make([]field.Elem, len(tables))
	var total field.Elem
	for i := range tables[0] {
		for t, tab := range tables {
			vals[t] = tab[i]
		}
		total = f.Add(total, cfg.Combiner.Apply(f, vals))
	}
	return total
}

// claimOf is the claim a session opens with: Σ_{c<ℓ} g_1(c) over the
// prover's first message.
func claimOf(t *testing.T, p *Prover) field.Elem {
	t.Helper()
	g1, err := p.RoundMessage()
	if err != nil {
		t.Fatal(err)
	}
	claim, err := poly.SumPrefix(p.cfg.Field, g1, p.cfg.Params.Ell)
	if err != nil {
		t.Fatal(err)
	}
	return claim
}

// runProtocol wires up one complete honest conversation for the given
// combiner and tables, with the verifier's point sampled from rng.
func runProtocol(t *testing.T, cfg Config, rng field.RNG, tables ...[]field.Elem) (Transcript, *Verifier, error) {
	t.Helper()
	pt := lde.RandomPoint(cfg.Field, cfg.Params, rng)
	vals := make([]field.Elem, len(tables))
	for i, tab := range tables {
		v, err := lde.EvalDense(pt, tab)
		if err != nil {
			t.Fatal(err)
		}
		vals[i] = v
	}
	expected := cfg.Combiner.Apply(cfg.Field, vals)
	p, err := newScanned(cfg, tables...)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(cfg, pt.R, refTotal(cfg, tables...), expected)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Run(p, v, nil)
	return tr, v, err
}

func TestF2Completeness(t *testing.T) {
	for _, pr := range []struct{ ell, d int }{{2, 8}, {2, 1}, {3, 4}, {4, 3}} {
		params, err := lde.NewParams(pr.ell, pr.d)
		if err != nil {
			t.Fatal(err)
		}
		rng := field.NewSplitMix64(41)
		ups := stream.UniformDeltas(params.U, 100, rng)
		table := buildTable(t, f61, ups, params.U)
		cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
		tr, v, err := runProtocol(t, cfg, rng, table)
		if err != nil {
			t.Fatalf("(ℓ=%d,d=%d): honest run rejected: %v", pr.ell, pr.d, err)
		}
		if !v.Accepted() {
			t.Fatalf("(ℓ=%d,d=%d): verifier not in accepted state", pr.ell, pr.d)
		}
		if len(tr.Messages) != params.D {
			t.Fatalf("got %d messages, want %d", len(tr.Messages), params.D)
		}
		// Communication: d messages of deg+1 words + d-1 challenges.
		wantWords := params.D*cfg.MessageLen() + params.D - 1
		if tr.CommWords() != wantWords {
			t.Fatalf("CommWords = %d, want %d", tr.CommWords(), wantWords)
		}
	}
}

// TestClaimedTotalMatchesReference: the prover's claimed answer is the
// true frequency moment.
func TestClaimedTotalMatchesReference(t *testing.T) {
	params, err := lde.NewParams(2, 10)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(42)
	ups := stream.UniformDeltas(params.U, 1000, rng)
	a, err := stream.Apply(ups, params.U)
	if err != nil {
		t.Fatal(err)
	}
	table := buildTable(t, f61, ups, params.U)
	for k := 1; k <= 5; k++ {
		cfg := Config{Field: f61, Params: params, Combiner: Power{K: k}}
		p, err := newScanned(cfg, table)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := claimOf(t, p), refPowerSum(f61, a, k); got != want {
			t.Errorf("F%d: claim = %d, want %d", k, got, want)
		}
	}
}

func TestFkCompleteness(t *testing.T) {
	params, err := lde.NewParams(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= 6; k++ {
		rng := field.NewSplitMix64(uint64(43 + k))
		ups := stream.UniformDeltas(params.U, 50, rng)
		table := buildTable(t, f61, ups, params.U)
		cfg := Config{Field: f61, Params: params, Combiner: Power{K: k}}
		if cfg.MessageLen() != k+1 {
			t.Fatalf("F%d message length %d, want %d (paper: degree k for ℓ=2)", k, cfg.MessageLen(), k+1)
		}
		if _, v, err := runProtocol(t, cfg, rng, table); err != nil || !v.Accepted() {
			t.Fatalf("F%d honest run rejected: %v", k, err)
		}
	}
}

func TestInnerProductCompleteness(t *testing.T) {
	params, err := lde.NewParams(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(44)
	upsA := stream.UniformDeltas(params.U, 30, rng)
	upsB := stream.UniformDeltas(params.U, 30, rng)
	ta := buildTable(t, f61, upsA, params.U)
	tb := buildTable(t, f61, upsB, params.U)
	cfg := Config{Field: f61, Params: params, Combiner: Product{}}
	_, v, err := runProtocol(t, cfg, rng, ta, tb)
	if err != nil || !v.Accepted() {
		t.Fatalf("inner product honest run rejected: %v", err)
	}
	// Claimed total must equal the reference inner product.
	a, _ := stream.Apply(upsA, params.U)
	b, _ := stream.Apply(upsB, params.U)
	var want field.Elem
	for i := range a {
		want = f61.Add(want, f61.Mul(f61.FromInt64(a[i]), f61.FromInt64(b[i])))
	}
	p, err := newScanned(cfg, ta, tb)
	if err != nil {
		t.Fatal(err)
	}
	if got := claimOf(t, p); got != want {
		t.Fatalf("inner product claim = %d, want %d", got, want)
	}
}

func TestPolyCombinerCompleteness(t *testing.T) {
	params, err := lde.NewParams(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(45)
	// h(x) = 1 + 3x + 2x³ applied to small frequencies.
	h := poly.Poly{1, 3, 0, 2}
	ups := stream.UnitIncrements(params.U, 200, rng)
	table := buildTable(t, f61, ups, params.U)
	cfg := Config{Field: f61, Params: params, Combiner: PolyFn{H: h}}
	_, v, err := runProtocol(t, cfg, rng, table)
	if err != nil || !v.Accepted() {
		t.Fatalf("poly combiner honest run rejected: %v", err)
	}
	a, _ := stream.Apply(ups, params.U)
	var want field.Elem
	for _, cnt := range a {
		want = f61.Add(want, h.Eval(f61, f61.FromInt64(cnt)))
	}
	p, _ := newScanned(cfg, table)
	if got := claimOf(t, p); got != want {
		t.Fatalf("PolyFn claim = %d, want %d", got, want)
	}
}

// TestSoundnessLyingClaim: a prover that announces a wrong total is always
// rejected (the round-1 sum check fails immediately, no probability
// involved).
func TestSoundnessLyingClaim(t *testing.T) {
	params, err := lde.NewParams(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(46)
	ups := stream.UniformDeltas(params.U, 100, rng)
	table := buildTable(t, f61, ups, params.U)
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	pt := lde.RandomPoint(f61, params, rng)
	val, err := lde.EvalDense(pt, table)
	if err != nil {
		t.Fatal(err)
	}
	expected := f61.Mul(val, val)
	p, err := newScanned(cfg, table)
	if err != nil {
		t.Fatal(err)
	}
	wrongClaim := f61.Add(refTotal(cfg, table), 1)
	v, err := NewVerifier(cfg, pt.R, wrongClaim, expected)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(p, v, nil)
	if !errors.Is(err, ErrReject) {
		t.Fatalf("lying claim not rejected: %v", err)
	}
}

// TestSoundnessTamperedMessages: flipping any single coefficient of any
// round message must be caught. With p = 2^61-1 the failure probability is
// ~2^-56 per round, so rejection is deterministic in practice.
func TestSoundnessTamperedMessages(t *testing.T) {
	params, err := lde.NewParams(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	for round := 1; round <= params.D; round++ {
		for pos := 0; pos < cfg.MessageLen(); pos++ {
			rng := field.NewSplitMix64(uint64(100*round + pos))
			ups := stream.UniformDeltas(params.U, 100, rng)
			table := buildTable(t, f61, ups, params.U)
			pt := lde.RandomPoint(f61, params, rng)
			val, err := lde.EvalDense(pt, table)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newScanned(cfg, table)
			if err != nil {
				t.Fatal(err)
			}
			v, err := NewVerifier(cfg, pt.R, refTotal(cfg, table), f61.Mul(val, val))
			if err != nil {
				t.Fatal(err)
			}
			tamper := func(r int, evals []field.Elem) []field.Elem {
				if r == round {
					out := append([]field.Elem(nil), evals...)
					out[pos] = f61.Add(out[pos], 1)
					return out
				}
				return evals
			}
			if _, err := Run(p, v, tamper); !errors.Is(err, ErrReject) {
				t.Fatalf("tamper round %d pos %d not rejected: %v", round, pos, err)
			}
		}
	}
}

// TestSoundnessModifiedStream: the prover computes its proof over a
// slightly different stream (the paper's second tampering experiment).
// The claimed total is then correct for the *wrong* data and the final
// LDE check catches it.
func TestSoundnessModifiedStream(t *testing.T) {
	params, err := lde.NewParams(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(47)
	ups := stream.UniformDeltas(params.U, 100, rng)
	table := buildTable(t, f61, ups, params.U)
	// The prover drops the last update — "missed out some data".
	modified := buildTable(t, f61, ups[:len(ups)-1], params.U)
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	pt := lde.RandomPoint(f61, params, rng)
	val, err := lde.EvalDense(pt, table)
	if err != nil {
		t.Fatal(err)
	}
	p, err := newScanned(cfg, modified)
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewVerifier(cfg, pt.R, refTotal(cfg, modified), f61.Mul(val, val))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(p, v, nil); !errors.Is(err, ErrReject) {
		t.Fatalf("modified-stream proof not rejected: %v", err)
	}
}

// TestSoundnessRateSmallField estimates the empirical soundness error in a
// deliberately tiny field and compares it to the paper's 2dℓ/p bound
// (Lemma 1). A cheating prover claims total+1 and then plays honestly,
// which forces at least one lucky polynomial-identity collision to win.
func TestSoundnessRateSmallField(t *testing.T) {
	small, err := field.New(257)
	if err != nil {
		t.Fatal(err)
	}
	params, err := lde.NewParams(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: small, Params: params, Combiner: Power{K: 2}}
	const trials = 3000
	accepted := 0
	rng := field.NewSplitMix64(48)
	for trial := 0; trial < trials; trial++ {
		ups := stream.UnitIncrements(params.U, 20, rng)
		a, err := stream.Apply(ups, params.U)
		if err != nil {
			t.Fatal(err)
		}
		table := make([]field.Elem, params.U)
		for i, v := range a {
			table[i] = small.FromInt64(v)
		}
		pt := lde.RandomPoint(small, params, rng)
		val, err := lde.EvalDense(pt, table)
		if err != nil {
			t.Fatal(err)
		}
		p, err := newScanned(cfg, table)
		if err != nil {
			t.Fatal(err)
		}
		// Cheat: claim one more than the truth, then send messages shifted
		// so the first consistency check passes; detection rides on the
		// random challenges.
		v, err := NewVerifier(cfg, pt.R, small.Add(refTotal(cfg, table), 1), small.Mul(val, val))
		if err != nil {
			t.Fatal(err)
		}
		tamper := func(round int, evals []field.Elem) []field.Elem {
			if round == 1 {
				out := append([]field.Elem(nil), evals...)
				out[0] = small.Add(out[0], 1)
				return out
			}
			return evals
		}
		if _, err := Run(p, v, tamper); err == nil {
			accepted++
		}
	}
	// Lemma 1 bound: 2dℓ/p = 2·4·2/257 ≈ 6.2%. The specific cheat above
	// wins only if some r_j hits a coincidence; empirically the rate is
	// well under the bound. Allow the bound with slack.
	bound := float64(2*params.D*params.Ell) / 257.0
	rate := float64(accepted) / trials
	if rate > 2*bound {
		t.Fatalf("empirical soundness error %.4f far exceeds Lemma 1 bound %.4f", rate, bound)
	}
	t.Logf("empirical soundness error %.4f (Lemma 1 bound %.4f)", rate, bound)
}

func TestVerifierStructuralChecks(t *testing.T) {
	params, err := lde.NewParams(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	rng := field.NewSplitMix64(49)
	pt := lde.RandomPoint(f61, params, rng)

	t.Run("wrong message length", func(t *testing.T) {
		v, err := NewVerifier(cfg, pt.R, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Receive([]field.Elem{0, 0, 0, 0, 0}); !errors.Is(err, ErrReject) {
			t.Errorf("oversized message (degree too high) not rejected: %v", err)
		}
	})
	t.Run("non-canonical element", func(t *testing.T) {
		v, err := NewVerifier(cfg, pt.R, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := v.Receive([]field.Elem{field.Elem(f61.Modulus()), 0, 0}); !errors.Is(err, ErrReject) {
			t.Errorf("non-canonical element not rejected: %v", err)
		}
	})
	t.Run("message after rejection", func(t *testing.T) {
		v, err := NewVerifier(cfg, pt.R, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		_ = v.Receive([]field.Elem{5, 5, 5}) // sum 10 ≠ claim 1 → reject
		if err := v.Receive([]field.Elem{0, 1, 0}); !errors.Is(err, ErrReject) {
			t.Errorf("post-rejection message accepted: %v", err)
		}
		if v.Accepted() {
			t.Error("rejected verifier reports accepted")
		}
	})
	t.Run("challenge before first round", func(t *testing.T) {
		v, err := NewVerifier(cfg, pt.R, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Challenge(); err == nil {
			t.Error("challenge available before any message")
		}
	})
}

// TestConstructorValidation: NewProver refuses every malformed input —
// configuration, tables and scan — and accepts the well-formed ones
// beside them, flat or in chunks.
func TestConstructorValidation(t *testing.T) {
	params, err := lde.NewParams(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	params4, err := lde.NewParams(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	small, err := field.New(5)
	if err != nil {
		t.Fatal(err)
	}
	smallParams, err := lde.NewParams(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	good := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	prod := Config{Field: f61, Params: params, Combiner: Product{}}
	at4 := Config{Field: f61, Params: params4, Combiner: Power{K: 2}}
	zeros := func(n int) Chunked { return Flat(make([]field.Elem, n)) }
	scan := func(ell int, tables ...Chunked) *LivePairs {
		live := ScanLivePairs(ell, 0, tables...)
		return &live
	}
	live16 := Chunked{Width: 8, Chunks: [][]field.Elem{nil, {0, 3, 0, 0, 0, 0, 0, 0}}}
	for _, tc := range []struct {
		name   string
		ok     bool
		cfg    Config
		live   *LivePairs // nil: the tables' own scan
		tables []Chunked
	}{
		{"flat table", true, good, nil, []Chunked{zeros(16)}},
		{"table in chunks", true, good, nil, []Chunked{live16}},
		{"nil chunk beside a live one", true, prod, nil, []Chunked{live16, {Width: 8, Chunks: [][]field.Elem{nil, nil}}}},
		{"short table", false, good, nil, []Chunked{zeros(8)}},
		{"arity mismatch", false, good, nil, []Chunked{zeros(16), zeros(16)}},
		{"invalid field", false, Config{Params: params, Combiner: Power{K: 2}}, nil, []Chunked{zeros(16)}},
		{"degree ≥ field size", false, Config{Field: small, Params: smallParams, Combiner: Power{K: 9}}, nil, []Chunked{zeros(4)}},
		{"tables of differing Width", false, prod, nil, []Chunked{zeros(16), live16}},
		{"Width not a multiple of ℓ", false, at4, nil, []Chunked{{Width: 2, Chunks: make([][]field.Elem, 128)}}},
		{"chunk shorter than Width", false, good, nil, []Chunked{{Width: 8, Chunks: [][]field.Elem{make([]field.Elem, 4), nil}}}},
		{"Len() ≠ ℓ^d", false, good, nil, []Chunked{{Width: 4, Chunks: make([][]field.Elem, 3)}}},
		{"no chunks", false, good, nil, []Chunked{{Width: 16}}},
		{"unscanned table", false, good, &LivePairs{}, []Chunked{zeros(16)}},
		{"scan of another table size", false, good, scan(2, zeros(8)), []Chunked{zeros(16)}},
		{"sparse scan at ℓ=4", false, at4, scan(2, zeros(256)), []Chunked{zeros(256)}},
	} {
		live := tc.live
		if live == nil {
			live = scan(tc.cfg.Params.Ell, tc.tables...)
		}
		if _, err := NewProver(tc.cfg, *live, tc.tables...); (err == nil) != tc.ok {
			t.Errorf("%s: accepted %v, want %v (%v)", tc.name, err == nil, tc.ok, err)
		}
	}
	if _, err := NewVerifier(good, make([]field.Elem, 3), 0, 0); err == nil {
		t.Error("short challenge vector accepted")
	}
}

func TestProverStateMachine(t *testing.T) {
	params, err := lde.NewParams(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	p, err := newScanned(cfg, make([]field.Elem, 4))
	if err != nil {
		t.Fatal(err)
	}
	if p.Round() != 0 {
		t.Fatalf("fresh prover at round %d", p.Round())
	}
	if err := p.Fold(7); err != nil {
		t.Fatal(err)
	}
	if err := p.Fold(7); err != nil {
		t.Fatal(err)
	}
	if err := p.Fold(7); err == nil {
		t.Error("fold past final round accepted")
	}
	if _, err := p.RoundMessage(); err == nil {
		t.Error("message past final round accepted")
	}
}

// TestBranchingFactorTradeoff verifies the footnote-1 trade-off: larger ℓ
// means fewer rounds but more words per message, with total communication
// deg+1 per round.
func TestBranchingFactorTradeoff(t *testing.T) {
	for _, pr := range []struct {
		ell, d int
	}{{2, 12}, {4, 6}, {16, 3}} {
		params, err := lde.NewParams(pr.ell, pr.d)
		if err != nil {
			t.Fatal(err)
		}
		if params.U != 4096 {
			t.Fatalf("params (%d,%d) universe %d, want 4096", pr.ell, pr.d, params.U)
		}
		rng := field.NewSplitMix64(uint64(50 + pr.ell))
		ups := stream.UniformDeltas(params.U, 10, rng)
		table := buildTable(t, f61, ups, params.U)
		cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
		tr, v, err := runProtocol(t, cfg, rng, table)
		if err != nil || !v.Accepted() {
			t.Fatalf("(ℓ=%d,d=%d) rejected: %v", pr.ell, pr.d, err)
		}
		wantWords := pr.d*(2*(pr.ell-1)+1) + pr.d - 1
		if tr.CommWords() != wantWords {
			t.Errorf("(ℓ=%d,d=%d) CommWords = %d, want %d", pr.ell, pr.d, tr.CommWords(), wantWords)
		}
	}
}

// BenchmarkProverF2Sparse is the f2_large shape: 2^15 unit updates over
// u = 2^20, a table whose live pairs are a few percent of all pairs.
// "open" is the first message (scan + pack + g_1), "rounds" the rest.
func BenchmarkProverF2Sparse(b *testing.B) {
	params, err := lde.NewParams(2, 20)
	if err != nil {
		b.Fatal(err)
	}
	rng := field.NewSplitMix64(52)
	a, err := stream.Apply(stream.UnitIncrements(params.U, 1<<15, rng), params.U)
	if err != nil {
		b.Fatal(err)
	}
	table := make([]field.Elem, params.U)
	for i, v := range a {
		table[i] = f61.FromInt64(v)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	challenges := f61.RandVec(rng, params.D)
	b.Run("open", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := newScanned(cfg, table)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RoundMessage(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rounds", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			p, err := newScanned(cfg, table)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.RoundMessage(); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for j := 1; j < params.D; j++ {
				if err := p.Fold(challenges[j-1]); err != nil {
					b.Fatal(err)
				}
				if _, err := p.RoundMessage(); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

func BenchmarkProverF2(b *testing.B) {
	for _, logu := range []int{12, 16} {
		b.Run(fmt.Sprintf("u=2^%d", logu), func(b *testing.B) {
			params, err := lde.NewParams(2, logu)
			if err != nil {
				b.Fatal(err)
			}
			rng := field.NewSplitMix64(51)
			ups := stream.UniformDeltas(params.U, 1000, rng)
			a, err := stream.Apply(ups, params.U)
			if err != nil {
				b.Fatal(err)
			}
			table := make([]field.Elem, params.U)
			for i, v := range a {
				table[i] = f61.FromInt64(v)
			}
			cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
			pt := lde.RandomPoint(f61, params, rng)
			val, err := lde.EvalDense(pt, table)
			if err != nil {
				b.Fatal(err)
			}
			claim := refTotal(cfg, table)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := newScanned(cfg, table)
				if err != nil {
					b.Fatal(err)
				}
				v, err := NewVerifier(cfg, pt.R, claim, f61.Mul(val, val))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := Run(p, v, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
