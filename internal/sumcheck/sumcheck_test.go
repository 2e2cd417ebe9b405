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

// Transcript records one full conversation for inspection and accounting.
type Transcript struct {
	Messages   [][]field.Elem // prover → verifier, one per round
	Challenges []field.Elem   // verifier → prover (r_1..r_{d-1} are sent; r_d never travels)
}

// CommWords counts the field elements exchanged in both directions, the
// paper's communication measure t.
func (tr Transcript) CommWords() int {
	n := len(tr.Challenges)
	for _, m := range tr.Messages {
		n += len(m)
	}
	return n
}

// Run executes the complete conversation between a local prover and
// verifier, optionally passing each message through tamper (nil means
// honest delivery). It returns the transcript and the verifier's verdict:
// a nil error means accepted. The protocols drive the same halves through
// internal/core; this is the tests' direct driver.
func Run(p *Prover, v *Verifier, tamper func(round int, evals []field.Elem) []field.Elem) (Transcript, error) {
	var tr Transcript
	d := v.cfg.Params.D
	for j := 0; j < d; j++ {
		msg, err := p.RoundMessage()
		if err != nil {
			return tr, err
		}
		if tamper != nil {
			msg = tamper(j+1, msg)
		}
		tr.Messages = append(tr.Messages, msg)
		if err := v.Receive(msg); err != nil {
			return tr, err
		}
		// The prover needs r_j to proceed to round j+1; after the final
		// round no challenge is revealed.
		if j < d-1 {
			rj, err := v.Challenge()
			if err != nil {
				return tr, err
			}
			tr.Challenges = append(tr.Challenges, rj)
			if err := p.Fold(rj); err != nil {
				return tr, err
			}
		}
	}
	return tr, nil
}

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

// accepted reports whether v finished every round without rejecting.
func accepted(v *Verifier) bool { return v.Done() && !v.rejected }

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

// TestCompleteness: an honest prover is accepted for every combiner shape
// and branching factor — the verifier's claim is the tables' total
// computed the long way — in d messages of deg+1 words and d−1
// challenges; F_k at ℓ = 2 has degree k. The F2 rows at u = 4096 are
// footnote 1's trade-off: a larger ℓ, fewer rounds of more words.
func TestCompleteness(t *testing.T) {
	type row struct {
		ell, d int
		comb   Combiner
	}
	rows := []row{{2, 8, Power{K: 2}}, {2, 1, Power{K: 2}}, {3, 4, Power{K: 2}}, {4, 3, Power{K: 2}},
		{2, 12, Power{K: 2}}, {4, 6, Power{K: 2}}, {16, 3, Power{K: 2}},
		{2, 8, Product{}}, {2, 6, PolyFn{H: poly.Poly{1, 3, 0, 2}}}}
	for k := 1; k <= 6; k++ {
		rows = append(rows, row{2, 7, Power{K: k}})
	}
	for _, r := range rows {
		t.Run(fmt.Sprintf("%#v/ell=%d/d=%d", r.comb, r.ell, r.d), func(t *testing.T) {
			params, err := lde.NewParams(r.ell, r.d)
			if err != nil {
				t.Fatal(err)
			}
			rng := field.NewSplitMix64(41)
			tables := make([][]field.Elem, r.comb.Arity())
			for i := range tables {
				tables[i] = buildTable(t, f61, stream.UniformDeltas(params.U, 100, rng), params.U)
			}
			cfg := Config{Field: f61, Params: params, Combiner: r.comb}
			tr, v, err := runProtocol(t, cfg, rng, tables...)
			if err != nil || !accepted(v) {
				t.Fatalf("honest run rejected: %v", err)
			}
			if want := params.D*cfg.MessageLen() + params.D - 1; len(tr.Messages) != params.D || tr.CommWords() != want {
				t.Fatalf("%d messages, %d words; want %d, %d", len(tr.Messages), tr.CommWords(), params.D, want)
			}
			if pw, ok := r.comb.(Power); ok && r.ell == 2 && cfg.MessageLen() != pw.K+1 {
				t.Fatalf("message length %d, want %d (paper: degree k for ℓ=2)", cfg.MessageLen(), pw.K+1)
			}
		})
	}
}

// TestSoundness: the verifier rejects a claim one more than the truth (at
// the round-1 sum check, no probability involved), a prover that proves
// over the stream less its last update (the paper's second tampering
// experiment: the final LDE check), and any single coefficient of any
// round message moved by one.
func TestSoundness(t *testing.T) {
	params, err := lde.NewParams(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	type lie struct {
		name      string
		claim     field.Elem // added to the true total
		dropLast  bool       // the prover misses the last update
		round, at int        // the coefficient moved by one; round 0 = none
	}
	lies := []lie{{name: "claim", claim: 1}, {name: "stream", dropLast: true}}
	for round := 1; round <= params.D; round++ {
		for at := 0; at < cfg.MessageLen(); at++ {
			lies = append(lies, lie{name: fmt.Sprintf("round %d pos %d", round, at), round: round, at: at})
		}
	}
	for k, l := range lies {
		t.Run(l.name, func(t *testing.T) {
			rng := field.NewSplitMix64(uint64(100 + k))
			ups := stream.UniformDeltas(params.U, 100, rng)
			table := buildTable(t, f61, ups, params.U)
			proved := table
			if l.dropLast {
				proved = buildTable(t, f61, ups[:len(ups)-1], params.U)
			}
			pt := lde.RandomPoint(f61, params, rng)
			val, err := lde.EvalDense(pt, table)
			if err != nil {
				t.Fatal(err)
			}
			p, err := newScanned(cfg, proved)
			if err != nil {
				t.Fatal(err)
			}
			v, err := NewVerifier(cfg, pt.R, f61.Add(refTotal(cfg, proved), l.claim), f61.Mul(val, val))
			if err != nil {
				t.Fatal(err)
			}
			tamper := func(r int, evals []field.Elem) []field.Elem {
				if r != l.round {
					return evals
				}
				out := append([]field.Elem(nil), evals...)
				out[l.at] = f61.Add(out[l.at], 1)
				return out
			}
			if _, err := Run(p, v, tamper); !errors.Is(err, ErrReject) {
				t.Fatalf("not rejected: %v", err)
			}
		})
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
		if accepted(v) {
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
