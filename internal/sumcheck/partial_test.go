package sumcheck

import (
	"strings"
	"testing"

	"repro/internal/field"
	"repro/internal/lde"
	"repro/internal/poly"
	"repro/internal/stream"
)

// runDistributed plays the full conversation through the partial-prover
// seam: S slice provers serve the head rounds (messages combined in
// slice order, challenges broadcast), then a tail prover built from
// their leaves serves the rest. It returns the combined claim (the sum
// of the slices' Σ g_1(c) claims, as a slice owner opens) and the
// combined message per round.
func runDistributed(t *testing.T, cfg Config, slices int, challenges []field.Elem, tables ...[]field.Elem) (field.Elem, [][]field.Elem) {
	t.Helper()
	f := cfg.Field
	width := cfg.Params.U / uint64(slices)
	parts := make([]*Prover, slices)
	for k := range parts {
		lo, hi := uint64(k)*width, uint64(k+1)*width
		sub := make([][]field.Elem, len(tables))
		for ti, tab := range tables {
			sub[ti] = tab[lo:hi]
		}
		p, err := NewPartialProver(cfg, lo, hi, sub...)
		if err != nil {
			t.Fatalf("slice %d: %v", k, err)
		}
		parts[k] = p
	}
	var claim field.Elem
	hd := parts[0].cfg.Params.D
	d := cfg.Params.D
	var msgs [][]field.Elem
	for j := 0; j < hd; j++ {
		per := make([][]field.Elem, slices)
		for k, p := range parts {
			m, err := p.RoundMessage()
			if err != nil {
				t.Fatalf("slice %d round %d: %v", k, j, err)
			}
			per[k] = m
			if j == 0 {
				c, err := poly.SumPrefix(f, m, 2)
				if err != nil {
					t.Fatal(err)
				}
				claim = f.Add(claim, c)
			}
		}
		m, err := CombinePartials(f, per)
		if err != nil {
			t.Fatal(err)
		}
		msgs = append(msgs, m)
		if j < d-1 {
			for _, p := range parts {
				if err := p.Fold(challenges[j]); err != nil {
					t.Fatalf("fold round %d: %v", j, err)
				}
			}
		}
	}
	if hd == d {
		return claim, msgs // one slice covering the whole table: no tail
	}
	leaves := make([][]field.Elem, slices)
	for k, p := range parts {
		lv, err := p.Leaves()
		if err != nil {
			t.Fatalf("slice %d leaves: %v", k, err)
		}
		leaves[k] = lv
	}
	tail, err := NewTailProver(cfg, leaves)
	if err != nil {
		t.Fatal(err)
	}
	for j := hd; j < d; j++ {
		m, err := tail.RoundMessage()
		if err != nil {
			t.Fatalf("tail round %d: %v", j, err)
		}
		msgs = append(msgs, m)
		if j < d-1 {
			if err := tail.Fold(challenges[j]); err != nil {
				t.Fatalf("tail fold round %d: %v", j, err)
			}
		}
	}
	return claim, msgs
}

// TestPartialBitIdentical checks the seam's core invariant: for every
// covered combiner, worker count, and slice count, the distributed
// conversation's claim and per-round messages are bit-identical to the
// single-table prover's.
func TestPartialBitIdentical(t *testing.T) {
	params, err := lde.NewParams(2, 6) // u = 64
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(7)
	ups := stream.UniformDeltas(params.U, 300, rng)
	table := buildTable(t, f61, ups, params.U)
	indicator := make([]field.Elem, params.U)
	for i := uint64(5); i <= 40; i++ {
		indicator[i] = 1
	}
	cases := []struct {
		name     string
		combiner Combiner
		tables   [][]field.Elem
	}{
		{"selfjoin", Power{K: 2}, [][]field.Elem{table}},
		{"f3", Power{K: 3}, [][]field.Elem{table}},
		{"product", Product{}, [][]field.Elem{table, indicator}},
	}
	for _, tc := range cases {
		for _, workers := range []int{0, 3} {
			cfg := Config{Field: f61, Params: params, Combiner: tc.combiner, Workers: workers}
			challenges := f61.RandVec(field.NewSplitMix64(99), params.D)
			ref, err := NewProver(cfg, tc.tables...)
			if err != nil {
				t.Fatal(err)
			}
			refClaim := refTotal(cfg, tc.tables...)
			var refMsgs [][]field.Elem
			for j := 0; j < params.D; j++ {
				m, err := ref.RoundMessage()
				if err != nil {
					t.Fatal(err)
				}
				refMsgs = append(refMsgs, m)
				if j < params.D-1 {
					if err := ref.Fold(challenges[j]); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, slices := range []int{1, 2, 4, 8} {
				claim, msgs := runDistributed(t, cfg, slices, challenges, tc.tables...)
				if claim != refClaim {
					t.Fatalf("%s w=%d S=%d: claim %d ≠ %d", tc.name, workers, slices, claim, refClaim)
				}
				if len(msgs) != len(refMsgs) {
					t.Fatalf("%s w=%d S=%d: %d messages, want %d", tc.name, workers, slices, len(msgs), len(refMsgs))
				}
				for j := range msgs {
					if len(msgs[j]) != len(refMsgs[j]) {
						t.Fatalf("%s w=%d S=%d round %d: message length %d ≠ %d", tc.name, workers, slices, j+1, len(msgs[j]), len(refMsgs[j]))
					}
					for c := range msgs[j] {
						if msgs[j][c] != refMsgs[j][c] {
							t.Fatalf("%s w=%d S=%d round %d: evaluation %d differs: %d ≠ %d",
								tc.name, workers, slices, j+1, c, msgs[j][c], refMsgs[j][c])
						}
					}
				}
			}
		}
	}
}

// TestPartialVerifierAccepts drives the distributed prover against the
// ordinary verifier end-to-end: the verifier cannot tell it is talking
// to S machines.
func TestPartialVerifierAccepts(t *testing.T) {
	params, err := lde.NewParams(2, 5) // u = 32
	if err != nil {
		t.Fatal(err)
	}
	rng := field.NewSplitMix64(11)
	ups := stream.UniformDeltas(params.U, 200, rng)
	table := buildTable(t, f61, ups, params.U)
	cfg := Config{Field: f61, Params: params, Combiner: Power{K: 2}}
	pt := lde.RandomPoint(f61, params, field.NewSplitMix64(23))
	ev, err := lde.EvalDense(pt, table)
	if err != nil {
		t.Fatal(err)
	}
	expected := cfg.Combiner.Apply(f61, []field.Elem{ev})
	// The verifier's challenge schedule is its pre-sampled point; feed the
	// distributed prover the same schedule.
	claim, msgs := runDistributed(t, cfg, 4, pt.R, table)
	v, err := NewVerifier(cfg, pt.R, claim, expected)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs {
		if err := v.Receive(m); err != nil {
			t.Fatal(err)
		}
	}
	if !v.Accepted() {
		t.Fatal("verifier did not accept the distributed conversation")
	}
}

// TestSliceParamsValidation exercises the alignment and width rules.
func TestSliceParamsValidation(t *testing.T) {
	global, err := lde.NewParams(2, 4) // u = 16
	if err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		lo, hi uint64
		want   string
	}{
		{0, 0, "outside"},
		{8, 24, "outside"},
		{0, 3, "power of two"},
		{0, 1, "power of two"},
		{4, 12, "aligned"},
	}
	for _, b := range bad {
		if _, err := SliceParams(global, b.lo, b.hi); err == nil || !strings.Contains(err.Error(), b.want) {
			t.Fatalf("SliceParams(%d,%d) = %v, want %q error", b.lo, b.hi, err, b.want)
		}
	}
	sp, err := SliceParams(global, 8, 16)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Ell != 2 || sp.D != 3 || sp.U != 8 {
		t.Fatalf("SliceParams(8,16) = %+v", sp)
	}
	if _, err := SliceParams(lde.Params{Ell: 3, D: 2, U: 9}, 0, 3); err == nil {
		t.Fatal("ℓ=3 slice accepted")
	}
	if _, err := NewTailProver(Config{Field: f61, Combiner: Power{K: 2}}, [][]field.Elem{{1}, {2}, {3}}); err == nil {
		t.Fatal("3-slice tail accepted")
	}
	if _, err := NewTailProver(Config{Field: f61, Combiner: Power{K: 2}}, [][]field.Elem{{1, 9}, {2}}); err == nil {
		t.Fatal("wrong-arity leaves accepted")
	}
}
