package core

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// halvesCase is one protocol built on a shared session half. build
// returns a fresh honest prover and a verifier that has observed the
// stream with its query set; answer extracts the accepted result.
type halvesCase struct {
	name   string
	build  func() (ProverSession, VerifierSession)
	answer func(VerifierSession) (any, error)
	want   any

	// opening is the index of the sum-check opening among the prover's
	// messages (after F0's heavy-hitter phase, 0 elsewhere).
	opening int
	// hhReveal marks a prover for which a two-element challenge is a
	// legitimate heavy-hitter reveal rather than a malformed one.
	hhReveal bool
}

// refRange sums counts over [qL, qR] in the field.
func refRange(counts []int64, qL, qR uint64) field.Elem {
	var s int64
	for _, c := range counts[qL : qR+1] {
		s += c
	}
	return f61.FromInt64(s)
}

// TestSumcheckHalvesContract pins the conversation contract every
// sum-check protocol inherits from scVerifier/scProver: honest runs
// accept with the reference answer; a malformed opening is a rejection;
// out-of-order calls are usage errors, not rejections.
func TestSumcheckHalvesContract(t *testing.T) {
	const u = 64
	rng := field.NewSplitMix64(2811)
	a := stream.UnitIncrements(u, 300, rng)
	b := stream.UniformDeltas(u, 9, rng)
	ca, cb := countsOf(t, a, u), countsOf(t, b, u)
	ta, tb := elemsOf(t, a, u), elemsOf(t, b, u)
	const qL, qR = 5, 41

	fk := must(NewFk(f61, u, 3))
	ip := must(NewInnerProduct(f61, u))
	rs := must(NewRangeSum(f61, u))
	mf := must(NewMultiFk(f61, u, []int{2, 3}))
	f0 := must(NewF0(f61, u, 0))
	f2 := must(NewSelfJoinSize(f61, u))

	var ipWant, f0Want field.Elem
	for i := range ca {
		ipWant = f61.Add(ipWant, f61.Mul(f61.FromInt64(ca[i]), f61.FromInt64(cb[i])))
		if ca[i] != 0 {
			f0Want = f61.Add(f0Want, 1)
		}
	}
	result := func(v VerifierSession) (any, error) {
		return v.(interface{ Result() (field.Elem, error) }).Result()
	}
	cases := []halvesCase{
		{
			name: "Fk",
			build: func() (ProverSession, VerifierSession) {
				v := fk.NewVerifier(field.NewSplitMix64(1))
				observeAll(t, v, a)
				return must(fk.NewProverFromTable(ta)), v
			},
			answer: result, want: refFk(t, a, u, 3),
		},
		{
			name: "InnerProduct",
			build: func() (ProverSession, VerifierSession) {
				v := ip.NewVerifier(field.NewSplitMix64(2))
				for _, up := range a {
					if err := v.ObserveA(up); err != nil {
						t.Fatal(err)
					}
				}
				for _, up := range b {
					if err := v.ObserveB(up); err != nil {
						t.Fatal(err)
					}
				}
				return must(ip.NewProverFromTables(ta, tb)), v
			},
			answer: result, want: ipWant,
		},
		{
			name: "RangeSum",
			build: func() (ProverSession, VerifierSession) {
				v := rs.NewVerifier(field.NewSplitMix64(3))
				observeAll(t, v, b)
				p := must(rs.NewProverFromTable(tb))
				if err := errors.Join(v.SetQuery(qL, qR), p.SetQuery(qL, qR)); err != nil {
					t.Fatal(err)
				}
				return p, v
			},
			answer: result, want: refRange(cb, qL, qR),
		},
		{
			name: "MultiFk",
			build: func() (ProverSession, VerifierSession) {
				v := mf.NewVerifier(field.NewSplitMix64(4))
				for _, up := range a {
					if err := errors.Join(v.Observe(0, up), v.Observe(1, up)); err != nil {
						t.Fatal(err)
					}
				}
				return must(mf.NewProverFromTables(ta, ta)), v
			},
			answer: func(v VerifierSession) (any, error) { return v.(*MultiFkVerifier).Results() },
			want:   []field.Elem{refFk(t, a, u, 2), refFk(t, a, u, 3)},
		},
		{
			name: "F0",
			build: func() (ProverSession, VerifierSession) {
				v := f0.NewVerifier(field.NewSplitMix64(5))
				observeAll(t, v, a)
				return must(f0.NewProverFromCounts(ca, int64(len(a)))), v
			},
			answer: result, want: f0Want,
			opening: len(f0.NewVerifier(field.NewSplitMix64(5)).hh.Challenges()) + 1, hhReveal: true,
		},
		{
			name: "SplitAggregator",
			build: func() (ProverSession, VerifierSession) {
				v := f2.NewVerifier(field.NewSplitMix64(6))
				observeAll(t, v, a)
				return newSplitFk(t, u, 2, 2, 0, ta, 1), v
			},
			answer: result, want: refFk(t, a, u, 2),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, v := c.build()
			rec := &recordingProver{inner: p}
			if _, err := Run(rec, v); err != nil {
				t.Fatalf("honest run rejected: %v", err)
			}
			if got, err := c.answer(v); err != nil || !reflect.DeepEqual(got, c.want) {
				t.Fatalf("answer = %v, %v; want %v", got, err, c.want)
			}

			for mode, mutate := range map[string]func(Msg) Msg{
				"stray int":    func(m Msg) Msg { m.Ints = append(m.Ints, 7); return m },
				"short by one": func(m Msg) Msg { m.Elems = m.Elems[:len(m.Elems)-1]; return m },
			} {
				p, v := c.build()
				tp := &TamperedProver{P: p, T: func(round int, m Msg) Msg {
					if round == c.opening {
						return mutate(m)
					}
					return m
				}}
				if _, err := Run(tp, v); !errors.Is(err, ErrRejected) {
					t.Errorf("opening with a %s: err = %v, want ErrRejected", mode, err)
				}
			}

			_, v = c.build()
			if _, _, err := v.Begin(rec.msgs[0]); err != nil {
				t.Fatal(err)
			}
			if _, _, err := v.Begin(rec.msgs[0]); err == nil || errors.Is(err, ErrRejected) {
				t.Errorf("second Begin: err = %v, want a usage error", err)
			}
			_, v = c.build()
			if _, _, err := v.Step(rec.msgs[1]); err == nil || errors.Is(err, ErrRejected) {
				t.Errorf("Step before Begin: err = %v, want a usage error", err)
			}

			p, _ = c.build()
			if _, err := p.Step(Msg{Elems: []field.Elem{1}}); err == nil {
				t.Error("prover Step before Open succeeded")
			}
			if c.hhReveal {
				return
			}
			if _, err := p.Open(); err != nil {
				t.Fatal(err)
			}
			if _, err := p.Step(Msg{Elems: []field.Elem{1, 2}}); err == nil {
				t.Error("prover Step with a two-element challenge succeeded")
			}
		})
	}
}

// TestAnchorHalvesContract pins the contract the claimed-anchor
// reductions inherit from anchorVerifier/anchorProver.
func TestAnchorHalvesContract(t *testing.T) {
	const u = 64
	ups := stream.UnitIncrements(u, 20, field.NewSplitMix64(2812))
	counts := countsOf(t, ups, u)
	type anchor struct {
		At    uint64
		Found bool
	}
	// scan returns the first nonzero index of counts in the given order.
	scan := func(from, to uint64) anchor {
		for i := from; ; {
			if counts[i] != 0 {
				return anchor{i, true}
			}
			if i == to {
				return anchor{}
			}
			if from <= to {
				i++
			} else {
				i--
			}
		}
	}
	const q, k = 40, 3
	var kth uint64
	for i, seen := u-1, 0; seen < k; i-- {
		if counts[i] != 0 {
			seen++
			kth = uint64(i)
		}
	}
	pred, succ, kl := must(NewPredecessor(f61, u)), must(NewSuccessor(f61, u)), must(NewKLargest(f61, u))
	cases := []halvesCase{
		{
			name: "Predecessor",
			build: func() (ProverSession, VerifierSession) {
				v, p := pred.NewVerifier(field.NewSplitMix64(1)), must(pred.NewProverFromCounts(counts))
				observeAll(t, v, ups)
				if err := errors.Join(v.SetQuery(q), p.SetQuery(q)); err != nil {
					t.Fatal(err)
				}
				return p, v
			},
			answer: func(v VerifierSession) (any, error) {
				at, ok, err := v.(*PredecessorVerifier).Result()
				return anchor{at, ok}, err
			},
			want: scan(q, 0),
		},
		{
			name: "Successor",
			build: func() (ProverSession, VerifierSession) {
				v, p := succ.NewVerifier(field.NewSplitMix64(2)), must(succ.NewProverFromCounts(counts))
				observeAll(t, v, ups)
				if err := errors.Join(v.SetQuery(q), p.SetQuery(q)); err != nil {
					t.Fatal(err)
				}
				return p, v
			},
			answer: func(v VerifierSession) (any, error) {
				at, ok, err := v.(*SuccessorVerifier).Result()
				return anchor{at, ok}, err
			},
			want: scan(q, u-1),
		},
		{
			name: "KLargest",
			build: func() (ProverSession, VerifierSession) {
				v, p := kl.NewVerifier(field.NewSplitMix64(3)), must(kl.NewProverFromCounts(counts))
				observeAll(t, v, ups)
				if err := errors.Join(v.SetQuery(k), p.SetQuery(k)); err != nil {
					t.Fatal(err)
				}
				return p, v
			},
			answer: func(v VerifierSession) (any, error) { return v.(*KLargestVerifier).Result() },
			want:   kth,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, v := c.build()
			if _, err := Run(p, v); err != nil {
				t.Fatalf("honest run rejected: %v", err)
			}
			if got, err := c.answer(v); err != nil || got != c.want {
				t.Fatalf("answer = %v, %v; want %v", got, err, c.want)
			}

			// A second Begin, even after acceptance, must not replace the
			// verified anchor with a new claim.
			p, _ = c.build()
			opening, err := p.Open()
			if err != nil {
				t.Fatal(err)
			}
			forged := cloneMsg(opening)
			forged.Ints[0]--
			if _, _, err := v.Begin(forged); err == nil || errors.Is(err, ErrRejected) {
				t.Errorf("second Begin: err = %v, want a usage error", err)
			}
			if got, err := c.answer(v); err != nil || got != c.want {
				t.Errorf("answer after a second Begin = %v, %v; want %v", got, err, c.want)
			}
			_, v = c.build()
			if _, _, err := v.Begin(Msg{Elems: opening.Elems}); !errors.Is(err, ErrRejected) {
				t.Errorf("opening with no claim: err = %v, want ErrRejected", err)
			}
		})
	}
}
