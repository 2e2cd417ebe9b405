package gkr

import (
	"errors"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// sessionSpecs are the registry families exercised by the session tests,
// over a deliberately non-power-of-two universe.
var sessionSpecs = []circuit.Spec{
	{Name: circuit.FamilyF2},
	{Name: circuit.FamilyCount},
	{Name: circuit.FamilyMatMul, Arg: 16},
}

func sessionUps(u uint64, n int, seed uint64) []stream.Update {
	rng := field.NewSplitMix64(seed)
	ups := make([]stream.Update, n)
	for i := range ups {
		ups[i] = stream.Update{Index: rng.Uint64() % u, Delta: int64(rng.Uint64()%9) - 3}
	}
	return ups
}

// sessionInput builds the prover input the way the engine does: a count
// table over the padded universe, then the protocol's input from it.
func sessionInput(t testing.TB, proto *Protocol, ups []stream.Update, u uint64) []field.Elem {
	t.Helper()
	d, err := circuit.PaddedVars(u)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 1<<d)
	for _, up := range ups {
		counts[up.Index] += up.Delta
	}
	return proto.InputFromCounts(sumcheck.Flat(counts))
}

// recorder captures both directions of a conversation for bit-exact
// transcript comparison.
type recorder struct {
	p                      core.ProverSession
	v                      core.VerifierSession
	proverMsgs, challenges []core.Msg
}

func (r *recorder) Open() (core.Msg, error) {
	m, err := r.p.Open()
	r.proverMsgs = append(r.proverMsgs, cloneTestMsg(m))
	return m, err
}

func (r *recorder) Step(ch core.Msg) (core.Msg, error) {
	m, err := r.p.Step(ch)
	r.proverMsgs = append(r.proverMsgs, cloneTestMsg(m))
	return m, err
}

func (r *recorder) Begin(op core.Msg) (core.Msg, bool, error) {
	ch, done, err := r.v.Begin(op)
	r.challenges = append(r.challenges, cloneTestMsg(ch))
	return ch, done, err
}

func (r *recorder) vStep(resp core.Msg) (core.Msg, bool, error) {
	ch, done, err := r.v.Step(resp)
	r.challenges = append(r.challenges, cloneTestMsg(ch))
	return ch, done, err
}

func cloneTestMsg(m core.Msg) core.Msg {
	return core.Msg{Ints: append([]uint64(nil), m.Ints...), Elems: append([]field.Elem(nil), m.Elems...)}
}

type vRecorder struct{ r *recorder }

func (w vRecorder) Begin(op core.Msg) (core.Msg, bool, error) { return w.r.Begin(op) }
func (w vRecorder) Step(m core.Msg) (core.Msg, bool, error)   { return w.r.vStep(m) }

// runSession drives one full session conversation, returning the
// recorded transcript and the verifier session.
func runSession(t *testing.T, spec circuit.Spec, u uint64, ups []stream.Update, workers int, seed uint64) (*recorder, *VerifierSession, error) {
	t.Helper()
	proto, err := NewProtocolFor(f61, spec, u)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := proto.NewVerifierSession(field.NewSplitMix64(seed))
	if err != nil {
		t.Fatal(err)
	}
	for _, up := range ups {
		if err := vs.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	ps, err := proto.NewProverSession(sessionInput(t, proto, ups, u), workers)
	if err != nil {
		t.Fatal(err)
	}
	rec := &recorder{p: ps, v: vs}
	_, err = core.Run(rec, vRecorder{rec})
	return rec, vs, err
}

// TestSessionCompleteness runs every family end-to-end through the
// core.Run driver and checks the verified answers against direct
// computation from the stream.
func TestSessionCompleteness(t *testing.T) {
	const u = 500
	ups := sessionUps(u, 300, 42)
	a, err := stream.Apply(ups, u)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range sessionSpecs {
		_, vs, err := runSession(t, spec, u, ups, 0, 7)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		outs, err := vs.Outputs()
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		switch spec.Name {
		case circuit.FamilyF2:
			var want field.Elem
			for _, v := range a {
				e := f61.FromInt64(v)
				want = f61.Add(want, f61.Mul(e, e))
			}
			if len(outs) != 1 || outs[0] != want {
				t.Errorf("F2: output %v, want [%d]", outs, want)
			}
		case circuit.FamilyCount:
			var want field.Elem
			for _, v := range a {
				want = f61.Add(want, f61.FromInt64(v))
			}
			if len(outs) != 1 || outs[0] != want {
				t.Errorf("COUNT: output %v, want [%d]", outs, want)
			}
		case circuit.FamilyMatMul:
			n := int(spec.Arg)
			if len(outs) != n*n {
				t.Fatalf("MATMUL: %d outputs, want %d", len(outs), n*n)
			}
			// C[i][j] over the zero-padded n×n view of the counts.
			el := func(i, j int) field.Elem {
				idx := i*n + j
				if idx < len(a) {
					return f61.FromInt64(a[idx])
				}
				return 0
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					var want field.Elem
					for k := 0; k < n; k++ {
						want = f61.Add(want, f61.Mul(el(i, k), el(k, j)))
					}
					if outs[i*n+j] != want {
						t.Fatalf("MATMUL: C[%d][%d] = %d, want %d", i, j, outs[i*n+j], want)
					}
				}
			}
		}
	}
}

// TestSessionTamperRejected corrupts each outgoing prover message in
// turn; every corruption must surface as core.ErrRejected.
func TestSessionTamperRejected(t *testing.T) {
	const u = 64
	ups := sessionUps(u, 100, 11)
	for _, spec := range sessionSpecs {
		proto, err := NewProtocolFor(f61, spec, u)
		if err != nil {
			t.Fatal(err)
		}
		// Count the honest rounds first.
		rec, _, err := runSession(t, spec, u, ups, 0, 3)
		if err != nil {
			t.Fatal(err)
		}
		rounds := len(rec.proverMsgs)
		for round := 0; round < rounds; round++ {
			vs, err := proto.NewVerifierSession(field.NewSplitMix64(3))
			if err != nil {
				t.Fatal(err)
			}
			for _, up := range ups {
				if err := vs.Observe(up); err != nil {
					t.Fatal(err)
				}
			}
			ps, err := proto.NewProverSession(sessionInput(t, proto, ups, u), 0)
			if err != nil {
				t.Fatal(err)
			}
			tampered := &core.TamperedProver{P: ps, T: func(r int, m core.Msg) core.Msg {
				if r == round && len(m.Elems) > 0 {
					m.Elems[0] = f61.Add(m.Elems[0], 1)
				}
				return m
			}}
			_, err = core.Run(tampered, vs)
			if !errors.Is(err, core.ErrRejected) {
				t.Errorf("%s round %d tamper: err = %v, want core.ErrRejected", spec.Name, round, err)
			}
		}
	}
}

// TestSessionInputMismatchRejected gives the verifier one extra stream
// update the prover never saw; the final input check must fail.
func TestSessionInputMismatchRejected(t *testing.T) {
	const u = 128
	ups := sessionUps(u, 80, 21)
	for _, spec := range sessionSpecs {
		proto, err := NewProtocolFor(f61, spec, u)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := proto.NewVerifierSession(field.NewSplitMix64(13))
		if err != nil {
			t.Fatal(err)
		}
		for _, up := range ups {
			if err := vs.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		if err := vs.Observe(stream.Update{Index: 5, Delta: 1}); err != nil {
			t.Fatal(err)
		}
		ps, err := proto.NewProverSession(sessionInput(t, proto, ups, u), 0)
		if err != nil {
			t.Fatal(err)
		}
		_, err = core.Run(ps, vs)
		if !errors.Is(err, core.ErrRejected) {
			t.Errorf("%s: err = %v, want core.ErrRejected", spec.Name, err)
		}
	}
}
