package core

import (
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
)

// recordingProver captures every message a prover session emits.
type recordingProver struct {
	inner ProverSession
	msgs  []Msg
}

func (rp *recordingProver) Open() (Msg, error) {
	m, err := rp.inner.Open()
	rp.msgs = append(rp.msgs, cloneMsg(m))
	return m, err
}

func (rp *recordingProver) Step(ch Msg) (Msg, error) {
	m, err := rp.inner.Step(ch)
	rp.msgs = append(rp.msgs, cloneMsg(m))
	return m, err
}

func sameTranscript(t *testing.T, name string, a, b []Msg) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d messages vs %d", name, len(a), len(b))
	}
	for i := range a {
		if len(a[i].Ints) != len(b[i].Ints) || len(a[i].Elems) != len(b[i].Elems) {
			t.Fatalf("%s: message %d shape differs", name, i)
		}
		for j := range a[i].Ints {
			if a[i].Ints[j] != b[i].Ints[j] {
				t.Fatalf("%s: message %d int %d differs: %d vs %d", name, i, j, a[i].Ints[j], b[i].Ints[j])
			}
		}
		for j := range a[i].Elems {
			if a[i].Elems[j] != b[i].Elems[j] {
				t.Fatalf("%s: message %d elem %d differs: %d vs %d", name, i, j, a[i].Elems[j], b[i].Elems[j])
			}
		}
	}
}

// TestParallelProversBitIdenticalTranscripts: for every prover
// constructor that takes a worker count, the parallel prover must emit the exact
// transcript of the serial prover and still be accepted.
func TestParallelProversBitIdenticalTranscripts(t *testing.T) {
	f := field.Mersenne()
	const u = 1 << 13
	ups := stream.UniformDeltas(u, 100, field.NewSplitMix64(61))
	zipf, err := stream.Zipf(1<<8, 4<<8, 1.2, field.NewSplitMix64(62))
	if err != nil {
		t.Fatal(err)
	}
	// Every run borrows the same tables read-only.
	counts := countsOf(t, ups, u)

	type runResult struct {
		msgs []Msg
	}
	run := func(t *testing.T, workers int, seed uint64, build func(workers int) (ProverSession, VerifierSession, error)) runResult {
		t.Helper()
		p, v, err := build(workers)
		if err != nil {
			t.Fatal(err)
		}
		rp := &recordingProver{inner: p}
		if _, err := Run(rp, v); err != nil {
			t.Fatalf("workers=%d: honest prover rejected: %v", workers, err)
		}
		_ = seed
		return runResult{msgs: rp.msgs}
	}

	cases := []struct {
		name  string
		build func(workers int) (ProverSession, VerifierSession, error)
	}{
		{"Fk", func(workers int) (ProverSession, VerifierSession, error) {
			proto, err := NewFk(f, u, 3)
			if err != nil {
				return nil, nil, err
			}
			v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, field.NewSplitMix64(63)))
			for _, up := range ups {
				if err := v.Observe(up); err != nil {
					return nil, nil, err
				}
			}
			p, err := proto.NewProverFromTable(counts, nil, workers)
			return p, v, err
		}},
		{"RangeSum", func(workers int) (ProverSession, VerifierSession, error) {
			proto, err := NewRangeSum(f, u)
			if err != nil {
				return nil, nil, err
			}
			v := proto.Adopt(DrawSummary(proto.F, proto.Params.D, FamilyPoint, field.NewSplitMix64(64)))
			for _, up := range ups {
				if err := v.Observe(up); err != nil {
					return nil, nil, err
				}
			}
			if err := v.SetQuery(10, u/2); err != nil {
				return nil, nil, err
			}
			p, err := proto.NewProverFromTable(counts, workers)
			if err != nil {
				return nil, nil, err
			}
			return p, v, p.SetQuery(10, u/2)
		}},
		{"F0", func(workers int) (ProverSession, VerifierSession, error) {
			proto, err := NewF0(f, 1<<8, 0)
			if err != nil {
				return nil, nil, err
			}
			v := proto.Adopt(DrawSummary(proto.F, proto.TreeParams.D, FamilyPoint|FamilyAug, field.NewSplitMix64(66)))
			for _, up := range zipf {
				if err := v.Observe(up); err != nil {
					return nil, nil, err
				}
			}
			p, err := proto.NewProverFromSkeleton(skeletonOf(t, proto.F, zipf, proto.TreeParams), stream.SumDeltas(zipf), workers)
			return p, v, err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial := run(t, 0, 1, tc.build)
			for _, workers := range []int{1, 4, -1} {
				par := run(t, workers, 1, tc.build)
				sameTranscript(t, tc.name, serial.msgs, par.msgs)
			}
		})
	}
}
