package core

import (
	"errors"
	"testing"

	"repro/internal/field"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// splitSession drives S slice-owner sessions through a SplitAggregator,
// presenting the single-prover ProverSession interface to a verifier.
type splitSession struct {
	t      *testing.T
	agg    *SplitAggregator
	owners []*PartialProver
}

func (s *splitSession) Open() (Msg, error) {
	parts := make([]Msg, len(s.owners))
	for k, o := range s.owners {
		m, err := o.Open()
		if err != nil {
			return Msg{}, err
		}
		parts[k] = m
	}
	return s.agg.Open(parts)
}

func (s *splitSession) Step(ch Msg) (Msg, error) {
	if s.agg.Broadcast() {
		parts := make([]Msg, len(s.owners))
		for k, o := range s.owners {
			m, err := o.Step(ch)
			if err != nil {
				return Msg{}, err
			}
			parts[k] = m
		}
		return s.agg.Collect(parts)
	}
	if len(ch.Elems) != 1 {
		s.t.Fatalf("challenge with %d elems", len(ch.Elems))
	}
	return s.agg.Next(ch.Elems[0])
}

// newSplitFk builds S slice owners plus aggregator for an Fk query.
func newSplitFk(t *testing.T, u uint64, k, slices, workers int, table []field.Elem, version uint64) *splitSession {
	t.Helper()
	proto, err := NewFk(f61, u, k)
	if err != nil {
		t.Fatal(err)
	}
	proto.Workers = workers
	agg, err := NewSplitAggregator(f61, u, slices, sumcheck.Power{K: k}, workers)
	if err != nil {
		t.Fatal(err)
	}
	width := proto.Params.U / uint64(slices)
	owners := make([]*PartialProver, slices)
	for s := range owners {
		lo, hi := uint64(s)*width, uint64(s+1)*width
		o, err := proto.NewPartialProverFromTable(table[lo:hi], nil, lo, hi, version)
		if err != nil {
			t.Fatal(err)
		}
		owners[s] = o
	}
	return &splitSession{t: t, agg: agg, owners: owners}
}

// TestSplitFkBitIdentical runs the distributed Fk conversation against
// the ordinary verifier and checks every message matches the
// single-prover transcript bit for bit.
func TestSplitFkBitIdentical(t *testing.T) {
	const u = 1 << 7
	rng := field.NewSplitMix64(3)
	ups := stream.UniformDeltas(u, 500, rng)
	table := elemsOf(t, ups, u)
	for _, k := range []int{2, 3} {
		for _, workers := range []int{0, 4} {
			proto, err := NewFk(f61, u, k)
			if err != nil {
				t.Fatal(err)
			}
			proto.Workers = workers
			// Reference transcript from the single-table prover.
			refP, err := proto.NewProverFromTable(table)
			if err != nil {
				t.Fatal(err)
			}
			ref := &recordingProver{inner: refP}
			refV := proto.NewVerifier(field.NewSplitMix64(77))
			for _, up := range ups {
				if err := refV.Observe(up); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := Run(ref, refV); err != nil {
				t.Fatalf("reference run rejected: %v", err)
			}
			refResult, err := refV.Result()
			if err != nil {
				t.Fatal(err)
			}
			for _, slices := range []int{1, 2, 4} {
				split := newSplitFk(t, u, k, slices, workers, table, 9)
				rec := &recordingProver{inner: split}
				v := proto.NewVerifier(field.NewSplitMix64(77))
				for _, up := range ups {
					if err := v.Observe(up); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := Run(rec, v); err != nil {
					t.Fatalf("k=%d w=%d S=%d: split run rejected: %v", k, workers, slices, err)
				}
				if got, _ := v.Result(); got != refResult {
					t.Fatalf("k=%d w=%d S=%d: result %d ≠ %d", k, workers, slices, got, refResult)
				}
				if split.agg.Version() != 9 {
					t.Fatalf("aggregator pinned version %d, want 9", split.agg.Version())
				}
				if len(rec.msgs) != len(ref.msgs) {
					t.Fatalf("k=%d w=%d S=%d: %d messages, want %d", k, workers, slices, len(rec.msgs), len(ref.msgs))
				}
				for j := range rec.msgs {
					got, want := rec.msgs[j], ref.msgs[j]
					if len(got.Ints) != 0 {
						t.Fatalf("k=%d w=%d S=%d msg %d: combined message leaked ints", k, workers, slices, j)
					}
					if len(got.Elems) != len(want.Elems) {
						t.Fatalf("k=%d w=%d S=%d msg %d: %d elems, want %d", k, workers, slices, j, len(got.Elems), len(want.Elems))
					}
					for c := range got.Elems {
						if got.Elems[c] != want.Elems[c] {
							t.Fatalf("k=%d w=%d S=%d msg %d elem %d: %d ≠ %d",
								k, workers, slices, j, c, got.Elems[c], want.Elems[c])
						}
					}
				}
			}
		}
	}
}

// TestSplitRangeSumBitIdentical does the same for RANGE-SUM, whose
// indicator table each slice materializes locally from the global
// range.
func TestSplitRangeSumBitIdentical(t *testing.T) {
	const u = 1 << 6
	rng := field.NewSplitMix64(5)
	ups := stream.UniformDeltas(u, 300, rng)
	table := elemsOf(t, ups, u)
	const qL, qR = 7, 51
	proto, err := NewRangeSum(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	refP, err := proto.NewProverFromTable(table)
	if err != nil {
		t.Fatal(err)
	}
	if err := refP.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	ref := &recordingProver{inner: refP}
	refV := proto.NewVerifier(field.NewSplitMix64(13))
	for _, up := range ups {
		if err := refV.Observe(up); err != nil {
			t.Fatal(err)
		}
	}
	if err := refV.SetQuery(qL, qR); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ref, refV); err != nil {
		t.Fatalf("reference run rejected: %v", err)
	}
	for _, slices := range []int{1, 2, 4, 8} {
		agg, err := NewSplitAggregator(f61, u, slices, sumcheck.Product{}, 0)
		if err != nil {
			t.Fatal(err)
		}
		width := proto.Params.U / uint64(slices)
		owners := make([]*PartialProver, slices)
		for s := range owners {
			lo, hi := uint64(s)*width, uint64(s+1)*width
			o, err := proto.NewPartialProverFromTable(table[lo:hi], lo, hi, 4, qL, qR)
			if err != nil {
				t.Fatal(err)
			}
			owners[s] = o
		}
		rec := &recordingProver{inner: &splitSession{t: t, agg: agg, owners: owners}}
		v := proto.NewVerifier(field.NewSplitMix64(13))
		for _, up := range ups {
			if err := v.Observe(up); err != nil {
				t.Fatal(err)
			}
		}
		if err := v.SetQuery(qL, qR); err != nil {
			t.Fatal(err)
		}
		if _, err := Run(rec, v); err != nil {
			t.Fatalf("S=%d: split range-sum rejected: %v", slices, err)
		}
		if len(rec.msgs) != len(ref.msgs) {
			t.Fatalf("S=%d: %d messages, want %d", slices, len(rec.msgs), len(ref.msgs))
		}
		for j := range rec.msgs {
			for c := range rec.msgs[j].Elems {
				if rec.msgs[j].Elems[c] != ref.msgs[j].Elems[c] {
					t.Fatalf("S=%d msg %d elem %d differs", slices, j, c)
				}
			}
		}
	}
}

// TestSplitAggregatorVersionSkew checks the typed error on slice
// openings that disagree on the dataset version.
func TestSplitAggregatorVersionSkew(t *testing.T) {
	const u = 1 << 4
	table := make([]field.Elem, u)
	proto, err := NewSelfJoinSize(f61, u)
	if err != nil {
		t.Fatal(err)
	}
	agg, err := NewSplitAggregator(f61, u, 2, sumcheck.Power{K: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]Msg, 2)
	for s := 0; s < 2; s++ {
		lo, hi := uint64(s)*u/2, uint64(s+1)*u/2
		o, err := proto.NewPartialProverFromTable(table[lo:hi], nil, lo, hi, uint64(3+s))
		if err != nil {
			t.Fatal(err)
		}
		m, err := o.Open()
		if err != nil {
			t.Fatal(err)
		}
		parts[s] = m
	}
	if _, err := agg.Open(parts); !errors.Is(err, ErrSplitVersion) {
		t.Fatalf("version skew error = %v, want ErrSplitVersion", err)
	}
}

// TestSplitAggregatorValidation exercises slice-count rules.
func TestSplitAggregatorValidation(t *testing.T) {
	if _, err := NewSplitAggregator(f61, 16, 3, sumcheck.Power{K: 2}, 0); err == nil {
		t.Fatal("3 slices of 16 accepted")
	}
	if _, err := NewSplitAggregator(f61, 16, 16, sumcheck.Power{K: 2}, 0); err == nil {
		t.Fatal("width-1 slices accepted")
	}
	if _, err := NewSplitAggregator(f61, 16, 0, sumcheck.Power{K: 2}, 0); err == nil {
		t.Fatal("0 slices accepted")
	}
	a, err := NewSplitAggregator(f61, 1000, 4, sumcheck.Power{K: 2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds() != 10 || a.HeadRounds() != 8 {
		t.Fatalf("rounds=%d head=%d, want 10/8", a.Rounds(), a.HeadRounds())
	}
}
