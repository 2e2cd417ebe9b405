// The hand-written test loop around the split aggregator, as 9e45139^
// held it in internal/core/partial_test.go.

package core

import (
	"testing"

	"repro/internal/field"
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
