package kvstore

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/field"
)

// TestSlotHoldsThreeSummaries: a budget slot is a tree ticket over the
// shifted log and a point + augmented-tree ticket over the raw values —
// three summaries per put, not six verifiers — and each ticket refuses
// the kinds of the other's families.
func TestSlotHoldsThreeSummaries(t *testing.T) {
	c, err := NewClient(f61, 1<<10, 1, field.NewSplitMix64(953))
	if err != nil {
		t.Fatal(err)
	}
	s := c.slots[0]
	for _, tc := range []struct {
		name    string
		ticket  *engine.Ticket
		refused []engine.QueryKind
		served  engine.QueryKind
	}{
		{"shifted", s.shifted, []engine.QueryKind{engine.QueryRangeSum, engine.QueryHeavyHitters}, engine.QueryPredecessor},
		{"raw", s.raw, []engine.QueryKind{engine.QueryDictionary, engine.QueryRangeQuery}, engine.QueryF0},
	} {
		for _, kind := range tc.refused {
			if _, err := tc.ticket.Spend(kind, engine.QueryParams{A: 1, B: 2, Phi: 0.5}); !errors.Is(err, engine.ErrTicketFamily) {
				t.Errorf("%s ticket spent on kind %d: %v, want ErrTicketFamily", tc.name, kind, err)
			}
		}
		if _, err := tc.ticket.Spend(tc.served, engine.QueryParams{A: 1}); err != nil {
			t.Errorf("%s ticket refused kind %d: %v", tc.name, tc.served, err)
		}
	}
}
