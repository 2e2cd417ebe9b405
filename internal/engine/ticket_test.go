package engine_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/conformance"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// ticketed is every case a ticket serves: all but CIRCUIT.
var ticketed = conformance.Filter(conformance.Case.Ticketed)

// TestTicketMatchesStreamVerifier: for every ticket kind and three seeds,
// a one-kind ticket spent on its kind is the verifier NewStreamVerifier
// builds on the same seed — same space after the stream, and the same
// conversation with the snapshot's prover: the same prover messages and
// the same challenges, recorded live.
func TestTicketMatchesStreamVerifier(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(61))
	ds, err := engine.NewDataset(f61, u, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := ds.Ingest(ups); err != nil {
		t.Fatal(err)
	}
	snap := ds.Snapshot()
	for _, c := range ticketed {
		for seed := uint64(1); seed <= 3; seed++ {
			name := fmt.Sprintf("%v/seed=%d", c, seed)
			direct, err := engine.NewStreamVerifier(f61, u, c.Kind, c.Params, field.NewSplitMix64(seed))
			if err != nil {
				t.Fatal(err)
			}
			tk, err := engine.NewTicket(f61, u, []engine.QueryKind{c.Kind}, field.NewSplitMix64(seed))
			if err != nil {
				t.Fatal(err)
			}
			conformance.Feed(t, tk, ups)
			spent, err := tk.Spend(c.Kind, c.Params)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			conformance.Feed(t, direct, ups)
			var recs [2]conformance.Recorder
			var space [2]int
			for i, v := range []engine.StreamVerifier{direct, spent} {
				p, err := snap.NewProver(c.Kind, c.Params)
				if err != nil {
					t.Fatal(err)
				}
				if sw, ok := v.(interface{ SpaceWords() int }); ok {
					space[i] = sw.SpaceWords()
				}
				recs[i].Inner = v
				if _, err := core.Run(p, &recs[i]); err != nil {
					t.Fatalf("%s: conversation rejected: %v", name, err)
				}
			}
			if err := conformance.Same(recs[0].Said, recs[1].Said); err != nil {
				t.Fatalf("%s: challenges: %v", name, err)
			}
			if err := conformance.Same(recs[0].Msgs, recs[1].Msgs); err != nil {
				t.Fatalf("%s: transcripts: %v", name, err)
			}
			if space[0] != space[1] {
				t.Fatalf("%s: space %d vs %d words", name, space[0], space[1])
			}
		}
	}
}

// TestTicketAllKinds: a ticket drawn for all twelve ticket kinds, fed the
// stream once, accepts the honest answer to whichever kind it is spent
// on (a fresh ticket per kind), and the answer is the one-kind path's.
// A second spend, a kind outside the ticket's families and CIRCUIT are
// refused typed; a refused query leaves the ticket unspent.
func TestTicketAllKinds(t *testing.T) {
	const u = 500
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(62))
	snap := func() *engine.Snapshot {
		ds, err := engine.NewDataset(f61, u, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := ds.Ingest(ups); err != nil {
			t.Fatal(err)
		}
		return ds.Snapshot()
	}()
	converse := func(v engine.StreamVerifier, c conformance.Case) engine.Answer {
		t.Helper()
		p, err := snap.NewProver(c.Kind, c.Params)
		if err != nil {
			t.Fatal(err)
		}
		conformance.Converse(t, p, v)
		a, err := engine.AnswerOf(c.Kind, v)
		if err != nil {
			t.Fatalf("%v: answer: %v", c, err)
		}
		return a
	}
	for i, c := range ticketed {
		tk, err := engine.NewTicket(f61, u, conformance.Kinds(ticketed), field.NewSplitMix64(uint64(100+i)))
		if err != nil {
			t.Fatal(err)
		}
		conformance.Feed(t, tk, ups)
		v, err := tk.Spend(c.Kind, c.Params)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		got := converse(v, c)
		one := conformance.Verifier(t, u, c, field.NewSplitMix64(7), ups)
		if want := converse(one, c); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: ticket answer %+v, one-kind answer %+v", c, got, want)
		}
		if _, err := tk.Spend(c.Kind, c.Params); !errors.Is(err, engine.ErrTicketSpent) {
			t.Fatalf("%v: second spend: %v, want ErrTicketSpent", c, err)
		}
	}

	point, err := engine.NewTicket(f61, u, []engine.QueryKind{engine.QuerySelfJoinSize}, field.NewSplitMix64(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []engine.QueryKind{engine.QueryRangeQuery, engine.QueryHeavyHitters, engine.QueryF0, engine.QueryFmax} {
		if _, err := point.Spend(kind, engine.QueryParams{A: 1, B: 2, Phi: 0.1}); !errors.Is(err, engine.ErrTicketFamily) {
			t.Errorf("point ticket spent on kind %d: %v, want ErrTicketFamily", kind, err)
		}
	}
	if _, err := point.Spend(engine.QueryCircuit, engine.QueryParams{Circuit: "F2"}); !errors.Is(err, engine.ErrTicketCircuit) {
		t.Errorf("spend on CIRCUIT: %v, want ErrTicketCircuit", err)
	}
	if _, err := engine.NewTicket(f61, u, []engine.QueryKind{engine.QueryF0, engine.QueryCircuit}, field.NewSplitMix64(1)); !errors.Is(err, engine.ErrTicketCircuit) {
		t.Errorf("ticket drawn for CIRCUIT: %v, want ErrTicketCircuit", err)
	}
	if _, err := point.Spend(engine.QueryFk, engine.QueryParams{K: 0}); err == nil || errors.Is(err, engine.ErrTicketSpent) {
		t.Fatalf("bad Fk order: %v", err)
	}
	if _, err := point.Spend(engine.QueryFk, engine.QueryParams{K: 3}); err != nil {
		t.Fatalf("a refused query spent the ticket: %v", err)
	}
}

// TestObserveAllocatesNothing: feeding an update to any kind's streaming
// verifier, or to a ticket drawn for every ticket kind, allocates
// nothing — a verifier's state is its summaries, fixed at construction.
func TestObserveAllocatesNothing(t *testing.T) {
	const u = 1 << 10
	ups := stream.UniformDeltas(u, 20, field.NewSplitMix64(63))
	observers := map[string]interface{ Observe(stream.Update) error }{}
	for _, c := range conformance.Cases {
		v, err := engine.NewStreamVerifier(f61, u, c.Kind, c.Params, field.NewSplitMix64(5))
		if err != nil {
			t.Fatal(err)
		}
		observers[c.String()] = v
	}
	tk, err := engine.NewTicket(f61, u, conformance.Kinds(ticketed), field.NewSplitMix64(5))
	if err != nil {
		t.Fatal(err)
	}
	observers["ticket for every kind"] = tk
	for name, o := range observers {
		i := 0
		if n := testing.AllocsPerRun(200, func() {
			if err := o.Observe(ups[i%len(ups)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s: Observe allocates %.1f times per update", name, n)
		}
	}
}
