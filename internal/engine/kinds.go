package engine

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/gkr"
	"repro/internal/stream"
	"repro/internal/sumcheck"
)

// This file is the kind table: everything the service knows about a
// query kind is its row in kinds. Snapshot.NewProver,
// Snapshot.NewPartialProver, NewStreamVerifier, NewReplayProver and
// SplitCombiner are a bounds-checked lookup plus one call, made once per
// conversation or proof — never per round or per update. Adding a kind
// is one row; widening the split-universe seam is one row's combiner
// and its instance's partial.

// kindRow is one query kind.
type kindRow struct {
	// open instantiates the kind's core/gkr protocol once for
	// (f, u, p, workers). The protocol constructor's error is the
	// parameter validation.
	open func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error)
	// combiner is what a split-universe aggregator folds the kind's
	// partials under; nil for a kind outside the seam (ErrNotSplittable),
	// which is thereby refused without instantiating anything.
	combiner func(p QueryParams) sumcheck.Combiner
}

// instance holds one protocol instance's session constructors side by
// side, query parameters already bound.
type instance struct {
	// verifier draws its randomness from rng and has its query set, but
	// has observed nothing.
	verifier func(rng field.RNG) (StreamVerifier, error)
	// prover borrows a snapshot's maintained tables; no stream is replayed.
	prover func(st *tableState) (core.ProverSession, error)
	// replay is the paper's prover: it observes ups one by one.
	replay func(ups []stream.Update) (core.ProverSession, error)
	// partial is the slice owner's session over [lo, hi); nil exactly
	// when the row's combiner is.
	partial func(st *tableState, lo, hi uint64) (core.ProverSession, error)
}

// streamProver is a prover session fed by Observe.
type streamProver interface {
	core.ProverSession
	Observe(stream.Update) error
}

// sessions assembles an instance from one protocol's typed constructors.
// setV and setP bind the query (nil when the protocol's constructor
// already took it): to the verifier at construction, to a prover after
// its state is in place — the point where the paper's verifier would
// transmit the query.
func sessions[V StreamVerifier, P streamProver](
	newVerifier func(field.RNG) V, newProver func() P, fromState func(*tableState) (P, error),
	setV func(V) error, setP func(P) error,
) *instance {
	bind := func(p P, err error) (core.ProverSession, error) {
		if err == nil && setP != nil {
			err = setP(p)
		}
		if err != nil {
			return nil, err
		}
		return p, nil
	}
	return &instance{
		verifier: func(rng field.RNG) (StreamVerifier, error) {
			v := newVerifier(rng)
			if setV != nil {
				if err := setV(v); err != nil {
					return nil, err
				}
			}
			return v, nil
		},
		prover: func(st *tableState) (core.ProverSession, error) { return bind(fromState(st)) },
		replay: func(ups []stream.Update) (core.ProverSession, error) {
			p := newProver()
			for _, up := range ups {
				if err := p.Observe(up); err != nil {
					return nil, err
				}
			}
			return bind(p, nil)
		},
	}
}

func paramA(p QueryParams) uint64 { return p.A }
func paramK(p QueryParams) int    { return int(p.K) }

// kinds is indexed by QueryKind; a zero row is an unknown kind.
var kinds = [...]kindRow{
	QuerySelfJoinSize: fkRow(func(QueryParams) int { return 2 }),
	QueryFk:           fkRow(paramK),
	QueryRangeSum: {
		open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
			proto, err := core.NewRangeSum(f, u)
			if err != nil {
				return nil, err
			}
			proto.Workers = workers
			in := sessions(proto.NewVerifier, proto.NewProver,
				func(st *tableState) (*core.RangeSumProver, error) { return proto.NewProverFromTable(st.elems) },
				func(v *core.RangeSumVerifier) error { return v.SetQuery(p.A, p.B) },
				func(pr *core.RangeSumProver) error { return pr.SetQuery(p.A, p.B) })
			in.partial = func(st *tableState, lo, hi uint64) (core.ProverSession, error) {
				return proto.NewPartialProverFromTable(st.elems, lo, hi, st.version, p.A, p.B)
			}
			return in, nil
		},
		combiner: func(QueryParams) sumcheck.Combiner { return sumcheck.Product{} },
	},
	QueryRangeQuery: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewRangeQuery(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.NewVerifier, proto.NewProver,
			func(st *tableState) (*core.SubVectorProver, error) { return proto.NewProverFromCounts(st.counts) },
			func(v *core.SubVectorVerifier) error { return v.SetQuery(p.A, p.B) },
			func(pr *core.SubVectorProver) error { return pr.SetQuery(p.A, p.B) }), nil
	}},
	QueryIndex:       scalarRow(core.NewIndex, paramA),
	QueryDictionary:  scalarRow(core.NewDictionary, paramA),
	QueryPredecessor: scalarRow(core.NewPredecessor, paramA),
	QuerySuccessor:   scalarRow(core.NewSuccessor, paramA),
	QueryKLargest:    scalarRow(core.NewKLargest, paramK),
	QueryHeavyHitters: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewHeavyHitters(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.NewVerifier, proto.NewProver,
			func(st *tableState) (*core.HeavyHittersProver, error) {
				return proto.NewProverFromCounts(st.counts, st.total)
			},
			func(v *core.HeavyHittersVerifier) error { return v.SetQuery(p.Phi) },
			func(pr *core.HeavyHittersProver) error { return pr.SetQuery(p.Phi) }), nil
	}},
	QueryF0: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewF0(f, u, p.Phi)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.NewVerifier, proto.NewProver,
			func(st *tableState) (*core.FrequencyBasedProver, error) {
				return proto.NewProverFromCounts(st.counts, st.total)
			}, nil, nil), nil
	}},
	QueryFmax: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewFmax(f, u, p.Phi)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		return sessions(proto.NewVerifier, proto.NewProver,
			func(st *tableState) (*core.FmaxProver, error) {
				return proto.NewProverFromCounts(st.counts, st.total)
			}, nil, nil), nil
	}},
	// QueryCircuit: the family name travels in p.Circuit, its argument in
	// p.A. The circuit reads the element table's first InputSize entries
	// (zero-padded if the family's input outgrows the padded universe).
	QueryCircuit: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := gkr.NewProtocolFor(f, circuit.Spec{Name: p.Circuit, Arg: p.A}, u, workers)
		if err != nil {
			return nil, err
		}
		return &instance{
			verifier: func(rng field.RNG) (StreamVerifier, error) { return proto.NewVerifierSession(rng) },
			prover: func(st *tableState) (core.ProverSession, error) {
				return proto.NewProverSession(proto.PadInput(st.elems))
			},
			// The GKR prover takes a dense input vector, so "observing"
			// means accumulating the stream into the circuit's input
			// table; indices the circuit does not read are outside the
			// statement (see gkr.VerifierSession.Observe).
			replay: func(ups []stream.Update) (core.ProverSession, error) {
				input := make([]field.Elem, proto.C.InputSize)
				for _, up := range ups {
					if up.Index >= u {
						return nil, fmt.Errorf("engine: index %d outside universe [0,%d)", up.Index, u)
					}
					if up.Index < uint64(len(input)) {
						input[up.Index] = f.Add(input[up.Index], f.FromInt64(up.Delta))
					}
				}
				return proto.NewProverSession(input)
			},
		}, nil
	}},
}

// fkRow is SELF-JOIN SIZE (k = 2) and Fk (k from the parameters).
func fkRow(k func(QueryParams) int) kindRow {
	return kindRow{
		open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
			proto, err := core.NewFk(f, u, k(p))
			if err != nil {
				return nil, err
			}
			proto.Workers = workers
			in := sessions(proto.NewVerifier, proto.NewProver,
				func(st *tableState) (*core.FkProver, error) { return proto.NewProverFromTable(st.elems) }, nil, nil)
			in.partial = func(st *tableState, lo, hi uint64) (core.ProverSession, error) {
				return proto.NewPartialProverFromTable(st.elems, lo, hi, st.version)
			}
			return in, nil
		},
		combiner: func(p QueryParams) sumcheck.Combiner { return sumcheck.Power{K: k(p)} },
	}
}

// scalarQuery is a session whose query is one scalar.
type scalarQuery[A any] interface{ SetQuery(A) error }

// scalarProto is the shape the five SUB-VECTOR wrappers with a scalar
// argument share (INDEX, DICTIONARY, PREDECESSOR, SUCCESSOR, k-LARGEST).
type scalarProto[V, P any] interface {
	SetWorkers(int)
	NewVerifier(field.RNG) V
	NewProver() P
	NewProverFromCounts([]int64) (P, error)
}

// scalarRow is their one row constructor: newProto is the wrapper's
// constructor, arg picks its scalar out of the query parameters.
func scalarRow[A any, V interface {
	StreamVerifier
	scalarQuery[A]
}, P interface {
	streamProver
	scalarQuery[A]
}, S scalarProto[V, P]](newProto func(field.Field, uint64) (S, error), arg func(QueryParams) A) kindRow {
	return kindRow{open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := newProto(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		a := arg(p)
		return sessions(proto.NewVerifier, proto.NewProver,
			func(st *tableState) (P, error) { return proto.NewProverFromCounts(st.counts) },
			func(v V) error { return v.SetQuery(a) },
			func(pr P) error { return pr.SetQuery(a) }), nil
	}}
}

// lookup is the bounds-checked row access every entry point shares.
func lookup(kind QueryKind) (kindRow, error) {
	if int(kind) >= len(kinds) || kinds[kind].open == nil {
		return kindRow{}, fmt.Errorf("engine: unknown query kind %d", kind)
	}
	return kinds[kind], nil
}

// openKind is lookup plus the row's one instantiation.
func openKind(f field.Field, u uint64, kind QueryKind, p QueryParams, workers int) (*instance, error) {
	row, err := lookup(kind)
	if err != nil {
		return nil, err
	}
	return row.open(f, u, p, workers)
}

// seamRow is lookup for the split-universe seam: a known kind outside
// it fails with ErrNotSplittable before anything is instantiated.
func seamRow(kind QueryKind) (kindRow, error) {
	row, err := lookup(kind)
	if err == nil && row.combiner == nil {
		err = fmt.Errorf("%w: kind %d", ErrNotSplittable, kind)
	}
	return row, err
}

// NewReplayProver constructs the prover session for a query the way the
// paper's prover does: by observing the raw stream update by update. The
// serving path never does this — provers come from dataset snapshots. It
// is what a local run pairs with NewStreamVerifier (sip.Verify*), and
// the streaming reference every transcript-equality suite compares
// snapshot-built provers against. workers is the prover's parallel
// fan-out (0 serial, n < 0 runtime.NumCPU()); the transcript is
// identical for every value.
func NewReplayProver(f field.Field, u uint64, kind QueryKind, params QueryParams, ups []stream.Update, workers int) (core.ProverSession, error) {
	in, err := openKind(f, u, kind, params, workers)
	if err != nil {
		return nil, err
	}
	return in.replay(ups)
}

// SplitCombiner returns the combiner a split-universe aggregator folds a
// query's partials under, after validating the query as far as a single
// engine's protocol constructor would: an unknown kind or rejected
// parameters fail in the engine's words, a kind outside the seam with
// ErrNotSplittable.
func SplitCombiner(f field.Field, u uint64, kind QueryKind, params QueryParams) (sumcheck.Combiner, error) {
	row, err := seamRow(kind)
	if err != nil {
		return nil, err
	}
	if _, err := row.open(f, u, params, 0); err != nil {
		return nil, err
	}
	return row.combiner(params), nil
}
