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
// Snapshot.NewPartialProver, NewTicket, Ticket.Spend, NewStreamVerifier,
// AnswerOf and SplitCombiner are a bounds-checked lookup plus one call,
// made once per conversation or proof — never per round or per update.
// Adding a kind is one row; widening the split-universe seam is one
// row's combiner and its instance's partial.

// kindRow is one query kind.
type kindRow struct {
	// open instantiates the kind's core/gkr protocol once for
	// (f, u, p, workers). The protocol constructor's error is the
	// parameter validation.
	open func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error)
	// combiner is what a core.SplitProver folds the kind's
	// partials under; nil for a kind outside the seam (ErrNotSplittable),
	// which is thereby refused without instantiating anything.
	combiner func(p QueryParams) sumcheck.Combiner
	// families is the set of summaries the kind's verifier adopts (see
	// core.Summary); zero only for CIRCUIT, whose GKR input check depends
	// on the query, so no ticket serves it.
	families core.Families
	// answer reads the verified result off the kind's accepting verifier.
	answer func(core.VerifierSession) (Answer, error)
}

// instance holds one protocol instance's session constructors side by
// side, query parameters already bound.
type instance struct {
	// verifier adopts s, drawn for the row's families, and sets the
	// query; CIRCUIT's, with no families, draws from rng instead.
	verifier func(s core.Summary, rng field.RNG) (StreamVerifier, error)
	// prover borrows a snapshot's maintained tables read-only.
	prover func(s *Snapshot) (core.ProverSession, error)
	// partial is the slice owner's session over [lo, hi); nil exactly
	// when the row's combiner is.
	partial func(s *Snapshot, lo, hi uint64) (core.ProverSession, error)
}

// sessions assembles an instance from one protocol's typed constructors.
// setV and setP bind the query (nil when the protocol's constructor
// already took it): to the verifier at construction, to a prover after
// its table is in place — the point where the paper's verifier would
// transmit the query.
func sessions[V StreamVerifier, P core.ProverSession](
	adopt func(core.Summary) V, fromState func(*Snapshot) (P, error),
	setV func(V) error, setP func(P) error,
) *instance {
	return &instance{
		verifier: func(s core.Summary, _ field.RNG) (StreamVerifier, error) {
			v := adopt(s)
			if setV != nil {
				if err := setV(v); err != nil {
					return nil, err
				}
			}
			return v, nil
		},
		prover: func(s *Snapshot) (core.ProverSession, error) {
			p, err := fromState(s)
			if err == nil && setP != nil {
				err = setP(p)
			}
			if err != nil {
				return nil, err
			}
			return p, nil
		},
	}
}

func paramA(p QueryParams) uint64 { return p.A }
func paramK(p QueryParams) int    { return int(p.K) }

// reads is an answer column over the kind's concrete verifier type V.
func reads[V any](read func(v V, a *Answer) error) func(core.VerifierSession) (Answer, error) {
	return func(s core.VerifierSession) (a Answer, err error) {
		v, ok := s.(V)
		if !ok {
			return a, fmt.Errorf("engine: %T is not the kind's verifier", s)
		}
		err = read(v, &a)
		return a, err
	}
}

// found is the answer column of the kinds that locate an index.
func found[V interface{ Result() (uint64, bool, error) }](v V, a *Answer) (err error) {
	a.At, a.Found, err = v.Result()
	return err
}

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
			in := sessions(proto.Adopt,
				func(s *Snapshot) (*core.RangeSumProver, error) { return proto.NewProverFromTable(s.provedChunks()) },
				func(v *core.RangeSumVerifier) error { return v.SetQuery(p.A, p.B) },
				func(pr *core.RangeSumProver) error { return pr.SetQuery(p.A, p.B) })
			in.partial = func(s *Snapshot, lo, hi uint64) (core.ProverSession, error) {
				return proto.NewPartialProverFromTable(s.provedChunks(), lo, hi, s.Version(), p.A, p.B)
			}
			return in, nil
		},
		combiner: func(QueryParams) sumcheck.Combiner { return sumcheck.Product{} },
		families: core.FamilyPoint,
		answer: reads(func(v *core.RangeSumVerifier, a *Answer) (err error) {
			a.Int, err = v.SignedResult()
			return err
		}),
	},
	QueryRangeQuery: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewRangeQuery(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.Adopt,
			func(s *Snapshot) (*core.SubVectorProver, error) { return proto.NewProverFromCounts(s.countChunks()) },
			func(v *core.SubVectorVerifier) error { return v.SetQuery(p.A, p.B) },
			func(pr *core.SubVectorProver) error { return pr.SetQuery(p.A, p.B) }), nil
	}, families: core.FamilyTree, answer: reads(func(v *core.SubVectorVerifier, a *Answer) (err error) {
		a.Entries, err = v.Result()
		return err
	})},
	QueryIndex: scalarRow(core.NewIndex, paramA, func(v *core.IndexVerifier, a *Answer) (err error) {
		a.Int, err = v.Value()
		return err
	}),
	QueryDictionary: scalarRow(core.NewDictionary, paramA, func(v *core.DictionaryVerifier, a *Answer) (err error) {
		a.At, a.Found, err = v.Value()
		return err
	}),
	QueryPredecessor: scalarRow(core.NewPredecessor, paramA, found[*core.PredecessorVerifier]),
	QuerySuccessor:   scalarRow(core.NewSuccessor, paramA, found[*core.SuccessorVerifier]),
	QueryKLargest: scalarRow(core.NewKLargest, paramK, func(v *core.KLargestVerifier, a *Answer) (err error) {
		a.At, err = v.Result()
		a.Found = err == nil
		return err
	}),
	QueryHeavyHitters: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewHeavyHitters(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.Adopt,
			func(s *Snapshot) (*core.HeavyHittersProver, error) {
				return proto.NewProverFromCounts(s.countChunks(), s.Total())
			},
			func(v *core.HeavyHittersVerifier) error { return v.SetQuery(p.Phi) },
			func(pr *core.HeavyHittersProver) error { return pr.SetQuery(p.Phi) }), nil
	}, families: core.FamilyAug, answer: reads(func(v *core.HeavyHittersVerifier, a *Answer) (err error) {
		a.Hitters, a.Int, err = v.Result()
		return err
	})},
	QueryF0: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewF0(f, u, p.Phi)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		return sessions(proto.Adopt,
			func(s *Snapshot) (*core.FrequencyBasedProver, error) {
				return proto.NewProverFromCounts(s.countChunks(), s.Total())
			}, nil, nil), nil
	}, families: core.FamilyPoint | core.FamilyAug, answer: reads(func(v *core.FrequencyBasedVerifier, a *Answer) (err error) {
		a.Elem, err = v.Result()
		return err
	})},
	QueryFmax: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := core.NewFmax(f, u, p.Phi)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		return sessions(proto.Adopt,
			func(s *Snapshot) (*core.FmaxProver, error) {
				return proto.NewProverFromCounts(s.countChunks(), s.Total())
			}, nil, nil), nil
	}, families: core.FamilyTree | core.FamilyPoint | core.FamilyAug, answer: reads(func(v *core.FmaxVerifier, a *Answer) (err error) {
		a.Int, err = v.Result()
		return err
	})},
	// QueryCircuit: the family name travels in p.Circuit, its argument in
	// p.A. The circuit reads the field images of the first InputSize
	// counts (zero-padded if the family's input outgrows the padded
	// universe).
	QueryCircuit: {open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := gkr.NewProtocolFor(f, circuit.Spec{Name: p.Circuit, Arg: p.A}, u, workers)
		if err != nil {
			return nil, err
		}
		return &instance{
			verifier: func(_ core.Summary, rng field.RNG) (StreamVerifier, error) { return proto.NewVerifierSession(rng) },
			prover: func(s *Snapshot) (core.ProverSession, error) {
				c := s.countChunks()
				return proto.NewProverSession(proto.InputFromCounts(c.Width, c.Chunks))
			},
		}, nil
	}, answer: reads(func(v *gkr.VerifierSession, a *Answer) (err error) {
		a.Outputs, err = v.Outputs()
		return err
	})},
}

// fkRow is SELF-JOIN SIZE (k = 2) and Fk (k from the parameters). Its
// provers, whole and slice owner, read the counts in place through their
// chunks and take the version's live-pair memo (Snapshot.livePairs)
// instead of scanning them.
func fkRow(k func(QueryParams) int) kindRow {
	return kindRow{
		open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
			proto, err := core.NewFk(f, u, k(p))
			if err != nil {
				return nil, err
			}
			proto.Workers = workers
			in := sessions(proto.Adopt,
				func(s *Snapshot) (*core.FkProver, error) {
					return proto.NewProverFromTable(s.provedChunks(), s.livePairs)
				}, nil, nil)
			in.partial = func(s *Snapshot, lo, hi uint64) (core.ProverSession, error) {
				return proto.NewPartialProverFromTable(s.provedChunks(), s.livePairs, lo, hi, s.Version())
			}
			return in, nil
		},
		combiner: func(p QueryParams) sumcheck.Combiner { return sumcheck.Power{K: k(p)} },
		families: core.FamilyPoint,
		answer: reads(func(v *core.FkVerifier, a *Answer) (err error) {
			a.Elem, err = v.Result()
			return err
		}),
	}
}

// scalarQuery is a session whose query is one scalar.
type scalarQuery[A any] interface{ SetQuery(A) error }

// scalarProto is the shape the five SUB-VECTOR wrappers with a scalar
// argument share (INDEX, DICTIONARY, PREDECESSOR, SUCCESSOR, k-LARGEST).
type scalarProto[V, P any] interface {
	SetWorkers(int)
	Adopt(core.Summary) V
	NewProverFromCounts(sumcheck.Counts) (P, error)
}

// scalarRow is their one row constructor: newProto is the wrapper's
// constructor, arg picks its scalar out of the query parameters, read is
// the answer column. All five adopt the tree summary.
func scalarRow[A any, V interface {
	StreamVerifier
	scalarQuery[A]
}, P interface {
	core.ProverSession
	scalarQuery[A]
}, S scalarProto[V, P]](newProto func(field.Field, uint64) (S, error), arg func(QueryParams) A, read func(V, *Answer) error) kindRow {
	return kindRow{open: func(f field.Field, u uint64, p QueryParams, workers int) (*instance, error) {
		proto, err := newProto(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		a := arg(p)
		return sessions(proto.Adopt,
			func(s *Snapshot) (P, error) { return proto.NewProverFromCounts(s.countChunks()) },
			func(v V) error { return v.SetQuery(a) },
			func(pr P) error { return pr.SetQuery(a) }), nil
	}, families: core.FamilyTree, answer: reads(read)}
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

// NewReplayProver constructs the prover session for a query over the raw
// stream ups: it aggregates them into counts (stream.Apply's loop, with
// an index outside [0, u) refused in Ingest's words) and proves from
// SnapshotFromCounts. It is what a local run pairs with NewStreamVerifier
// (sip.Verify*), and the reference every transcript-equality suite
// compares engine-built provers against: it shares no ingest,
// copy-on-write, eviction, handoff or slicing code with them. workers is
// the prover's parallel fan-out (0 serial, n < 0 runtime.NumCPU()); the
// transcript is identical for every value.
func NewReplayProver(f field.Field, u uint64, kind QueryKind, params QueryParams, ups []stream.Update, workers int) (core.ProverSession, error) {
	counts := make([]int64, u)
	for _, up := range ups {
		if up.Index >= u {
			return nil, errOutsideUniverse(up.Index, u)
		}
		counts[up.Index] += up.Delta
	}
	snap, err := SnapshotFromCounts(f, u, workers, counts)
	if err != nil {
		return nil, err
	}
	return snap.NewProver(kind, params)
}

// SplitCombiner returns the combiner a core.SplitProver folds a
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
