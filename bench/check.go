package main

import (
	"fmt"
	"reflect"
	"sort"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/gkr"
	"repro/internal/wire"
)

// query is one query a workload issues, with the answer the benchmark
// expects for it: computed from the generated counts, never taken from
// the system under test.
type query struct {
	label  string // the kind's metric label, e.g. "f2", "rangesum"
	kind   wire.QueryKind
	params wire.QueryParams
	want   any
}

// found pairs a located index (or value) with whether one exists.
type found struct {
	At uint64
	Ok bool
}

// answerOf extracts a verifier's accepted result in the comparable form
// referenceOf produces.
func answerOf(v core.VerifierSession) (any, error) {
	switch v := v.(type) {
	case *core.FkVerifier:
		return v.Result()
	case *core.RangeSumVerifier:
		return v.SignedResult()
	case *core.SubVectorVerifier:
		return v.Result()
	case *core.IndexVerifier:
		return v.Value()
	case *core.DictionaryVerifier:
		val, ok, err := v.Value()
		return found{val, ok}, err
	case *core.PredecessorVerifier:
		at, ok, err := v.Result()
		return found{at, ok}, err
	case *core.SuccessorVerifier:
		at, ok, err := v.Result()
		return found{at, ok}, err
	case *core.KLargestVerifier:
		return v.Result()
	case *core.HeavyHittersVerifier:
		hh, _, err := v.Result()
		return hh, err
	case *core.FrequencyBasedVerifier:
		return v.Result()
	case *core.FmaxVerifier:
		return v.Result()
	case *gkr.VerifierSession:
		return v.Outputs()
	default:
		return nil, fmt.Errorf("bench: no answer extractor for %T", v)
	}
}

// referenceOf computes a query's true answer from the dense counts.
func referenceOf(f field.Field, q query, counts []int64) (any, error) {
	p := q.params
	switch q.kind {
	case wire.QuerySelfJoinSize:
		return moment(f, counts, 2), nil
	case wire.QueryFk:
		return moment(f, counts, uint64(p.K)), nil
	case wire.QueryRangeSum:
		var s int64
		for _, c := range counts[p.A : p.B+1] {
			s += c
		}
		return s, nil
	case wire.QueryRangeQuery:
		var out []core.Entry
		for i := p.A; i <= p.B; i++ {
			if counts[i] != 0 {
				out = append(out, core.Entry{Index: i, Value: counts[i]})
			}
		}
		return out, nil
	case wire.QueryIndex:
		return counts[p.A], nil
	case wire.QueryDictionary:
		if counts[p.A] == 0 {
			return found{}, nil
		}
		return found{uint64(counts[p.A]) - 1, true}, nil
	case wire.QueryPredecessor:
		for i := int64(p.A); i >= 0; i-- {
			if counts[i] != 0 {
				return found{uint64(i), true}, nil
			}
		}
		return found{}, nil
	case wire.QuerySuccessor:
		for i := p.A; i < uint64(len(counts)); i++ {
			if counts[i] != 0 {
				return found{i, true}, nil
			}
		}
		return found{}, nil
	case wire.QueryKLargest:
		k := p.K
		for i := len(counts) - 1; i >= 0; i-- {
			if counts[i] != 0 {
				if k--; k == 0 {
					return uint64(i), nil
				}
			}
		}
		return nil, fmt.Errorf("bench: fewer than %d items present", p.K)
	case wire.QueryHeavyHitters:
		var n int64
		for _, c := range counts {
			n += c
		}
		t := core.Threshold(p.Phi, n)
		var out []core.HeavyHitter
		for i, c := range counts {
			if c >= t {
				out = append(out, core.HeavyHitter{Index: uint64(i), Count: c})
			}
		}
		sort.Slice(out, func(i, j int) bool { return out[i].Index < out[j].Index })
		return out, nil
	case wire.QueryF0:
		var n uint64
		for _, c := range counts {
			if c != 0 {
				n++
			}
		}
		return f.FromUint64(n), nil
	case wire.QueryFmax:
		var m int64
		for _, c := range counts {
			m = max(m, c)
		}
		return m, nil
	case wire.QueryCircuit:
		switch p.Circuit {
		case circuit.FamilyF2:
			return []field.Elem{moment(f, counts, 2)}, nil
		case circuit.FamilyCount:
			var s int64
			for _, c := range counts {
				s += c
			}
			return []field.Elem{f.FromInt64(s)}, nil
		}
	}
	return nil, fmt.Errorf("bench: no reference for query kind %d %q", q.kind, p.Circuit)
}

func moment(f field.Field, counts []int64, k uint64) field.Elem {
	var s field.Elem
	for _, c := range counts {
		if c != 0 {
			s = f.Add(s, f.Pow(f.FromInt64(c), k))
		}
	}
	return s
}

// checkAnswer compares an accepted verifier's result with the
// reference. nil slices and empty slices are the same answer.
func checkAnswer(q query, v core.VerifierSession) error {
	got, err := answerOf(v)
	if err != nil {
		return err
	}
	if rv := reflect.ValueOf(got); rv.Kind() == reflect.Slice && rv.Len() == 0 {
		if wv := reflect.ValueOf(q.want); wv.Kind() == reflect.Slice && wv.Len() == 0 {
			return nil
		}
	}
	if !reflect.DeepEqual(got, q.want) {
		return fmt.Errorf("bench: %s answered %v, the generated data says %v", q.label, got, q.want)
	}
	return nil
}
